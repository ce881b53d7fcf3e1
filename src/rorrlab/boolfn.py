"""Boolean functions on the {-1,+1}^n cube and their exact Fourier arithmetic.

A function is represented either by a truth table (length 2^n, position b
encodes the point with x_i = -1 when bit i-1 of b is set, x_i = +1
otherwise, so position 0 is the all-ones point) or by a sparse spectrum
mapping variable subsets to real coefficients.

Variable indices are 1-based throughout the API; serialized files use
0-based indices.
"""
from __future__ import annotations

import csv
import enum
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .util import json_int

__all__ = [
    "DROP_THRESHOLD",
    "MAX_TRANSFORM_VARS",
    "OutputConvention",
    "FourierSpectrum",
    "validate_bit_vector",
    "fourier_from_truth_table",
    "l1_level",
    "evaluate_multilinear",
    "convert_convention",
    "walsh_hadamard_inplace",
    "truth_table_index",
    "point_from_index",
    "spectrum_to_json",
    "spectrum_from_json",
    "write_truth_table_bytes",
    "read_truth_table_bytes",
    "write_truth_table_csv",
    "read_truth_table_csv",
]

# Coefficients from truth tables are dyadic rationals; anything smaller
# than this in magnitude is float dust from the transform.
DROP_THRESHOLD = 1e-12

# Memory guard: a dense transform needs 2^n doubles.
MAX_TRANSFORM_VARS = 24


class OutputConvention(enum.Enum):
    """Output range of a Boolean function: {-1,+1} or {0,1}.

    The two are related by v = 2b - 1 (bit 1 maps to +1), which scales
    every non-empty coefficient by exactly 2 and sends the empty
    coefficient through the same affine map.
    """

    PLUS_MINUS_ONE = "pm1"
    ZERO_ONE = "01"


def validate_bit_vector(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Return x as an int8 array, insisting every entry is exactly +-1."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("bit vector must be one-dimensional and non-empty")
    if not np.all(np.abs(arr) == 1):
        raise ValueError("bit vector entries must be exactly -1 or +1")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class FourierSpectrum:
    """Sparse multilinear expansion: subset of [n] -> real coefficient.

    Absent keys mean coefficient zero. Keys are sorted tuples of 1-based
    variable indices; the empty tuple keys the constant term.
    """

    n: int
    coeffs: Mapping[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for subset in self.coeffs:
            if any(not (1 <= i <= self.n) for i in subset):
                raise ValueError(f"subset {subset} out of range for n={self.n}")
            if list(subset) != sorted(set(subset)):
                raise ValueError(f"subset {subset} must be strictly increasing")

    def coefficient(self, subset: Iterable[int]) -> float:
        return self.coeffs.get(tuple(sorted(subset)), 0.0)

    def squared_mass(self) -> float:
        return float(sum(c * c for c in self.coeffs.values()))


def truth_table_index(x: np.ndarray) -> int:
    """Position of the point x in the truth-table ordering."""
    idx = 0
    for i, xi in enumerate(x):
        if xi == -1:
            idx |= 1 << i
    return idx


def point_from_index(b: int, n: int) -> np.ndarray:
    """Inverse of truth_table_index: the +-1 point at position b."""
    bits = (b >> np.arange(n)) & 1
    return np.where(bits == 1, -1, 1).astype(np.int8)


def walsh_hadamard_inplace(values: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard butterfly on a length-2^n array;
    dividing by sqrt(2^n) makes it the unitary Hadamard layer."""
    m = values.size
    if m < 1 or m & (m - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < m:
        blocks = values.reshape(-1, 2 * h)
        left = blocks[:, :h].copy()
        right = blocks[:, h:].copy()
        blocks[:, :h] = left + right
        blocks[:, h:] = left - right
        h *= 2
    return values


def fourier_from_truth_table(values: Sequence[float], n: int) -> FourierSpectrum:
    """Exact sparse spectrum of the function given by its truth table.

    values[b] is f at the point encoded by b; the multilinear polynomial
    built from the result reproduces the table within 1e-9.
    """
    if n > MAX_TRANSFORM_VARS:
        raise ValueError(f"n={n} exceeds transform limit {MAX_TRANSFORM_VARS}")
    table = np.asarray(values, dtype=float).copy()
    if table.size != 1 << n:
        raise ValueError(f"truth table has {table.size} entries, expected 2^{n}")
    walsh_hadamard_inplace(table)
    table /= table.size
    coeffs: dict[tuple[int, ...], float] = {}
    for mask in np.nonzero(np.abs(table) > DROP_THRESHOLD)[0]:
        subset = tuple(i + 1 for i in range(n) if (int(mask) >> i) & 1)
        coeffs[subset] = float(table[mask])
    return FourierSpectrum(n=n, coeffs=coeffs)


def l1_level(spec: FourierSpectrum, ell: int) -> float:
    """Sum of |coefficient| over subsets of size exactly ell."""
    if not (0 <= ell <= spec.n):
        raise ValueError(f"level {ell} out of range for n={spec.n}")
    return float(sum(abs(c) for s, c in spec.coeffs.items() if len(s) == ell))


def evaluate_multilinear(spec: FourierSpectrum, x: Sequence[float]) -> float:
    """Evaluate the multilinear polynomial at a +-1 point."""
    point = validate_bit_vector(x)
    if point.size != spec.n:
        raise ValueError(f"point has {point.size} entries, expected {spec.n}")
    total = 0.0
    for subset, coeff in spec.coeffs.items():
        prod = 1
        for i in subset:
            prod *= int(point[i - 1])
        total += coeff * prod
    return total


def convert_convention(
    spec: FourierSpectrum,
    source: OutputConvention,
    target: OutputConvention,
) -> FourierSpectrum:
    """Re-express a spectrum in the other output convention (v = 2b - 1)."""
    if source == target:
        return spec
    coeffs = dict(spec.coeffs)
    if source == OutputConvention.ZERO_ONE:
        # v = 2b - 1: double everything, shift the constant by -1.
        out = {s: 2.0 * c for s, c in coeffs.items()}
        out[()] = out.get((), 0.0) - 1.0
    else:
        # b = (v + 1) / 2: halve everything, shift the constant by +1/2.
        out = {s: 0.5 * c for s, c in coeffs.items()}
        out[()] = out.get((), 0.0) + 0.5
    out = {s: c for s, c in out.items() if abs(c) > DROP_THRESHOLD}
    return FourierSpectrum(n=spec.n, coeffs=out)


# ---------------------------------------------------------------------------
# Serialization. File formats use 0-based variable indices.
# ---------------------------------------------------------------------------

def spectrum_to_json(spec: FourierSpectrum) -> str:
    entries = [
        {"S": [i - 1 for i in subset], "coeff": coeff}
        for subset, coeff in sorted(spec.coeffs.items())
    ]
    return json.dumps({"n": spec.n, "coefficients": entries}, sort_keys=True)


def spectrum_from_json(text: str) -> FourierSpectrum:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("coefficients"), list):
        raise ValueError('spectrum JSON must be an object with a "coefficients" list')
    coeffs = {}
    for idx, entry in enumerate(doc["coefficients"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("S"), list):
            raise ValueError(f'coefficient {idx} must be an object with an "S" list')
        coeff = entry.get("coeff")
        # A number a double holds: no booleans, NaN, infinities or huge integers.
        if type(coeff) not in (int, float) or not abs(coeff) <= sys.float_info.max:
            raise ValueError(f"coefficient {idx} must be a finite number")
        subset = tuple(sorted(json_int(i, f"coefficient {idx} variable") + 1
                              for i in entry["S"]))
        if subset in coeffs:
            raise ValueError(f"coefficient {idx} repeats the subset {entry['S']}")
        coeffs[subset] = float(coeff)
    return FourierSpectrum(n=json_int(doc.get("n"), "n"), coeffs=coeffs)


def write_truth_table_bytes(path: str | Path, values: Sequence[int]) -> None:
    """Raw byte table: one byte per value, 0 or 1, position order."""
    arr = np.asarray(values)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("byte truth tables hold 0/1 values")
    Path(path).write_bytes(arr.astype(np.uint8).tobytes())


def read_truth_table_bytes(path: str | Path) -> np.ndarray:
    arr = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    if arr.size == 0 or arr.size & (arr.size - 1):
        raise ValueError("byte truth table length must be a power of two")
    if not np.all(arr <= 1):
        raise ValueError("byte truth tables hold 0/1 values")
    return arr.astype(np.int8)


def write_truth_table_csv(path: str | Path, values: Sequence[int]) -> None:
    """CSV table of +-1 values, one row per position."""
    arr = np.asarray(values)
    if not np.all(np.abs(arr) == 1):
        raise ValueError("CSV truth tables hold +-1 values")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for v in arr:
            writer.writerow([int(v)])


def read_truth_table_csv(path: str | Path) -> np.ndarray:
    with open(path, newline="") as fh:
        try:
            values = [int(row[0]) for row in csv.reader(fh) if row]
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    if any(v not in (1, -1) for v in values):
        raise ValueError("CSV truth tables hold +-1 values")
    if not values or len(values) & (len(values) - 1):
        raise ValueError("CSV truth table length must be a power of two")
    return np.array(values, dtype=np.int8)


def binomial(n: int, k: int) -> float:
    """binom(n, k) as a float, 0 outside the valid range."""
    if k < 0 or k > n:
        return 0.0
    return float(math.comb(n, k))

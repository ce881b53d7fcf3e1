"""Boolean functions on the {-1,+1}^n cube and their exact Fourier arithmetic.

A function is represented either by a truth table (length 2^n, position b
encodes the point with x_i = -1 when bit i-1 of b is set, x_i = +1
otherwise, so position 0 is the all-ones point) or by a sparse spectrum
mapping variable subsets to real coefficients.

A spectrum stores each subset as an int bitmask (bit i-1 for x_i), the
same encoding as truth-table positions. Variable indices are 1-based
throughout the API; serialized files use 0-based indices. Sorted tuples
and file indices are made only at that edge.
"""
from __future__ import annotations

import csv
import enum
import itertools
import json
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DROP_THRESHOLD",
    "MAX_TRANSFORM_VARS",
    "MAX_FILE_VARS",
    "OutputConvention",
    "FourierSpectrum",
    "convert_spectrum",
    "fourier_from_truth_table",
    "l1_level",
    "walsh_hadamard_inplace",
    "point_from_index",
    "spectrum_to_json",
    "read_truth_table_bytes",
    "read_truth_table_csv",
]

# Coefficients from truth tables are dyadic rationals; anything smaller
# than this in magnitude is float dust from the transform.
DROP_THRESHOLD = 1e-12

# Memory guard: a dense transform needs 2^n doubles.
MAX_TRANSFORM_VARS = 24

# Highest variable count a tree file may declare: sparse_fourier builds a
# bitmask of i bits for each variable i a tree queries.
MAX_FILE_VARS = 1 << 16


class OutputConvention(enum.Enum):
    """Output range of a Boolean function: {-1,+1} or {0,1}.

    The two are related by v = 2b - 1 (bit 1 maps to +1), which scales
    every non-empty coefficient by exactly 2 and sends the empty
    coefficient through the same affine map; `convert_spectrum` applies it.
    """

    PLUS_MINUS_ONE = "pm1"
    ZERO_ONE = "01"


@dataclass(frozen=True)
class FourierSpectrum:
    """Sparse multilinear expansion: subset of [n] -> real coefficient.

    `masks` maps each subset, as an int with bit i-1 set for x_i, to its
    coefficient; absent keys mean zero and 0 keys the constant term.
    `coeffs` and `coefficient` speak in sorted 1-based tuples.
    """

    n: int
    masks: Mapping[int, float] = field(default_factory=dict)
    # Bit length of the widest mask, so lookups never build a wider one.
    _width: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        if not self.masks:
            return
        if set(map(type, self.masks)) != {int}:
            raise ValueError("subset masks must be integers")
        if min(self.masks) < 0:
            raise ValueError("subset masks must be nonnegative")
        # bit_length, not a comparison with 1 << n: n may be astronomically large.
        width = max(self.masks).bit_length()
        if width > self.n:
            raise ValueError(f"subset with variable {width} out of range for n={self.n}")
        object.__setattr__(self, "_width", width)

    @classmethod
    def _trusted(cls, n: int, masks: dict[int, float], width: int) -> FourierSpectrum:
        """A spectrum whose keys are valid by construction, without the key
        checks: only for the masks of this package's own Fourier merge and
        of convert_spectrum, given with the bit length of the widest one.
        The masks are read-only, so no key can be added after the fact."""
        spec = object.__new__(cls)
        for name, value in (("n", n), ("masks", MappingProxyType(masks)), ("_width", width)):
            object.__setattr__(spec, name, value)
        return spec

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], float]:
        """Read-only view keyed by sorted tuples of 1-based variables."""
        return _SubsetView(self)

    def coefficient(self, subset: Iterable[int]) -> float:
        """Coefficient of a set of 1-based variables, in any order; a
        repeated variable or one outside [1, n] raises ValueError."""
        variables = [operator.index(i) for i in subset]
        if len(set(variables)) < len(variables):
            raise ValueError(f"subset {variables} repeats a variable")
        for i in variables:
            if not 1 <= i <= self.n:
                raise ValueError(f"variable {i} outside [1, {self.n}]")
        if variables and max(variables) > self._width:
            return 0.0  # beyond every key; its mask may be huge
        return self.masks.get(sum(1 << (i - 1) for i in variables), 0.0)


class _SubsetView(Mapping):
    """A spectrum's coefficients under sorted 1-based tuple keys."""

    def __init__(self, spec: FourierSpectrum):
        self._spec = spec

    def __getitem__(self, subset: tuple[int, ...]) -> float:
        # Only keys iteration can yield; anything else is absent, not an error.
        width = self._spec._width
        if (type(subset) is not tuple
                or not all(type(i) is int and 1 <= i <= width for i in subset)
                or not all(a < b for a, b in zip(subset, subset[1:]))):
            raise KeyError(subset)
        try:
            return self._spec.masks[sum(1 << (i - 1) for i in subset)]
        except KeyError:
            raise KeyError(subset) from None

    def __iter__(self):
        return map(_mask_subset, self._spec.masks)

    def __len__(self) -> int:
        return len(self._spec.masks)


def convert_spectrum(spec: FourierSpectrum, target: OutputConvention) -> FourierSpectrum:
    """`spec`, given in the other convention, in `target`: +-1 doubles every
    coefficient and sends the empty-set one c to 2c - 1, {0,1} halves them and
    sends c to (c + 1)/2, exactly on dyadic values. An empty-set 0 is dropped."""
    scale = 2.0 if target == OutputConvention.PLUS_MINUS_ONE else 0.5
    masks = {mask: scale * c for mask, c in spec.masks.items()}
    masks[0] = scale * spec.masks.get(0, 0.0) + (1.0 - scale)
    if not masks[0]:
        del masks[0]
    # The keys of a checked spectrum, and 0: its widest key is still the widest.
    return FourierSpectrum._trusted(spec.n, masks, spec._width)


def _mask_subset(mask: int) -> tuple[int, ...]:
    """The 1-based variables whose bits are set in mask, increasing."""
    subset = []
    while mask:
        low = mask & -mask
        subset.append(low.bit_length())
        mask ^= low
    return tuple(subset)


def point_from_index(b: int | np.ndarray, n: int) -> np.ndarray:
    """The +-1 point (int8) at truth-table position b: x_i = -1 exactly
    when bit i-1 of b is set. An array of positions gives one point per
    position, along a new last axis."""
    b = np.asarray(b)
    point = np.empty(b.shape + (n,), dtype=np.int8)
    for i in range(n):
        point[..., i] = 1 - 2 * ((b >> i) & 1)
    return point


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
    # Table positions are the subset masks.
    nonzero = np.flatnonzero(np.abs(table) > DROP_THRESHOLD)
    return FourierSpectrum(n=n, masks=dict(zip(nonzero.tolist(), table[nonzero].tolist())))


def l1_level(spec: FourierSpectrum, ell: int) -> float:
    """Sum of |coefficient| over subsets of size exactly ell."""
    if not (0 <= ell <= spec.n):
        raise ValueError(f"level {ell} out of range for n={spec.n}")
    return float(sum(abs(c) for mask, c in spec.masks.items() if mask.bit_count() == ell))


# ---------------------------------------------------------------------------
# Serialization. File formats use 0-based variable indices.
# ---------------------------------------------------------------------------

# Masks become bytes, and entries text, this many at a time.
_SLICE = 1024


def _bit_rows(masks: list[int], dtype) -> tuple[np.ndarray, int]:
    """Row j holds 1 + the position of each set bit of masks[j], increasing,
    then at least one zero; also the union of the masks."""
    blocks, union = [], 0
    for start in range(0, len(masks), _SLICE):
        chunk = masks[start:start + _SLICE]
        per_mask = max(chunk).bit_length() // 64 + 1
        words = np.frombuffer(b"".join([m.to_bytes(8 * per_mask, "little") for m in chunk]), np.uint64)
        union |= int.from_bytes(np.bitwise_or.reduce(words.reshape(-1, per_mask)).tobytes(), "little")
        nonzero = np.flatnonzero(words != 0)
        bits = np.flatnonzero(np.unpackbits(words[nonzero].view(np.uint8), bitorder="little").view(bool))
        row, word = np.divmod(nonzero[bits >> 6], per_mask)
        column = np.arange(row.size) - np.searchsorted(row, row)
        blocks.append(np.zeros((len(chunk), column.max(initial=-1) + 2), dtype))
        blocks[-1][row, column] = word * 64 + (bits & 63) + 1
    width = max(block.shape[1] for block in blocks)
    return np.concatenate([np.pad(block, ((0, 0), (0, width - block.shape[1]))) for block in blocks]), union


def spectrum_to_json(spec: FourierSpectrum) -> str:
    """The text json.dumps(..., sort_keys=True) gives for {"n": n,
    "coefficients": [{"S": [0-based...], "coeff": c}, ...]}, entries in
    the order of their sorted 1-based tuples."""
    masks, width = list(spec.masks), spec._width
    if not masks:
        return f'{{"coefficients": [], "n": {json.dumps(spec.n)}}}'
    rows, union = _bit_rows(masks, np.min_scalar_type(width))
    # A row sorts before the longer rows it is a prefix of: sorted-tuple order.
    order = np.lexsort(rows.T[::-1])
    values = list(spec.masks.values())
    number = np.arange(len(masks))
    if set(map(type, values)) == {float}:  # one text per distinct bit pattern
        keys, number = np.unique(np.array(values).view(np.uint64), return_inverse=True)
        values = keys.view(np.float64).tolist()
    # Token p + 1 is ", p", and p + 1 + width is "p" first in an S list; token
    # -1 - i closes an entry with the i-th number and opens the next.
    present = _bit_rows([union], np.intp)[0][0, :-1].tolist()
    tokens = {**{p: f", {p - 1}" for p in present}, **{p + width: str(p - 1) for p in present}}
    tokens.update(zip(itertools.count(-1, -1), map(
        '], "coeff": {}}}, {{"S": ['.format, json.dumps(values)[1:-1].split(", "))))
    parts = ['{"coefficients": [{"S": [']
    for start in range(0, len(masks), _SLICE):
        block = rows[order[start:start + _SLICE]].astype(np.intp)
        ends = np.count_nonzero(block, axis=1)
        block[:, 0] += width
        block[np.arange(len(block)), ends] = -1 - number[order[start:start + _SLICE]]
        parts.append("".join(map(tokens.__getitem__, block[block != 0].tolist())))
    parts[-1] = parts[-1].removesuffix(', {"S": [') + f'], "n": {json.dumps(spec.n)}}}'
    return "".join(parts)


def read_truth_table_bytes(path: str | Path) -> np.ndarray:
    arr = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    if arr.size == 0 or arr.size & (arr.size - 1):
        raise ValueError("byte truth table length must be a power of two")
    if not np.all(arr <= 1):
        raise ValueError("byte truth tables hold 0/1 values")
    return arr.astype(np.int8)


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

"""The benchmark's own inputs and reference computations.

Nothing here imports rorrlab: inputs are generated and outputs are
checked by code written apart from the program, so a change to one of
the program's samplers or formats cannot change the benchmark's inputs
or fool its checks. File layouts follow the program's documented
formats (README, "Conventions and file formats").
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MATRIX_MAGIC = b"RORU"
INSTANCE_MAGIC = b"RORI"


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Independent stream per (seed, tags)."""
    return np.random.default_rng([seed, *tags])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar orthogonal matrix: QR of a Gaussian matrix with the signs of
    R's diagonal moved into Q, which makes Q exactly Haar distributed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diagonal(r)).copy()
    signs[signs == 0] = 1.0
    return q * signs


def write_matrix(path: str | Path, entries: np.ndarray, seed: int) -> None:
    """RORU file: magic, n and seed as little-endian u64, row-major f64."""
    n = entries.shape[0]
    header = MATRIX_MAGIC + struct.pack("<QQ", n, seed)
    Path(path).write_bytes(header + np.ascontiguousarray(entries, dtype="<f8").tobytes())


def read_matrix(path: str | Path) -> tuple[int, np.ndarray]:
    """(seed, entries) of a RORU file."""
    blob = Path(path).read_bytes()
    if blob[:4] != MATRIX_MAGIC or len(blob) < 20:
        raise ValueError(f"{path}: not a matrix file")
    n, seed = struct.unpack("<QQ", blob[4:20])
    if len(blob) != 20 + 8 * n * n:
        raise ValueError(f"{path}: wrong payload size")
    return seed, np.frombuffer(blob, dtype="<f8", offset=20).reshape(n, n)


def read_instances(path: str | Path) -> np.ndarray:
    """Sign array (count, k, N) of a RORI file."""
    blob = Path(path).read_bytes()
    if blob[:4] != INSTANCE_MAGIC or len(blob) < 16:
        raise ValueError(f"{path}: not an instance file")
    k, n, hash_len, path_len = struct.unpack("<IIHH", blob[4:16])
    pos = 16 + hash_len + path_len
    (count,) = struct.unpack("<I", blob[pos:pos + 4])
    pos += 4
    if len(blob) != pos + count * k * n:
        raise ValueError(f"{path}: wrong payload size")
    raw = np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(count, k, n)
    return raw.astype(np.int8) * 2 - 1


def complete_tree(n: int, depth: int, rng: np.random.Generator) -> dict:
    """Complete tree of the given depth as a JSON arena: every internal
    node queries a variable not queried above it, every leaf holds a
    uniform bit. Variables are 0-based in the arena."""
    nodes: list[dict] = []

    def build(level: int, used: list[int]) -> int:
        here = len(nodes)
        if level == depth:
            nodes.append({"q": None, "lo": None, "hi": None, "out": int(rng.integers(0, 2))})
            return here
        free = [v for v in range(n) if v not in used]
        var = free[int(rng.integers(0, len(free)))]
        nodes.append({})
        lo = build(level + 1, used + [var])
        hi = build(level + 1, used + [var])
        nodes[here] = {"q": var, "lo": lo, "hi": hi, "out": None}
        return here

    build(0, [])
    return {"n": n, "root": 0, "nodes": nodes}


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def tree_table(arena: dict) -> np.ndarray:
    """Leaf bit at each of the 2^n points, walking all points at once.

    Position b is the point with x_i = -1 exactly when bit i of b is set
    (0-based i); the walk takes `lo` on -1 and `hi` on +1.
    """
    n = arena["n"]
    nodes = arena["nodes"]
    query = np.array([-1 if v["q"] is None else v["q"] for v in nodes])
    lo = np.array([0 if v["lo"] is None else v["lo"] for v in nodes])
    hi = np.array([0 if v["hi"] is None else v["hi"] for v in nodes])
    out = np.array([0 if v["out"] is None else v["out"] for v in nodes])
    points = np.arange(1 << n)
    at = np.full(points.size, arena["root"])
    while True:
        inner = query[at] >= 0
        if not inner.any():
            return out[at]
        minus = (points >> np.maximum(query[at], 0)) & 1
        step = np.where(minus == 1, lo[at], hi[at])
        at = np.where(inner, step, at)


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised transform: out[S] = sum_b values[b] (-1)^popcount(b & S)."""
    out = np.asarray(values, dtype=float).copy()
    n = out.size.bit_length() - 1
    if out.size != 1 << n:
        raise ValueError("length must be a power of two")
    for i in range(n):
        view = out.reshape(-1, 2, 1 << i)
        a = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        view[:, 1, :] = a - view[:, 1, :]
    return out


def fourier_coefficients(table: np.ndarray) -> dict[int, float]:
    """Nonzero coefficients keyed by subset bitmask (bit i = variable i, 0-based)."""
    coeffs = walsh_hadamard(table) / table.size
    return {int(mask): float(coeffs[mask]) for mask in np.flatnonzero(coeffs)}


def phi_chain(u: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """phi of each instance, shape (m, k, N) -> (m,): chained mat-vecs
    z1 . U (z2 * U (... U zk)) / N."""
    k = batch.shape[1]
    w = batch[:, k - 1, :].astype(float)
    for j in range(k - 2, -1, -1):
        w = batch[:, j, :] * (w @ u.T)
    return w.sum(axis=1) / u.shape[0]


def expected_chain_phi(u: np.ndarray, k: int) -> float:
    """(1/N) 1^T M^(k-1) 1 with M_ij = U_ij (2/pi) arcsin(U_ij)."""
    m = u * (2.0 / math.pi) * np.arcsin(u)
    v = np.ones(u.shape[0])
    for _ in range(k - 1):
        v = m @ v
    return float(v.sum()) / u.shape[0]


def arcsine_law(rho: float) -> float:
    """E[sgn X sgn Y] for standard Gaussians with correlation rho."""
    return 2.0 / math.pi * math.asin(rho)


def gaussian_tail(t: float) -> float:
    """P[Z >= t] for a standard Gaussian Z."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def goodness_bound(s_size: int, t_size: int, n: int) -> float:
    return math.sqrt(100.0 * (s_size + t_size) * math.log(n) / n)


def moment_bound(ell: int, n: int, k: int) -> float:
    return (100.0 * ell * math.log(n) / n) ** (ell * (1.0 - 1.0 / k) / 2.0)


def advantage_bound(d: int, k: int, n: int) -> float:
    """(d ln(kN))^((3k-1)/4) / N^((k-1)/2)."""
    return (d * math.log(k * n)) ** ((3 * k - 1) / 4.0) / n ** ((k - 1) / 2.0)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)

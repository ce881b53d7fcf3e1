"""Haar-random orthogonal matrices, sub-matrix spectral norms, and the
goodness property (every |S| x |T| block has norm at most
sqrt(100 (|S|+|T|) ln N / N)).

Exhaustive certification is impossible (exponentially many blocks), so
goodness is checked exhaustively over tiny index sets and statistically
over random larger ones.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .util import derive_rng

__all__ = [
    "OrthogonalMatrix",
    "GoodnessReport",
    "TailCheckReport",
    "sample_haar",
    "haar_corner_samples",
    "submatrix",
    "submatrix_norm",
    "spectral_norm",
    "power_iteration_norm",
    "goodness_bound",
    "check_goodness",
    "hadamard_entry",
    "hadamard_implicit_block",
    "hadamard_counterexample",
    "bilinear_tail_check",
    "save_matrix",
    "load_matrix",
    "save_matrix_csv",
    "file_sha256",
]

ORTHOGONALITY_TOL = 1e-10

# Dense SVD below this side length; certified power iteration above.
SVD_SIZE_LIMIT = 512

MATRIX_MAGIC = b"RORU"


@dataclass(frozen=True)
class OrthogonalMatrix:
    """Dense N x N real orthogonal matrix with provenance seed."""

    n: int
    entries: np.ndarray = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if self.entries.shape != (self.n, self.n):
            raise ValueError("entry block must be n x n")
        err = self.orthogonality_error()
        # Written so that a NaN error (non-finite entries) fails too.
        if not err <= ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal: max |U^T U - I| = {err:.3e}")

    def orthogonality_error(self) -> float:
        # Huge or non-finite entries give inf or NaN here, without warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.entries.T @ self.entries
            return float(np.max(np.abs(gram - np.eye(self.n))))


def _qr_haar(gaussians: np.ndarray) -> np.ndarray:
    """QR of iid standard Gaussians with the R-diagonal sign correction,
    which makes the Q factor exactly Haar distributed. Works on stacked
    (..., n, n) inputs.
    """
    q, r = np.linalg.qr(gaussians)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * np.sign(diag)[..., None, :]


def sample_haar(n: int, seed: int) -> OrthogonalMatrix:
    """Haar-distributed orthogonal matrix, deterministic per seed."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = derive_rng(seed, "haar", n)
    q = _qr_haar(rng.standard_normal((n, n)))
    return OrthogonalMatrix(n=n, entries=q, seed=seed)


def haar_corner_samples(n: int, count: int, seed: int) -> np.ndarray:
    """U_11 across `count` independent Haar samples.

    The sign-corrected QR factor satisfies Q e_1 = a_1 / ||a_1|| exactly
    (a_1 the first Gaussian column), so the corner entry is sampled
    without running the factorization. test_ortho pins this identity
    against the full sampler.
    """
    rng = derive_rng(seed, "haar-corner", n, count)
    g = rng.standard_normal((count, n))
    return g[:, 0] / np.linalg.norm(g, axis=1)


def submatrix(u: OrthogonalMatrix, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Block with the given 1-based row and column index sets."""
    r = np.asarray(sorted(set(rows)), dtype=int) - 1
    c = np.asarray(sorted(set(cols)), dtype=int) - 1
    if r.size == 0 or c.size == 0:
        raise ValueError("row and column sets must be non-empty")
    if r.min() < 0 or r.max() >= u.n or c.min() < 0 or c.max() >= u.n:
        raise ValueError("index out of range")
    return u.entries[np.ix_(r, c)]


def spectral_norm(block: np.ndarray) -> float:
    """Largest singular value; dense SVD for small blocks, else certified
    power iteration."""
    if min(block.shape) == 0:
        return 0.0
    if max(block.shape) <= SVD_SIZE_LIMIT:
        return float(np.linalg.svd(block, compute_uv=False)[0])
    return power_iteration_norm(block)


def power_iteration_norm(
    block: np.ndarray, rel_tol: float = 1e-12, max_iter: int = 10_000
) -> float:
    """Power iteration on B^T B with a Rayleigh-quotient residual check."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(block.shape[1])
    v /= np.linalg.norm(v)
    sigma2 = 0.0
    for _ in range(max_iter):
        w = block.T @ (block @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v_next = w / norm_w
        sigma2_next = float(v_next @ (block.T @ (block @ v_next)))
        if abs(sigma2_next - sigma2) <= rel_tol * max(sigma2_next, 1e-300):
            residual = np.linalg.norm(block.T @ (block @ v_next) - sigma2_next * v_next)
            if residual <= 1e-9 * max(sigma2_next, 1e-300) + 1e-15:
                return float(np.sqrt(sigma2_next))
        v, sigma2 = v_next, sigma2_next
    return float(np.sqrt(sigma2))


def submatrix_norm(u: OrthogonalMatrix, rows: Sequence[int], cols: Sequence[int]) -> float:
    return spectral_norm(submatrix(u, rows, cols))


def goodness_bound(s_size: int, t_size: int, n: int) -> float:
    """Norm budget for an s x t block of a good N x N orthogonal matrix."""
    return float(np.sqrt(100.0 * (s_size + t_size) * np.log(n) / n))


@dataclass
class GoodnessReport:
    n: int
    checked_pairs: int
    worst_ratio: float
    worst_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    violations: list[dict]
    violation_count: int

    @property
    def is_good_so_far(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "checked_pairs": self.checked_pairs,
                "worst_ratio": self.worst_ratio,
                "worst_pair": [list(p) for p in self.worst_pair] if self.worst_pair else None,
                "violations": self.violations,
                "violation_count": self.violation_count,
                "good_so_far": self.is_good_so_far,
            },
            sort_keys=True,
        )


MAX_STORED_VIOLATIONS = 50


class _GoodnessAccumulator:
    def __init__(self, n: int):
        self.n = n
        self.checked = 0
        self.worst_ratio = 0.0
        self.worst_pair = None
        self.violations: list[dict] = []
        self.violation_count = 0

    def record(self, rows, cols, norm: float, bound: float) -> None:
        over = [(rows, cols, norm, bound)] if norm > bound else []
        self.record_bulk(1, norm / bound, (tuple(rows), tuple(cols)), over)

    def record_bulk(self, count: int, max_ratio: float, max_pair, over: list) -> None:
        """Vectorized passes report only their max ratio and violations."""
        self.checked += count
        if max_ratio > self.worst_ratio:
            self.worst_ratio = max_ratio
            self.worst_pair = max_pair
        for rows, cols, norm, bound in over:
            self.violation_count += 1
            if len(self.violations) < MAX_STORED_VIOLATIONS:
                self.violations.append(
                    {"S": list(rows), "T": list(cols), "norm": norm, "bound": bound}
                )

    def report(self) -> GoodnessReport:
        return GoodnessReport(
            n=self.n,
            checked_pairs=self.checked,
            worst_ratio=self.worst_ratio,
            worst_pair=self.worst_pair,
            violations=self.violations,
            violation_count=self.violation_count,
        )


def _check_singletons(u: OrthogonalMatrix, acc: _GoodnessAccumulator) -> None:
    bound = goodness_bound(1, 1, u.n)
    mags = np.abs(u.entries)
    i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
    over_idx = np.argwhere(mags > bound)
    over = [
        ((int(a) + 1,), (int(b) + 1,), float(mags[a, b]), bound) for a, b in over_idx
    ]
    acc.record_bulk(
        mags.size,
        float(mags[i, j]) / bound,
        ((int(i) + 1,), (int(j) + 1,)),
        over,
    )


def _two_by_two_norms(a, b, c, d):
    """Spectral norms of [[a, b], [c, d]] blocks, elementwise over arrays."""
    fro2 = a * a + b * b + c * c + d * d
    det = a * d - b * c
    gap = np.sqrt(np.maximum(fro2 * fro2 - 4.0 * det * det, 0.0))
    return np.sqrt(0.5 * (fro2 + gap))


def _check_small_blocks(u: OrthogonalMatrix, acc: _GoodnessAccumulator) -> None:
    """All (S, T) with |S|, |T| <= 2, vectorized; only feasible for n <= 64."""
    n = u.n
    ent = u.entries
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=int)

    # 1 x 2 and 2 x 1 blocks: norm is the Euclidean norm of the two entries.
    bound_12 = goodness_bound(1, 2, n)
    for transpose in (False, True):
        m = ent.T if transpose else ent
        norms = np.sqrt(m[:, pairs[:, 0]] ** 2 + m[:, pairs[:, 1]] ** 2)
        r, p = np.unravel_index(int(np.argmax(norms)), norms.shape)
        best = float(norms[r, p])
        rows = (int(r) + 1,)
        cols = (int(pairs[p, 0]) + 1, int(pairs[p, 1]) + 1)
        if transpose:
            rows, cols = cols, rows
        over_idx = np.argwhere(norms > bound_12)
        over = []
        for a, b in over_idx:
            rr = (int(a) + 1,)
            cc = (int(pairs[b, 0]) + 1, int(pairs[b, 1]) + 1)
            if transpose:
                rr, cc = cc, rr
            over.append((rr, cc, float(norms[a, b]), bound_12))
        acc.record_bulk(norms.size, best / bound_12, (rows, cols), over)

    # 2 x 2 blocks, chunked over row pairs to bound memory.
    bound_22 = goodness_bound(2, 2, n)
    ci, cj = pairs[:, 0], pairs[:, 1]
    chunk = 256
    for start in range(0, len(pairs), chunk):
        rp = pairs[start : start + chunk]
        a = ent[rp[:, 0]][:, ci]
        b = ent[rp[:, 0]][:, cj]
        c = ent[rp[:, 1]][:, ci]
        d = ent[rp[:, 1]][:, cj]
        norms = _two_by_two_norms(a, b, c, d)
        r, p = np.unravel_index(int(np.argmax(norms)), norms.shape)
        rows = (int(rp[r, 0]) + 1, int(rp[r, 1]) + 1)
        cols = (int(ci[p]) + 1, int(cj[p]) + 1)
        over_idx = np.argwhere(norms > bound_22)
        over = [
            (
                (int(rp[x, 0]) + 1, int(rp[x, 1]) + 1),
                (int(ci[y]) + 1, int(cj[y]) + 1),
                float(norms[x, y]),
                bound_22,
            )
            for x, y in over_idx
        ]
        acc.record_bulk(norms.size, float(norms[r, p]) / bound_22, (rows, cols), over)


def check_goodness(
    u: OrthogonalMatrix,
    sampled_pairs: int = 10_000,
    max_block: int = 8,
    seed: int = 0,
) -> GoodnessReport:
    """Statistical goodness certificate.

    Checks all singleton pairs, all pairs with |S|, |T| <= 2 when
    n <= 64, and `sampled_pairs` uniformly random (S, T) with sizes up
    to max_block.
    """
    if u.n < 2:
        raise ValueError("goodness needs n >= 2")
    acc = _GoodnessAccumulator(u.n)
    _check_singletons(u, acc)
    if u.n <= 64:
        _check_small_blocks(u, acc)
    rng = derive_rng(seed, "goodness", u.n, sampled_pairs, max_block)
    cap = min(max_block, u.n)
    for _ in range(sampled_pairs):
        s_size = int(rng.integers(1, cap + 1))
        t_size = int(rng.integers(1, cap + 1))
        rows = np.sort(rng.choice(u.n, size=s_size, replace=False)) + 1
        cols = np.sort(rng.choice(u.n, size=t_size, replace=False)) + 1
        block = u.entries[np.ix_(rows - 1, cols - 1)]
        norm = spectral_norm(block)
        acc.record(tuple(int(r) for r in rows), tuple(int(c) for c in cols),
                   norm, goodness_bound(s_size, t_size, u.n))
    return acc.report()


# ---------------------------------------------------------------------------
# Hadamard counterexample (implicit; H is never materialized at scale)
# ---------------------------------------------------------------------------

def hadamard_entry(i: int, j: int, log2n: int) -> float:
    """Entry (i, j) of the normalized N x N Hadamard matrix, N = 2^log2n."""
    return ((-1) ** bin(i & j).count("1")) / float(np.sqrt(2.0**log2n))


def hadamard_implicit_block(log2n: int) -> np.ndarray:
    """The sqrt(N) x sqrt(N) all-equal block: rows with index bits in the
    low half, columns with index bits in the high half (materialized,
    so small log2n only)."""
    if log2n % 2 != 0:
        raise ValueError("log2n must be even")
    if log2n > 20:
        raise ValueError("block materialization limited to log2n <= 20")
    half = 1 << (log2n // 2)
    rows = np.arange(half)
    cols = np.arange(half) * half
    return np.array([[hadamard_entry(i, j, log2n) for j in cols] for i in rows])


def hadamard_counterexample(log2n: int) -> tuple[float, float]:
    """(norm, bound) for the implicit all-ones block of the Hadamard matrix.

    The block is constant 1/sqrt(N) on sqrt(N) x sqrt(N) indices, so its
    spectral norm is exactly 1; the goodness budget for that shape is
    sqrt(100 * 2 sqrt(N) * ln N / N), which drops below 1 for
    log2n >= 26.
    """
    if log2n % 2 != 0:
        raise ValueError("log2n must be even")
    if log2n > 40:
        raise ValueError("log2n limited to 40")
    n = 2.0**log2n
    half = 2.0 ** (log2n // 2)
    bound = float(np.sqrt(100.0 * (half + half) * np.log(n) / n))
    return 1.0, bound


# ---------------------------------------------------------------------------
# Bilinear tail check (Haar concentration of x^T U y for fixed unit x, y)
# ---------------------------------------------------------------------------

@dataclass
class TailCheckReport:
    n: int
    trials: int
    rows: list[dict]  # t, frequency, stderr, subgaussian_bound, gaussian_tail

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "trials": self.trials, "rows": self.rows},
                          sort_keys=True)


def bilinear_tail_check(
    n: int, trials: int, seed: int, thresholds: Sequence[float] = (1.0, 2.0, 3.0)
) -> TailCheckReport:
    """Exceedance frequencies of e_1^T U e_1 >= t / sqrt(n) over fresh Haar
    samples, against the sub-Gaussian budget 2 e^{-t^2/8} and the
    Gaussian-limit tail."""
    samples = haar_corner_samples(n, trials, seed)
    rows = []
    for t in thresholds:
        freq = float(np.mean(samples >= t / np.sqrt(n)))
        stderr = float(np.sqrt(max(freq * (1.0 - freq), 1e-12) / trials))
        rows.append(
            {
                "t": float(t),
                "frequency": freq,
                "stderr": stderr,
                "subgaussian_bound": float(2.0 * np.exp(-(t**2) / 8.0)),
                "gaussian_tail": 0.5 * math.erfc(t / math.sqrt(2.0)),
            }
        )
    return TailCheckReport(n=n, trials=trials, rows=rows)


# ---------------------------------------------------------------------------
# Matrix files: magic | n u64 | seed u64 | row-major little-endian f64
# ---------------------------------------------------------------------------

def save_matrix(path: str | Path, u: OrthogonalMatrix) -> str:
    """Write the binary matrix file; returns its sha256 hex digest."""
    seed = u.seed if u.seed is not None else 0
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} does not fit the unsigned 64-bit header field")
    payload = u.entries.astype("<f8").tobytes()
    header = MATRIX_MAGIC + struct.pack("<QQ", u.n, seed)
    Path(path).write_bytes(header + payload)
    return file_sha256(path)


def load_matrix(path: str | Path) -> OrthogonalMatrix:
    blob = Path(path).read_bytes()
    if blob[:4] != MATRIX_MAGIC:
        raise ValueError(f"{path}: not a matrix file (bad magic)")
    if len(blob) < 20:
        raise ValueError(f"{path}: truncated header")
    n, seed = struct.unpack("<QQ", blob[4:20])
    if len(blob) != 20 + 8 * n * n:
        raise ValueError(f"{path}: truncated or oversized payload")
    entries = np.frombuffer(blob[20:], dtype="<f8").reshape(n, n).copy()
    # The constructor checks the shape and orthogonality; corrupt files fail there.
    return OrthogonalMatrix(n=int(n), entries=entries, seed=int(seed))


def save_matrix_csv(path: str | Path, u: OrthogonalMatrix) -> None:
    np.savetxt(path, u.entries, delimiter=",", fmt="%.17g")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()

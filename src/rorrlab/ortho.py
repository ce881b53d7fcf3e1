"""Haar-random orthogonal matrices, sub-matrix spectral norms, and the
goodness property (every |S| x |T| block has norm at most
sqrt(100 (|S|+|T|) ln N / N)).

Exhaustive certification is impossible (exponentially many blocks), so
goodness is checked exhaustively over tiny index sets and statistically
over random larger ones.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import lapack_lite

from .util import atomic_write, chunk_spans, derive_rng, file_set

__all__ = [
    "OrthogonalMatrix",
    "GoodnessReport",
    "identity",
    "sample_haar",
    "haar_corner_samples",
    "spectral_norm",
    "goodness_bound",
    "check_goodness",
    "hadamard_counterexample",
    "bilinear_tail_check",
    "save_matrix",
    "load_matrix",
    "save_matrix_csv",
    "matrix_sha256",
]

ORTHOGONALITY_TOL = 1e-10

# Columns per panel of the Gram check: at N = 4096, 128-column panels were
# slower, and at N <= 256 the check is one SYRK.
GRAM_PANEL = 256

# Tile side of the in-place transposes around the Haar QR: one tile
# (512 KB) is the transpose's only temporary.
TRANSPOSE_TILE = 256

# Largest entry payload (8 n^2 bytes) that `rorrlab sample-matrix` will
# allocate: n <= 11,585, against the 2,048 that any run of the lab uses.
MAX_MATRIX_BYTES = 1 << 30

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
        """max |U^T U - I|, in panels of GRAM_PANEL columns: one SYRK of each
        panel with itself, then one GEMM of the panel with every column to
        its right, so no temporary is N x N."""
        a = self.entries
        maxima = []
        # Huge or non-finite entries give inf or NaN here, without warnings;
        # np.max over the block maxima keeps a NaN, where max() would not.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, self.n, GRAM_PANEL):
                stop = min(start + GRAM_PANEL, self.n)
                panel = a[:, start:stop]
                gram = panel.T @ panel
                gram.flat[:: stop - start + 1] -= 1.0
                maxima.append(_abs_max(gram))
                if stop < self.n:
                    maxima.append(_abs_max(panel.T @ a[:, stop:]))
            return float(np.max(maxima))

    @classmethod
    def _trusted(cls, n: int, entries: np.ndarray, seed: int | None = None) -> OrthogonalMatrix:
        """A matrix that is orthogonal by construction, without the N^3 Gram
        check: only for n x n entries the package made itself (a Householder
        Q factor, whose max |U^T U - I| is O(n eps); the identity). Files and
        every public construction go through the checks."""
        u = object.__new__(cls)
        for name, value in (("n", n), ("entries", entries), ("seed", seed)):
            object.__setattr__(u, name, value)
        return u


def identity(n: int) -> OrthogonalMatrix:
    """The n x n identity as a read-only strided view of one buffer of
    2n - 1 entries, zero but for its middle 1: entry (i, j) is at offset
    n - 1 - i + j, so 8 (2n - 1) bytes stand for 8 n^2."""
    if n < 1:
        raise ValueError("dimension must be positive")
    line = np.zeros(2 * n - 1)
    line[n - 1] = 1.0
    step = line.itemsize
    entries = np.lib.stride_tricks.as_strided(line[n - 1 :], (n, n), (-step, step),
                                              writeable=False)
    return OrthogonalMatrix._trusted(n, entries)


def _abs_max(block: np.ndarray) -> np.floating:
    """max |block|, taken in place, so the block is the one temporary."""
    return np.max(np.abs(block, out=block))


def _transpose_in_place(a: np.ndarray) -> None:
    """a <- a.T for a square C-ordered a, one pair of TRANSPOSE_TILE tiles
    at a time, so the one temporary is a tile."""
    n = len(a)
    tile = np.empty((min(TRANSPOSE_TILE, n),) * 2)
    for i0 in range(0, n, TRANSPOSE_TILE):
        i1 = min(i0 + TRANSPOSE_TILE, n)
        for j0 in range(i0, n, TRANSPOSE_TILE):
            j1 = min(j0 + TRANSPOSE_TILE, n)
            swap = tile[: j1 - j0, : i1 - i0]
            np.copyto(swap, a[i0:i1, j0:j1].T)
            if j0 > i0:
                a[i0:i1, j0:j1] = a[j0:j1, i0:i1].T
            a[j0:j1, i0:i1] = swap


def _lapack(routine: str, *args) -> None:
    """numpy's lapack_lite `routine` on args (every argument before work,
    lwork and info), with the workspace its own lwork = -1 query asks for."""
    call = getattr(lapack_lite, routine)

    def run(work: np.ndarray, lwork: int) -> None:
        info = call(*args, work, lwork, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"{routine} failed with info = {info}")

    query = np.empty(1)
    run(query, -1)
    lwork = max(1, int(query[0]))
    run(np.empty(lwork), lwork)


def _qr_haar(gaussians: np.ndarray) -> np.ndarray:
    """QR of an n x n C-ordered block of iid standard Gaussians with the
    R-diagonal sign correction, which makes the Q factor exactly Haar
    distributed (Mezzadri 2007), computed in the block's own buffer.

    Transposed in place, the buffer holds the block column-major, which
    dgeqrf overwrites with R and the reflectors and dorgqr with Q: the
    calls behind np.linalg.qr, with the same workspaces, so Q has its bits
    (tests/reference.py) without its copies of the block, Q and R.
    """
    n = len(gaussians)
    _transpose_in_place(gaussians)
    tau = np.empty(n)
    _lapack("dgeqrf", n, n, gaussians, n, tau)
    diag = gaussians.diagonal().copy()
    _lapack("dorgqr", n, n, n, gaussians, n, tau)
    _transpose_in_place(gaussians)
    diag[diag == 0] = 1.0
    gaussians *= np.sign(diag)
    return gaussians


def sample_haar(n: int, seed: int) -> OrthogonalMatrix:
    """Haar-distributed orthogonal matrix, deterministic per seed."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = derive_rng(seed, "haar", n)
    # Householder QR makes Q orthogonal to O(n eps); test_ortho holds every
    # size the lab uses to the full check.
    return OrthogonalMatrix._trusted(n, _qr_haar(rng.standard_normal((n, n))), seed)


def haar_corner_samples(n: int, count: int, seed: int) -> np.ndarray:
    """U_11 across `count` independent Haar samples.

    The sign-corrected QR factor satisfies Q e_1 = a_1 / ||a_1|| exactly
    (a_1 the first Gaussian column), so the corner entry is sampled
    without running the factorization. test_ortho pins this identity
    against the full sampler.
    """
    rng = derive_rng(seed, "haar-corner", n, count)
    corners = np.empty(count)
    # Drawn in row chunks of about MC_CHUNK entries; each row's norm is
    # its own, so the samples do not depend on the split.
    for start, stop in chunk_spans(count, n):
        g = rng.standard_normal((stop - start, n))
        corners[start:stop] = g[:, 0] / np.linalg.norm(g, axis=1)
    return corners


def spectral_norm(blocks: np.ndarray) -> np.ndarray | float:
    """Largest singular value of a block, or of each block in a stacked
    (..., s, t) array; one dense SVD call either way."""
    return np.linalg.svd(blocks, compute_uv=False)[..., 0]


def goodness_bound(s_size: int, t_size: int, n: int) -> float:
    """Norm budget for an s x t block of a good N x N orthogonal matrix."""
    return float(np.sqrt(100.0 * (s_size + t_size) * np.log(n) / n))


MAX_STORED_VIOLATIONS = 50


@dataclass
class GoodnessReport:
    """Goodness certificate of an n x n matrix, built up by `record`."""

    n: int
    checked_pairs: int = 0
    worst_ratio: float = 0.0
    worst_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    violations: list[dict] = field(default_factory=list)
    violation_count: int = 0

    def record(self, norms: np.ndarray, bounds, pair_of) -> None:
        """Record a batch of block norms against their budgets: one scalar,
        or an array shaped like norms. pair_of maps an index of norms to
        its 1-based (S, T)."""
        self.checked_pairs += norms.size
        if np.ndim(bounds) == 0:
            # Argmax on the norms: no ratio array as large as the batch.
            best = np.unravel_index(int(np.argmax(norms)), norms.shape)
            ratio = float(norms[best]) / bounds
        else:
            ratios = norms / bounds
            best = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
            ratio = float(ratios[best])
        if ratio > self.worst_ratio:
            self.worst_ratio = ratio
            self.worst_pair = pair_of(best)
        over = np.argwhere(norms > bounds)
        self.violation_count += len(over)
        bounds = np.broadcast_to(bounds, norms.shape)
        for idx in map(tuple, over[: MAX_STORED_VIOLATIONS - len(self.violations)]):
            rows, cols = pair_of(idx)
            self.violations.append({"S": list(rows), "T": list(cols),
                                    "norm": float(norms[idx]), "bound": float(bounds[idx])})

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "checked_pairs": self.checked_pairs,
                "worst_ratio": self.worst_ratio,
                "worst_pair": [list(p) for p in self.worst_pair] if self.worst_pair else None,
                "violations": self.violations,
                "violation_count": self.violation_count,
                "good_so_far": self.violation_count == 0,
            },
            sort_keys=True,
        )


def _check_singletons(u: OrthogonalMatrix, report: GoodnessReport) -> None:
    """All 1 x 1 blocks, in row chunks of about MC_CHUNK entries; record
    keeps the first strict maximum, so the chunks change no result."""
    bound = goodness_bound(1, 1, u.n)
    for start, stop in chunk_spans(u.n, u.n):
        report.record(np.abs(u.entries[start:stop]), bound,
                      lambda ij, start=start: ((int(ij[0]) + start + 1,), (int(ij[1]) + 1,)))


def _two_by_two_norms(a, b, c, d):
    """Spectral norms of [[a, b], [c, d]] blocks, elementwise over arrays:
    sqrt((fro2 + sqrt(max(fro2^2 - 4 det^2, 0))) / 2), with fro2 the sum of
    the four squares and det = ad - bc, each operation in the order of that
    formula, in three buffers."""
    fro2 = np.multiply(a, a)
    tmp = np.multiply(b, b)
    fro2 += tmp
    fro2 += np.multiply(c, c, out=tmp)
    fro2 += np.multiply(d, d, out=tmp)
    det = np.multiply(a, d)
    det -= np.multiply(b, c, out=tmp)
    np.multiply(4.0, det, out=tmp)
    tmp *= det
    gap = np.multiply(fro2, fro2, out=det)
    gap -= tmp
    np.sqrt(np.maximum(gap, 0.0, out=gap), out=gap)
    fro2 += gap
    fro2 *= 0.5
    return np.sqrt(fro2, out=fro2)


def _check_small_blocks(u: OrthogonalMatrix, report: GoodnessReport) -> None:
    """All (S, T) with |S|, |T| <= 2, vectorized; only feasible for n <= 64."""
    n = u.n
    ent = u.entries
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=int)
    ci, cj = pairs[:, 0], pairs[:, 1]

    def pair(p):
        return int(ci[p]) + 1, int(cj[p]) + 1

    # 1 x 2 and 2 x 1 blocks: norm is the Euclidean norm of the two entries.
    bound_12 = goodness_bound(1, 2, n)
    report.record(np.sqrt(ent[:, ci] ** 2 + ent[:, cj] ** 2), bound_12,
                  lambda rp: ((int(rp[0]) + 1,), pair(rp[1])))
    report.record(np.sqrt(ent.T[:, ci] ** 2 + ent.T[:, cj] ** 2), bound_12,
                  lambda rp: (pair(rp[1]), (int(rp[0]) + 1,)))

    # 2 x 2 blocks, chunked over row pairs to bound memory.
    bound_22 = goodness_bound(2, 2, n)
    chunk = 64
    for start in range(0, len(pairs), chunk):
        rp = pairs[start : start + chunk]
        a = ent[rp[:, 0]][:, ci]
        b = ent[rp[:, 0]][:, cj]
        c = ent[rp[:, 1]][:, ci]
        d = ent[rp[:, 1]][:, cj]
        report.record(_two_by_two_norms(a, b, c, d), bound_22,
                      lambda xy, start=start: (pair(start + xy[0]), pair(xy[1])))


# Sampled pairs are drawn and recorded in chunks of this many index
# slots per side (16,384 pairs at max_block 8), so memory stays bounded
# whatever the pair count.
GOODNESS_CHUNK_SLOTS = 1 << 17


def _floyd_subsets(rng: np.random.Generator, n: int, size: int, count: int) -> np.ndarray:
    """`count` uniform `size`-subsets of range(n), one sorted row each.

    Floyd's algorithm on all rows at once: for j = n-size .. n-1 take t
    uniform in 0..j, and j itself when t is already in the set. That is
    `size` draws per set, whatever n is.
    """
    sets = np.empty((count, size), dtype=np.intp)
    for col, j in enumerate(range(n - size, n)):
        pick = rng.integers(0, j + 1, size=count)
        taken = (sets[:, :col] == pick[:, None]).any(axis=1)
        sets[:, col] = np.where(taken, j, pick)
    sets.sort(axis=1)
    return sets


def _goodness_draws(n: int, sampled_pairs: int, max_block: int, seed: int):
    """The sampled (S, T) pairs of check_goodness, in chunks of at most
    GOODNESS_CHUNK_SLOTS // cap pairs: yields (sizes, rows, cols) with
    sizes (m, 2) uniform in 1..cap = min(max_block, n), and pair i's
    sorted 0-based index sets at rows[i, :sizes[i, 0]] and
    cols[i, :sizes[i, 1]]."""
    rng = derive_rng(seed, "goodness", n, sampled_pairs, max_block)
    cap = min(max_block, n)
    chunk = max(1, GOODNESS_CHUNK_SLOTS // cap)
    for start in range(0, sampled_pairs, chunk):
        m = min(chunk, sampled_pairs - start)
        sizes = rng.integers(1, cap + 1, size=(m, 2))
        sets = np.zeros((2, m, cap), dtype=np.intp)
        for side in range(2):
            for size in range(1, cap + 1):
                which = np.flatnonzero(sizes[:, side] == size)
                sets[side, which, :size] = _floyd_subsets(rng, n, size, which.size)
        yield sizes, sets[0], sets[1]


def _record_sampled(u: OrthogonalMatrix, sizes: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray, report: GoodnessReport) -> None:
    """Record one chunk of sampled pairs in draw order. Blocks of one
    shape share one stacked SVD, whose norms are bit for bit those of
    per-block SVDs."""
    norms = np.empty(len(sizes))
    bounds = np.empty(len(sizes))
    # A set, not np.unique: the first np.unique call of a process costs
    # more than the whole of a small check.
    for s_size, t_size in set(map(tuple, sizes.tolist())):
        idx = np.flatnonzero((sizes[:, 0] == s_size) & (sizes[:, 1] == t_size))
        blocks = u.entries[rows[idx, :s_size, None], cols[idx, None, :t_size]]
        norms[idx] = spectral_norm(blocks)
        bounds[idx] = goodness_bound(s_size, t_size, u.n)

    def pair_of(idx):
        (i,) = idx
        return (tuple(int(r) + 1 for r in rows[i, : sizes[i, 0]]),
                tuple(int(c) + 1 for c in cols[i, : sizes[i, 1]]))

    report.record(norms, bounds, pair_of)


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
    if sampled_pairs < 0:
        raise ValueError(f"sampled_pairs must be non-negative, got {sampled_pairs}")
    if max_block < 1:
        raise ValueError(f"max_block must be at least 1, got {max_block}")
    report = GoodnessReport(u.n)
    _check_singletons(u, report)
    if u.n <= 64:
        _check_small_blocks(u, report)
    for sizes, rows, cols in _goodness_draws(u.n, sampled_pairs, max_block, seed):
        _record_sampled(u, sizes, rows, cols, report)
    return report


# ---------------------------------------------------------------------------
# Hadamard counterexample (implicit; H is never materialized at scale)
# ---------------------------------------------------------------------------

def hadamard_counterexample(log2n: int) -> tuple[float, float]:
    """(norm, bound) for the implicit all-ones block of the Hadamard matrix.

    The block is constant 1/sqrt(N) on sqrt(N) x sqrt(N) indices, so its
    spectral norm is exactly 1; the goodness budget for that shape is
    sqrt(100 * 2 sqrt(N) * ln N / N), which drops below 1 for
    log2n >= 26.
    """
    if log2n < 0:
        raise ValueError("log2n must be nonnegative")
    if log2n % 2 != 0:
        raise ValueError("log2n must be even")
    if log2n > 40:
        raise ValueError("log2n limited to 40")
    half = 2 ** (log2n // 2)
    return 1.0, goodness_bound(half, half, 2**log2n)


# ---------------------------------------------------------------------------
# Bilinear tail check (Haar concentration of x^T U y for fixed unit x, y)
# ---------------------------------------------------------------------------

def bilinear_tail_check(n: int, trials: int, seed: int) -> list[dict]:
    """One row per t in (1, 2, 3): the exceedance frequency of
    e_1^T U e_1 >= t / sqrt(n) over `trials` fresh Haar samples, with its
    standard error, the sub-Gaussian budget 2 e^{-t^2/8} and the
    Gaussian-limit tail."""
    samples = haar_corner_samples(n, trials, seed)
    rows = []
    for t in (1.0, 2.0, 3.0):
        freq = float(np.mean(samples >= t / np.sqrt(n)))
        stderr = float(np.sqrt(max(freq * (1.0 - freq), 1e-12) / trials))
        rows.append(
            {
                "t": t,
                "frequency": freq,
                "stderr": stderr,
                "subgaussian_bound": float(2.0 * np.exp(-(t**2) / 8.0)),
                "gaussian_tail": 0.5 * math.erfc(t / math.sqrt(2.0)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Matrix files: magic | n u64 | seed u64 | row-major little-endian f64
# ---------------------------------------------------------------------------

def _matrix_header(u: OrthogonalMatrix) -> bytes:
    seed = u.seed if u.seed is not None else 0
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} does not fit the unsigned 64-bit header field")
    return MATRIX_MAGIC + struct.pack("<QQ", u.n, seed)


def save_matrix(path: str | Path, u: OrthogonalMatrix) -> str:
    """Write the binary matrix file; returns its sha256 hex digest. The
    entries go to the file from u's own buffer, without a copy."""
    with file_set() as stage, open(stage(path), "wb") as file:
        file.write(_matrix_header(u))
        file.write(np.ascontiguousarray(u.entries, dtype="<f8"))
    return matrix_sha256(u)


def matrix_sha256(u: OrthogonalMatrix) -> str:
    """The sha256 of u's matrix file, hashed from memory: the file save_matrix
    writes, and byte for byte any file load_matrix read u from."""
    digest = hashlib.sha256(_matrix_header(u))
    digest.update(np.ascontiguousarray(u.entries, dtype="<f8"))
    return digest.hexdigest()


def load_matrix(path: str | Path, sha256: str = "") -> OrthogonalMatrix:
    """Read a matrix file; a non-empty sha256 refuses other bytes before the
    Gram check. The payload is read once, into an aligned buffer, and only
    after the header's n has been checked against the file's size; the
    entries are a read-only view of that buffer."""
    with open(path, "rb") as file:
        header = file.read(20)
        n = int.from_bytes(header[4:12], "little")
        fits = (header[:4] == MATRIX_MAGIC and len(header) == 20
                and os.fstat(file.fileno()).st_size == 20 + 8 * n * n)
        payload = np.empty(8 * n * n if fits else 0, dtype=np.uint8)
        fits = fits and file.readinto(payload) == payload.size
        if sha256:
            digest = hashlib.sha256(header)
            if fits:
                digest.update(payload)
            else:  # hashed as it is read, so nothing is sized by the header
                for block in iter(lambda: file.read(1 << 16), b""):
                    digest.update(block)
            if digest.hexdigest() != sha256:
                raise ValueError(f"{path}: not the matrix file of sha256 {sha256}")
    if header[:4] != MATRIX_MAGIC:
        raise ValueError(f"{path}: not a matrix file (bad magic)")
    if len(header) < 20:
        raise ValueError(f"{path}: truncated header")
    if not fits:
        raise ValueError(f"{path}: truncated or oversized payload")
    # The constructor checks the shape and orthogonality; corrupt files fail there.
    entries = payload.view("<f8").reshape(n, n)
    entries.flags.writeable = False
    return OrthogonalMatrix(n=n, entries=entries, seed=int.from_bytes(header[12:], "little"))


def save_matrix_csv(path: str | Path, u: OrthogonalMatrix) -> None:
    text = io.StringIO()
    np.savetxt(text, u.entries, delimiter=",", fmt="%.17g")
    atomic_write(path, text.getvalue())

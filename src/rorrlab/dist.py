"""Samplers for D_{U,k}, the sign discretization of the Gaussian chain
G_k, and for the uniform distribution, plus moment estimation.

The chain: X^(1)..X^(k-1) are iid standard Gaussian N-vectors,
Y^(i) = U^T X^(i), and Z interleaves them as Z^(1) = X^(1),
Z^(i) = Y^(i-1) * X^(i) pointwise for 1 < i < k, Z^(k) = Y^(k-1).
D_{U,k} takes signs of Z, with sgn(0) := +1 (a probability-zero event;
the fixed convention keeps sampling deterministic).

Monte-Carlo moment estimates use antithetic pairing (X, -X), which makes
estimates of odd-parity moments vanish identically rather than just in
expectation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import util
from .ortho import OrthogonalMatrix
from .rorrelation import sign_correlation
from .util import chunk_spans, derive_rng, sub_seed

__all__ = [
    "MomentEstimate",
    "MomentAuditReport",
    "sgn",
    "duk_chunks",
    "uniform_chunks",
    "sample_duk_batch",
    "sample_uniform_batch",
    "u_tilde_mc",
    "d_hat_product",
    "split_global_set",
    "duk_moment_bound",
    "moment_bound_audit",
]

# The universal constant of the good-matrix moment budget.
MOMENT_CONSTANT = 100.0

# Fewest rows of a chain sub-block's GEMM: at N = 2048 a row cost about the
# same from 128 rows up, and two to three times as much in a 16-row GEMM.
GEMM_ROW_FLOOR = 128


def sgn(values: np.ndarray) -> np.ndarray:
    """Sign as int8 with sgn(0) := +1 (-0.0 included) and NaN -> -1: the
    one sign kernel of the package. The >= 0 mask, viewed as 0/1 bytes,
    becomes 2 * mask - 1 in place."""
    signs = np.greater_equal(values, 0).view(np.int8)
    signs *= 2
    signs -= 1
    return signs


def _gather(chunks: Iterator[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    out = np.empty(shape, dtype=np.int8)
    done = 0
    for chunk in chunks:
        out[done : done + len(chunk)] = chunk
        done += len(chunk)
        del chunk  # before the next block is drawn
    return out


def duk_chunks(u: OrthogonalMatrix, k: int, count: int, seed: int) -> Iterator[np.ndarray]:
    """Signs of `count` chain draws as int8 (m, k, N) blocks in stream order,
    each of about MC_CHUNK Gaussian entries, drawn in sub-blocks as it is
    read; checked on the call."""
    if k < 2:
        raise ValueError("fold count k must be at least 2")
    if count < 0:
        raise ValueError(f"sample count {count} is negative")
    return _duk_blocks(u, k, count, seed)


def _duk_blocks(u: OrthogonalMatrix, k: int, count: int, seed: int) -> Iterator[np.ndarray]:
    # Checked by duk_chunks: a generator runs nothing until it is read. It
    # keeps no block, so a block is freed once its reader lets it go.
    rng = derive_rng(seed, "duk-batch", u.n, k, count)
    for start, stop in chunk_spans(count, (k - 1) * u.n):
        yield _duk_block(u, k, stop - start, rng)


def _duk_block(u: OrthogonalMatrix, k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Signs of the next m chain draws of rng, drawn in sub-blocks of about
    MC_CHUNK // 8 Gaussian entries but never fewer than GEMM_ROW_FLOOR GEMM
    rows; draws are sequential in the stream, so the sub-blocks do not move it."""
    z = np.empty((m, k, u.n), dtype=np.int8)
    step = max(util.MC_CHUNK // (8 * (k - 1) * u.n), -(-GEMM_ROW_FLOOR // (k - 1)))
    for lo in range(0, m, step):
        sub = z[lo : lo + step]
        x = rng.standard_normal((len(sub), k - 1, u.n))
        # One GEMM over all rows of the sub-block; row i of a draw becomes U^T x_i.
        y = (x.reshape(-1, u.n) @ u.entries).reshape(x.shape)
        sub[:, 0] = sgn(x[:, 0])
        for i in range(1, k - 1):
            sub[:, i] = sgn(y[:, i - 1] * x[:, i])
        sub[:, k - 1] = sgn(y[:, k - 2])
        del x, y  # before the next sub-block's are drawn
    return z


def sample_duk_batch(u: OrthogonalMatrix, k: int, count: int, seed: int) -> np.ndarray:
    """Signs of `count` chain draws, shape (count, k, N), int8: the blocks
    of `duk_chunks` end to end."""
    return _gather(duk_chunks(u, k, count, seed), (count, k, u.n))


def uniform_chunks(k: int, n: int, count: int, seed: int) -> Iterator[np.ndarray]:
    """`count` uniform +-1 draws as int8 (m, k, N) blocks of about MC_CHUNK
    entries, in stream order; checked on the call, as `duk_chunks` is."""
    if k < 2:
        raise ValueError("fold count k must be at least 2")
    if count < 0:
        raise ValueError(f"sample count {count} is negative")
    if n < 1:
        raise ValueError(f"vector length N = {n} is not positive")
    return _uniform_blocks(k, n, count, seed)


def _uniform_blocks(k: int, n: int, count: int, seed: int) -> Iterator[np.ndarray]:
    rng = derive_rng(seed, "uniform-batch", n, k, count)
    for start, stop in chunk_spans(count, k * n):
        signs = np.empty((stop - start, k, n), dtype=np.int8)
        # int64 draws take one 32-bit word each, so the stream does not
        # depend on where the sub-blocks of about MC_CHUNK // 8 split it.
        for lo, hi in chunk_spans(stop - start, 8 * k * n):
            signs[lo:hi] = rng.integers(0, 2, size=(hi - lo, k, n))
        signs *= 2
        signs -= 1
        yield signs


def sample_uniform_batch(k: int, n: int, count: int, seed: int) -> np.ndarray:
    """`count` uniform +-1 draws, shape (count, k, N), int8: the blocks of
    `uniform_chunks` end to end."""
    return _gather(uniform_chunks(k, n, count, seed), (count, k, n))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float
    samples: int
    exact: bool


def u_tilde_mc(
    u: OrthogonalMatrix,
    s: Sequence[int],
    t: Sequence[int],
    samples: int,
    seed: int,
) -> MomentEstimate:
    """Antithetic Monte-Carlo estimate of
    E_X[sgn(prod_{i in S} X_i * prod_{j in T} (U^T X)_j)].

    Pairs (X, -X) make the estimate identically zero when |S| + |T| is
    odd; stderr comes from the pair means.

    Only x_S and y_T = (U^T X)_T are drawn, from their joint law:
    y_T = U[S,T]^T x_S + R^T g with g ~ N(0, I_r) independent of x_S and
    R the (r, |T|) triangular factor of U[S^c,T], so R^T R is the
    covariance U[S^c,T]^T U[S^c,T] of the part of y_T outside S.
    """
    s_idx = np.asarray(sorted(set(s)), dtype=int) - 1
    t_idx = np.asarray(sorted(set(t)), dtype=int) - 1
    if s_idx.size and (s_idx.min() < 0 or s_idx.max() >= u.n):
        raise ValueError("S index out of range")
    if t_idx.size and (t_idx.min() < 0 or t_idx.max() >= u.n):
        raise ValueError("T index out of range")
    pairs = samples // 2
    if pairs < 2:
        # One pair gives an estimate of +-1 and no spread to estimate stderr.
        raise ValueError(f"need at least four samples (two antithetic pairs), got {samples}")
    if (s_idx.size + t_idx.size) % 2 == 1:
        # Literal cancellation: every pair mean is exactly zero.
        return MomentEstimate(value=0.0, stderr=0.0, samples=2 * pairs, exact=False)
    rng = derive_rng(seed, "u-tilde", u.n, tuple(s_idx.tolist()), tuple(t_idx.tolist()))
    outside = np.ones(u.n, dtype=bool)
    outside[s_idx] = False
    cross = u.entries[np.ix_(s_idx, t_idx)]
    r = np.linalg.qr(u.entries[np.ix_(outside, t_idx)], mode="r")
    total = 0.0
    width = s_idx.size + r.shape[0]
    for start, stop in chunk_spans(pairs, width):
        w = rng.standard_normal((stop - start, width))
        x_s, g = w[:, : s_idx.size], w[:, s_idx.size :]
        prod = np.prod(x_s, axis=1)
        if t_idx.size:
            prod *= np.prod(x_s @ cross + g @ r, axis=1)
        # Even parity: the antithetic partner contributes the same sign,
        # so the pair mean equals the sign itself.
        total += float(sgn(prod).sum(dtype=np.int64))
    mean = total / pairs
    # Every pair mean is +-1, so its mean square is exactly 1.
    var = max(1.0 - mean**2, 0.0) * pairs / max(pairs - 1, 1)
    stderr = math.sqrt(var / pairs)
    return MomentEstimate(value=mean, stderr=stderr, samples=2 * pairs, exact=False)


def split_global_set(global_set: Sequence[int], k: int, n: int) -> list[tuple[int, ...]]:
    """Split S subset of [kN] into block-local parts (1-based within block)."""
    parts: list[list[int]] = [[] for _ in range(k)]
    for idx in sorted(set(global_set)):
        if not (1 <= idx <= k * n):
            raise ValueError(f"global index {idx} outside [1, {k * n}]")
        block, local = divmod(idx - 1, n)
        parts[block].append(local + 1)
    return [tuple(p) for p in parts]


def d_hat_product(
    u: OrthogonalMatrix,
    parts: Sequence[Sequence[int]],
    samples: int = 20_000,
    seed: int = 0,
) -> MomentEstimate:
    """Moment of D_{U,k} on the set with block parts S_1..S_k, computed as
    the product of link factors U~(S_1,S_2) ... U~(S_{k-1},S_k).

    A link vanishes identically when its size-sum is odd, and also when
    exactly one side is empty (signs of disjoint independent Gaussians
    are unbiased coins); two empty sides give the factor 1. A singleton
    link {a}, {b} is the arcsine closed form 1 - 2 arccos(U_ab)/pi; every
    other link is estimated by u_tilde_mc from `samples` draws. Each part
    is a set of 1-based indices; a repeated index or one outside [1, N] is
    refused.
    """
    parts = [tuple(sorted(p)) for p in parts]
    if len(parts) < 2:
        raise ValueError("need at least two blocks")
    for part in parts:
        if any(a == b for a, b in zip(part, part[1:])):
            raise ValueError(f"block part {list(part)} repeats an index")
        if part and not (1 <= part[0] and part[-1] <= u.n):
            raise ValueError("block-local index out of range")
    factors: list[MomentEstimate] = []
    for j in range(len(parts) - 1):
        a, b = parts[j], parts[j + 1]
        if (len(a) + len(b)) % 2 or (not a) != (not b):
            return MomentEstimate(value=0.0, stderr=0.0, samples=0, exact=True)
        if len(a) == len(b) == 1:
            factors.append(MomentEstimate(value=sign_correlation(u.entries[a[0] - 1, b[0] - 1]),
                                          stderr=0.0, samples=0, exact=True))
        elif a:
            factors.append(u_tilde_mc(u, a, b, samples, sub_seed(seed, "link", j)))
    # Float starts keep an all-empty set's moment at the float 1.0.
    var = 0.0
    for i, f in enumerate(factors):
        rest = math.prod((g.value for j, g in enumerate(factors) if j != i), start=1.0)
        var += (f.stderr * rest) ** 2
    return MomentEstimate(
        value=math.prod((f.value for f in factors), start=1.0),
        stderr=math.sqrt(var),
        samples=sum(f.samples for f in factors),
        exact=all(f.exact for f in factors),
    )


def duk_moment_bound(ell: int, n: int, k: int) -> float:
    """(C * ell * ln N / N)^(ell (1 - 1/k) / 2), the good-matrix moment
    budget with the universal constant C = MOMENT_CONSTANT."""
    if ell < 1:
        raise ValueError("set size must be positive")
    base = MOMENT_CONSTANT * ell * math.log(n) / n
    return float(base ** (ell * (1.0 - 1.0 / k) / 2.0))


@dataclass
class MomentAuditReport:
    n: int
    k: int
    rows: list[dict]
    violations: list[dict]

    @property
    def worst_margin(self) -> float:
        """Most negative slack bound - (|value| - 4 stderr); negative
        values are violations."""
        return min((row["margin"] for row in self.rows), default=float("inf"))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "constant": MOMENT_CONSTANT,
                "rows": self.rows,
                "violations": self.violations,
            },
            sort_keys=True,
        )


def moment_bound_audit(
    u: OrthogonalMatrix,
    k: int,
    trials: int,
    max_size: int,
    seed: int,
    mc_samples: int = 20_000,
) -> MomentAuditReport:
    """Spot-check |D_hat(S)| against the moment budget on sampled sets.

    Sets mix uniform draws from [kN] with structured singleton chains
    (one index per block), which carry the largest moments and expose
    matrices that are not good (the identity's diagonal chains reach
    |D_hat| = 1).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if max_size < k:
        raise ValueError("max_size must be at least k")
    rng = derive_rng(seed, "moment-audit", u.n, k, trials, max_size)
    rows: list[dict] = []
    violations: list[dict] = []
    structured = min(trials // 4 + 1, 50)
    for trial in range(trials):
        if trial < structured:
            # Singleton chain: same or random index in every block.
            if trial % 2 == 0:
                idx = int(rng.integers(1, u.n + 1))
                parts = [(idx,)] * k
            else:
                parts = [(int(rng.integers(1, u.n + 1)),) for _ in range(k)]
            size = k
        else:
            size = int(rng.integers(k, max_size + 1))
            global_set = rng.choice(k * u.n, size=size, replace=False) + 1
            parts = split_global_set([int(g) for g in global_set], k, u.n)
        est = d_hat_product(
            u, parts, samples=mc_samples, seed=sub_seed(seed, "audit", trial)
        )
        bound = duk_moment_bound(size, u.n, k)
        margin = bound - (abs(est.value) - 4.0 * est.stderr)
        row = {
            "S": [list(p) for p in parts],
            "size": size,
            "estimate": est.value,
            "stderr": est.stderr,
            "exact": est.exact,
            "bound": bound,
            "margin": margin,
        }
        rows.append(row)
        if margin < 0:
            violations.append(row)
    return MomentAuditReport(n=u.n, k=k, rows=rows, violations=violations)


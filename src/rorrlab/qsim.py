"""Exact state-vector simulation of the Rorrelation query circuit.

Every gate in the circuit is real (Hadamard layers, +-1 diagonal query
oracles, the orthogonal transform U and its transpose), so amplitudes
are stored as real vectors. The control qubit is the top qubit: the
first N amplitudes evolve under the branch conditioned on control 0,
the last N under control 1. Acceptance is the probability of measuring
the control in the |+> state, which equals (1 + phi_U(z)) / 2.

A "query round" applies the oracle on whichever branches are still
consuming inputs; rounds, not per-branch oracle calls, are what the
query model counts, so a full run costs ceil(k/2) queries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ortho import OrthogonalMatrix
from .util import derive_rng

__all__ = [
    "QueryState",
    "CircuitRun",
    "AmplifiedDecision",
    "hadamard_transform",
    "query_count",
    "simulate_circuit",
    "run_rorrelation_circuit",
    "amplification_threshold",
    "default_repetitions",
    "amplified_solver",
    "amplify",
]

NORM_TOL = 1e-10


@dataclass(frozen=True)
class QueryState:
    """Control qubit tensor index register: 2N real amplitudes, unit norm."""

    amplitudes: np.ndarray = field(repr=False)
    n: int

    def __post_init__(self):
        if self.amplitudes.shape != (2 * self.n,):
            raise ValueError("state must hold 2N amplitudes")
        drift = abs(float(np.linalg.norm(self.amplitudes)) - 1.0)
        if drift > NORM_TOL:
            raise ValueError(f"state norm drifted by {drift:.3e}")


@dataclass(frozen=True)
class CircuitRun:
    n: int
    k: int
    acceptance_probability: float
    branch_inner_product: float  # <a, b>, equal to phi_U(z)
    queries: int
    final_state: QueryState
    max_norm_drift: float


def hadamard_transform(vec: np.ndarray) -> np.ndarray:
    """Normalized in-place Hadamard butterfly; length must be a power of two."""
    m = vec.size
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    h = 1
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    while h < m:
        blocks = vec.reshape(-1, 2 * h)
        left = blocks[:, :h].copy()
        right = blocks[:, h:].copy()
        blocks[:, :h] = (left + right) * inv_sqrt2
        blocks[:, h:] = (left - right) * inv_sqrt2
        h *= 2
    return vec


def query_count(k: int) -> int:
    """Queries made by one circuit run: ceil(k/2)."""
    if k < 2:
        raise ValueError("fold count k must be at least 2")
    return (k + 1) // 2


def _check_inputs(u: OrthogonalMatrix, vectors: np.ndarray) -> np.ndarray:
    vecs = np.asarray(vectors, dtype=float)
    if vecs.ndim != 2 or vecs.shape[0] < 2:
        raise ValueError("need a (k, N) stack of query vectors with k >= 2")
    if vecs.shape[1] != u.n:
        raise ValueError(f"vectors have length {vecs.shape[1]}, matrix is {u.n}")
    if u.n & (u.n - 1) or u.n < 1:
        raise ValueError("N must be a power of two")
    if not np.all(np.abs(vecs) == 1):
        raise ValueError("query vectors must be +-1 valued")
    return vecs


def simulate_circuit(u: OrthogonalMatrix, vectors: np.ndarray) -> CircuitRun:
    """Run the two-branch circuit and return the full diagnostic record."""
    z = _check_inputs(u, vectors)
    k, n = z.shape
    drift = 0.0

    def track(vec: np.ndarray) -> np.ndarray:
        nonlocal drift
        drift = max(drift, abs(float(np.linalg.norm(vec)) - 1.0))
        return vec

    # Both branches start at |0..0> and receive the Hadamard layer.
    half0 = np.zeros(n)
    half0[0] = 1.0
    track(hadamard_transform(half0))
    half1 = np.zeros(n)
    half1[0] = 1.0
    track(hadamard_transform(half1))

    rounds = query_count(k)
    lower = k // 2  # rounds in which the control-1 branch still queries
    queries = 0
    for t in range(1, rounds + 1):
        if t >= 2:
            half0 = track(u.entries.T @ half0)
            if t <= lower:
                half1 = track(u.entries @ half1)
        half0 = track(half0 * z[t - 1])
        if t <= lower:
            half1 = track(half1 * z[k - t])
        queries += 1
    half0 = track(u.entries.T @ half0)

    inner = float(half0 @ half1)
    prob = 0.25 * float(np.sum((half0 + half1) ** 2))
    state = QueryState(
        amplitudes=np.concatenate([half0, half1]) / math.sqrt(2.0), n=n
    )
    return CircuitRun(
        n=n,
        k=k,
        acceptance_probability=prob,
        branch_inner_product=inner,
        queries=queries,
        final_state=state,
        max_norm_drift=drift,
    )


def run_rorrelation_circuit(u: OrthogonalMatrix, vectors: np.ndarray) -> float:
    """Acceptance probability of the circuit: (1 + phi_U(z)) / 2."""
    return simulate_circuit(u, vectors).acceptance_probability


def amplification_threshold(k: int) -> float:
    """Midpoint of the YES and NO acceptance probabilities."""
    hi = (1.0 + 2.0**-k) / 2.0
    lo = (1.0 + 2.0 ** -(k + 1)) / 2.0
    return 0.5 * (hi + lo)


def default_repetitions(k: int) -> int:
    """Enough repetitions for 2/3 correctness on promise inputs."""
    return math.ceil(64.0 * 4.0**k)


@dataclass(frozen=True)
class AmplifiedDecision:
    accept: bool
    successes: int
    repetitions: int
    threshold: float
    run_probability: float
    queries: int


def amplified_solver(
    u: OrthogonalMatrix,
    vectors: np.ndarray,
    repetitions: int,
    seed: int,
) -> AmplifiedDecision:
    """Repeat the circuit and accept when successes exceed m * threshold.

    The per-run acceptance probability is computed exactly once; the
    repetitions are classical Bernoulli draws from it.
    """
    return amplify(simulate_circuit(u, vectors), repetitions, seed)


def amplify(run: CircuitRun, repetitions: int, seed: int) -> AmplifiedDecision:
    """The amplified decision for an already simulated circuit run."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    rng = derive_rng(seed, "amplify", run.n, run.k, repetitions)
    p = min(max(run.acceptance_probability, 0.0), 1.0)
    successes = int(rng.binomial(repetitions, p))
    alpha = amplification_threshold(run.k)
    return AmplifiedDecision(
        accept=successes > repetitions * alpha,
        successes=successes,
        repetitions=repetitions,
        threshold=alpha,
        run_probability=run.acceptance_probability,
        queries=run.queries * repetitions,
    )

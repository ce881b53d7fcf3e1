"""Exact state-vector simulation of the Rorrelation query circuit.

Every gate in the circuit is real (Hadamard layers, +-1 diagonal query
oracles, the orthogonal transform U and its transpose), so amplitudes
are stored as real vectors. The control qubit is the top qubit: the
first N amplitudes evolve under the branch conditioned on control 0,
the last N under control 1. Acceptance is the probability of measuring
the control in the |+> state, which equals (1 + phi_U(z)) / 2.

The branches query in parallel: query t reads z^(t) on the control-0
branch and, while t <= k/2, z^(k+1-t) on the control-1 branch, so a
full run costs ceil(k/2) queries.

`simulate_batch` runs a batch of m instances at once: each branch is an
(m, N) block of real amplitudes, so every layer of U or U^T is one GEMM
for the whole batch (O(mN) working space), norm drift is tracked per
row, and every final state's norm is checked against 1 once for the
whole batch. It returns one array per quantity and pads the batch as
`phi_batch` does (`rorrelation.check_batch`), so an instance's values
keep their bits in any batch. `simulate_circuit` is its one-row case.
`amplify` draws every instance's repetitions from one generator, in
order; `amplified_solver` is its one-instance case, with the generator
`rorrlab qsim` draws a whole instance file from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ortho import OrthogonalMatrix
from .rorrelation import check_batch, no_threshold, yes_threshold
from .util import derive_rng

__all__ = [
    "CircuitRun",
    "AmplifiedDecision",
    "query_count",
    "simulate_circuit",
    "simulate_batch",
    "run_rorrelation_circuit",
    "amplification_threshold",
    "default_repetitions",
    "amplified_solver",
    "amplify",
]

NORM_TOL = 1e-10


@dataclass(frozen=True)
class CircuitRun:
    n: int
    k: int
    acceptance_probability: float
    branch_inner_product: float  # <a, b>, equal to phi_U(z)
    queries: int
    max_norm_drift: float


def query_count(k: int) -> int:
    """Queries made by one circuit run: ceil(k/2)."""
    if k < 2:
        raise ValueError("fold count k must be at least 2")
    return (k + 1) // 2


def simulate_circuit(u: OrthogonalMatrix, vectors: np.ndarray) -> CircuitRun:
    """Run the two-branch circuit on one (k, N) instance and return the full
    diagnostic record: the one-row case of simulate_batch."""
    prob, inner, drift = simulate_batch(u, np.asarray(vectors)[None])
    return CircuitRun(n=u.n, k=len(vectors), acceptance_probability=float(prob[0]),
                      branch_inner_product=float(inner[0]), queries=query_count(len(vectors)),
                      max_norm_drift=float(drift[0]))


def simulate_batch(u: OrthogonalMatrix,
                   batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the circuit on every instance of an (m, k, N) batch: the
    acceptance probabilities, the branch inner products <a, b> (phi_U(z))
    and the largest norm drifts, each of shape (m,), in order."""
    z = check_batch(u, np.asarray(batch))  # the (m, k, N) shape phi_batch takes
    if u.n & (u.n - 1) or u.n < 1:
        raise ValueError("N must be a power of two")
    if not np.all(np.abs(z) == 1):
        raise ValueError("query vectors must be +-1 valued")
    rows, k, n = z.shape
    drift = np.zeros(rows)

    def track(block: np.ndarray) -> np.ndarray:
        np.maximum(drift, np.abs(np.linalg.norm(block, axis=1) - 1.0), out=drift)
        return block

    # Both branches start at the Hadamard layer applied to |0..0>.
    half0 = half1 = track(np.full((rows, n), 1.0 / math.sqrt(n)))
    queries = query_count(k)
    # Rows are amplitude vectors h, so h @ U is U^T h and h @ U^T is U h.
    # Control 0 queries z^(1), ..., z^(ceil(k/2)), each query followed by U^T.
    for t in range(queries):
        half0 = track(track(half0 * z[:, t]) @ u.entries)
    # Control 1 queries z^(k), ..., z^(ceil(k/2)+1), with U between queries.
    half1 = track(half1 * z[:, k - 1])
    for t in range(k - 2, queries - 1, -1):
        half1 = track(track(half1 @ u.entries.T) * z[:, t])

    m = len(batch)  # the rows past m are check_batch's padding
    half0, half1 = half0[:m], half1[:m]
    inner = np.einsum("mi,mi->m", half0, half1)
    prob = 0.25 * np.sum((half0 + half1) ** 2, axis=1)
    # The final state (half0, half1) / sqrt(2) must have unit norm.
    final_drift = np.abs(np.hypot(np.linalg.norm(half0, axis=1),
                                  np.linalg.norm(half1, axis=1)) / math.sqrt(2.0) - 1.0)
    drifted = final_drift[final_drift > NORM_TOL]
    if drifted.size:
        raise ValueError(f"state norm drifted by {drifted[0]:.3e}")
    return prob, inner, drift[:m]


def run_rorrelation_circuit(u: OrthogonalMatrix, vectors: np.ndarray) -> float:
    """Acceptance probability of the circuit: (1 + phi_U(z)) / 2."""
    return simulate_circuit(u, vectors).acceptance_probability


def amplification_threshold(k: int) -> float:
    """Midpoint of the YES and NO acceptance probabilities (1 + phi) / 2."""
    hi = (1.0 + yes_threshold(k)) / 2.0
    lo = (1.0 + no_threshold(k)) / 2.0
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
    repetitions are classical Bernoulli draws from it, from the stream
    that `rorrlab qsim` draws a whole instance file from.
    """
    run = simulate_circuit(u, vectors)
    rng = derive_rng(seed, "amplify", run.n, run.k, repetitions)
    successes = int(amplify(np.array([run.acceptance_probability]), repetitions, rng)[0])
    alpha = amplification_threshold(run.k)
    return AmplifiedDecision(
        accept=successes > repetitions * alpha,
        successes=successes,
        repetitions=repetitions,
        threshold=alpha,
        run_probability=run.acceptance_probability,
        queries=run.queries * repetitions,
    )


def amplify(acceptance: np.ndarray, repetitions: int,
            rng: np.random.Generator) -> np.ndarray:
    """The successes among `repetitions` runs of each instance, for an array
    of already simulated acceptance probabilities, drawn from rng in order."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    return rng.binomial(repetitions, np.clip(acceptance, 0.0, 1.0))

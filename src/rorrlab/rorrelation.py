"""The k-fold Rorrelation functional phi_U and the YES/NO promise problem.

phi_U(z^(1), ..., z^(k)) is the normalized alternating chain
z^(1)^T U diag(z^(2)) U ... U z^(k) / N, evaluated right-to-left with
vector intermediates (O(k N^2) time, O(N) extra space). On +-1 inputs
its value lies in [-1, 1]; YES instances have phi >= 2^-k, NO instances
|phi| <= 2^-(k+1), everything between is outside the promise.
"""
from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ortho import OrthogonalMatrix

__all__ = [
    "Label",
    "InstanceLabel",
    "RorrelationInstance",
    "phi",
    "phi_batch",
    "phi_brute_force",
    "classify",
    "sign_correlation",
    "exact_expected_phi",
    "exact_uniform_variance",
    "uniform_no_probability_bound",
    "yes_threshold",
    "no_threshold",
    "save_instances",
    "load_instances",
]

INSTANCE_MAGIC = b"RORI"


class Label(enum.Enum):
    YES = "YES"
    NO = "NO"
    AMBIGUOUS = "AMBIGUOUS"


@dataclass(frozen=True)
class InstanceLabel:
    tag: Label
    phi: float


@dataclass(frozen=True)
class RorrelationInstance:
    """k sign vectors of length N tied to the matrix they were built for."""

    k: int
    vectors: np.ndarray  # shape (k, N), entries +-1
    matrix_ref: str = ""  # path or hash of the matrix file, if any

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("fold count k must be at least 2")
        if self.vectors.shape[0] != self.k:
            raise ValueError("vector block must have k rows")
        if not np.all(np.abs(self.vectors) == 1):
            raise ValueError("instance entries must be +-1")

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


def _check_dimensions(u: OrthogonalMatrix, vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise ValueError("need a (k, N) stack of vectors with k >= 2")
    if vectors.shape[1] != u.n:
        raise ValueError(f"vectors have length {vectors.shape[1]}, matrix is {u.n}")
    return vectors


def phi(u: OrthogonalMatrix, vectors: Sequence[Sequence[float]] | np.ndarray) -> float:
    """k-fold Rorrelation via k-1 chained matrix-vector products."""
    vecs = _check_dimensions(u, np.asarray(vectors))
    k = vecs.shape[0]
    w = vecs[k - 1]
    for j in range(k - 2, 0, -1):
        w = vecs[j] * (u.entries @ w)
    w = u.entries @ w
    return float(vecs[0] @ w) / u.n


def phi_batch(u: OrthogonalMatrix, batch: np.ndarray) -> np.ndarray:
    """phi for a batch of instances, shape (m, k, N) -> (m,)."""
    if batch.ndim != 3 or batch.shape[2] != u.n:
        raise ValueError("batch must have shape (m, k, N)")
    k = batch.shape[1]
    w = batch[:, k - 1, :].astype(float)
    for j in range(k - 2, 0, -1):
        w = batch[:, j, :] * (w @ u.entries.T)
    w = w @ u.entries.T
    return np.einsum("mi,mi->m", batch[:, 0, :].astype(float), w) / u.n


def phi_brute_force(u: OrthogonalMatrix, vectors: np.ndarray) -> float:
    """Direct k-fold index sum; O(N^k), oracle for tiny N only."""
    vecs = _check_dimensions(u, np.asarray(vectors))
    k, n = vecs.shape
    if n**k > 5_000_000:
        raise ValueError("brute force oracle limited to tiny N")
    total = 0.0

    def walk(pos: int, prev_index: int, acc: float) -> None:
        nonlocal total
        if pos == k:
            total += acc
            return
        for i in range(n):
            factor = vecs[pos][i] if pos == 0 else u.entries[prev_index, i] * vecs[pos][i]
            walk(pos + 1, i, acc * factor)

    walk(0, -1, 1.0)
    return total / n


def yes_threshold(k: int) -> float:
    return 2.0 ** (-k)


def no_threshold(k: int) -> float:
    return 2.0 ** (-(k + 1))


def classify(u: OrthogonalMatrix, vectors: np.ndarray, k: int | None = None) -> InstanceLabel:
    """Label by the promise thresholds; AMBIGUOUS marks the gap between them."""
    vecs = np.asarray(vectors)
    if k is None:
        k = vecs.shape[0]
    elif k != vecs.shape[0]:
        raise ValueError("declared k does not match vector count")
    value = phi(u, vecs)
    return classify_value(value, k)


def classify_value(value: float, k: int) -> InstanceLabel:
    if value >= yes_threshold(k):
        return InstanceLabel(Label.YES, value)
    if abs(value) <= no_threshold(k):
        return InstanceLabel(Label.NO, value)
    return InstanceLabel(Label.AMBIGUOUS, value)


def sign_correlation(rho: float) -> float:
    """E[sgn X sgn Y] for unit Gaussians with correlation rho:
    1 - 2 arccos(rho) / pi."""
    rho = float(np.clip(rho, -1.0, 1.0))
    return 1.0 - 2.0 * np.arccos(rho) / np.pi


def exact_expected_phi(u: OrthogonalMatrix, k: int) -> float:
    """E[phi_U] under the sign-of-Gaussian-chain distribution.

    Each link of the chain contributes U_ij * sign_correlation(U_ij)
    independently, so the expectation is (1/N) 1^T M^(k-1) 1 with
    M_ij = U_ij * (2/pi) arcsin(U_ij). Always at least (2/pi)^(k-1)
    for orthogonal U.
    """
    if k < 2:
        raise ValueError("fold count k must be at least 2")
    m = u.entries * (2.0 / np.pi) * np.arcsin(np.clip(u.entries, -1.0, 1.0))
    v = np.ones(u.n)
    for _ in range(k - 1):
        v = m @ v
    return float(np.sum(v)) / u.n


def exact_uniform_variance(u: OrthogonalMatrix, k: int) -> float:
    """Var[phi_U] under uniform +-1 inputs: (1/N^2) 1^T (U o U)^(k-1) 1.

    U o U is doubly stochastic for orthogonal U, so this equals 1/N
    identically; the matrix power is evaluated anyway as the check.
    """
    if k < 2:
        raise ValueError("fold count k must be at least 2")
    sq = u.entries**2
    v = np.ones(u.n)
    for _ in range(k - 1):
        v = sq @ v
    return float(np.sum(v)) / u.n**2


def uniform_no_probability_bound(k: int, n: int) -> float:
    """Chebyshev guarantee that a uniform instance is a NO instance:
    1 - 4^(k+1)/N, clipped to [0, 1]."""
    return float(min(1.0, max(0.0, 1.0 - 4.0 ** (k + 1) / n)))


# ---------------------------------------------------------------------------
# Instance files: magic | k u32 | N u32 | hash len u16 + hex | path len u16 +
# utf8 | count u32 | count * k * N sign bytes (1 = +1, 0 = -1)
# ---------------------------------------------------------------------------

def save_instances(
    path: str | Path,
    instances: Sequence[RorrelationInstance],
    matrix_path: str = "",
    matrix_hash: str = "",
) -> None:
    if not instances:
        raise ValueError("nothing to save")
    k, n = instances[0].k, instances[0].n
    if any(inst.k != k or inst.n != n for inst in instances):
        raise ValueError("instances must share (k, N)")
    hash_bytes = matrix_hash.encode()
    path_bytes = matrix_path.encode()
    header = INSTANCE_MAGIC + struct.pack("<IIHH", k, n, len(hash_bytes), len(path_bytes))
    body = bytearray(header + hash_bytes + path_bytes + struct.pack("<I", len(instances)))
    for inst in instances:
        body += ((inst.vectors.reshape(-1) + 1) // 2).astype(np.uint8).tobytes()
    Path(path).write_bytes(bytes(body))


def load_instances(path: str | Path) -> tuple[list[RorrelationInstance], str, str]:
    blob = Path(path).read_bytes()
    if blob[:4] != INSTANCE_MAGIC:
        raise ValueError(f"{path}: not an instance file (bad magic)")
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated header")
    k, n, hash_len, path_len = struct.unpack("<IIHH", blob[4:16])
    pos = 16
    if len(blob) < pos + hash_len + path_len + 4:
        raise ValueError(f"{path}: truncated header")
    if n < 1:
        raise ValueError(f"{path}: vector length must be positive")
    matrix_hash = blob[pos : pos + hash_len].decode()
    pos += hash_len
    matrix_path = blob[pos : pos + path_len].decode()
    pos += path_len
    (count,) = struct.unpack("<I", blob[pos : pos + 4])
    pos += 4
    if len(blob) != pos + count * k * n:
        raise ValueError(f"{path}: truncated or oversized payload")
    raw = np.frombuffer(blob[pos:], dtype=np.uint8).reshape(count, k, n)
    if np.any(raw > 1):
        raise ValueError(f"{path}: sign bytes must be 0 or 1")
    instances = [
        RorrelationInstance(
            k=k,
            vectors=(raw[i].astype(np.int8) * 2 - 1),
            matrix_ref=matrix_hash or matrix_path,
        )
        for i in range(count)
    ]
    return instances, matrix_path, matrix_hash

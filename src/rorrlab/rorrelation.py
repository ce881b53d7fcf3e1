"""The k-fold Rorrelation functional phi_U and the YES/NO promise problem.

phi_U(z^(1), ..., z^(k)) is the normalized alternating chain
z^(1)^T U diag(z^(2)) U ... U z^(k) / N, evaluated right-to-left for a
whole batch of m instances at once: each of the k-1 links is one GEMM of
the (m, N) intermediate with U^T, so U is read k-1 times per batch, not
per instance (O(k m N^2) time, O(mN) working space). `check_batch` pads
a batch to at least 64 rows, so an instance's phi (and its circuit values
in `qsim`) keeps its bits alone, at any offset and in any batch; `phi` is
the one-row case of `phi_batch`. On +-1 inputs its value lies in [-1, 1];
YES instances have phi >= 2^-k, NO instances |phi| <= 2^-(k+1),
everything between is outside the promise.
"""
from __future__ import annotations

import enum
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ortho import OrthogonalMatrix
from .util import chunk_spans, file_set

__all__ = [
    "Label",
    "RorrelationInstance",
    "phi",
    "phi_batch",
    "check_batch",
    "classify",
    "sign_correlation",
    "exact_expected_phi",
    "exact_uniform_variance",
    "yes_threshold",
    "no_threshold",
    "save_instances",
    "save_instance_batch",
    "load_instance_batch",
    "load_instances",
]

INSTANCE_MAGIC = b"RORI"

# The fewest rows a chain product is given. BLAS scores one row (gemv) or a
# few rows on kernels whose last bits differ; measured with OpenBLAS at
# N = 1 to 2048, from 64 rows on a row's bits do not depend on the row
# count, while a floor of 32 still moved them at N = 32.
_ROW_FLOOR = 64


class Label(enum.Enum):
    YES = "YES"
    NO = "NO"
    AMBIGUOUS = "AMBIGUOUS"


@dataclass(frozen=True)
class RorrelationInstance:
    """k sign vectors of length N tied to the matrix they were built for."""

    k: int
    vectors: np.ndarray  # shape (k, N), entries +-1

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


def phi(u: OrthogonalMatrix, vectors: Sequence[Sequence[float]] | np.ndarray) -> float:
    """k-fold Rorrelation of one instance: the one-row case of phi_batch."""
    return float(phi_batch(u, np.asarray(vectors, dtype=float)[None])[0])


def check_batch(u: OrthogonalMatrix, batch: np.ndarray) -> np.ndarray:
    """Refuse a batch that is not (m, k, N) with k >= 2 and N = u.n; return
    it padded with +1 rows to at least _ROW_FLOOR rows, the batch the chain
    products are given. Callers keep the first m rows of their results."""
    if batch.ndim != 3 or batch.shape[1] < 2 or batch.shape[2] != u.n:
        raise ValueError("batch must have shape (m, k, N) with k >= 2")
    if len(batch) >= _ROW_FLOOR:
        return batch
    pad = np.ones((_ROW_FLOOR - len(batch),) + batch.shape[1:], dtype=batch.dtype)
    return np.concatenate([batch, pad])


def phi_batch(u: OrthogonalMatrix, batch: np.ndarray) -> np.ndarray:
    """phi for a batch of instances, shape (m, k, N) -> (m,), via k-1
    chained products of the (m, N) intermediate with U^T."""
    z = check_batch(u, batch)
    k = z.shape[1]
    w = z[:, k - 1, :].astype(float)
    for j in range(k - 2, 0, -1):
        w = z[:, j, :] * (w @ u.entries.T)
    w = w @ u.entries.T
    return (np.einsum("mi,mi->m", z[:, 0, :].astype(float), w) / u.n)[: len(batch)]


def yes_threshold(k: int) -> float:
    return 2.0 ** (-k)


def no_threshold(k: int) -> float:
    return 2.0 ** (-(k + 1))


def classify(u: OrthogonalMatrix, vectors: np.ndarray) -> Label:
    """Label by the promise thresholds, with k the number of vectors;
    AMBIGUOUS marks the gap between them."""
    vecs = np.asarray(vectors)
    return classify_value(phi(u, vecs), vecs.shape[0])


def classify_value(value: float, k: int) -> Label:
    if value >= yes_threshold(k):
        return Label.YES
    if abs(value) <= no_threshold(k):
        return Label.NO
    return Label.AMBIGUOUS


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
    m = u.entries * (2.0 / np.pi) * np.arcsin(np.clip(u.entries, -1.0, 1.0))
    return _chain_sum(m, k) / u.n


def exact_uniform_variance(u: OrthogonalMatrix, k: int) -> float:
    """Var[phi_U] under uniform +-1 inputs: (1/N^2) 1^T (U o U)^(k-1) 1.

    U o U is doubly stochastic for orthogonal U, so this equals 1/N
    identically; the matrix power is evaluated anyway as the check.
    """
    return _chain_sum(u.entries**2, k) / u.n**2


def _chain_sum(m: np.ndarray, k: int) -> float:
    """1^T m^(k-1) 1 for a fold count k >= 2."""
    if k < 2:
        raise ValueError("fold count k must be at least 2")
    v = np.ones(m.shape[0])
    for _ in range(k - 1):
        v = m @ v
    return float(np.sum(v))


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
    save_instance_batch(path, np.stack([inst.vectors for inst in instances]),
                        matrix_path=matrix_path, matrix_hash=matrix_hash)


def save_instance_batch(
    path: str | Path,
    batch: np.ndarray,
    matrix_path: str = "",
    matrix_hash: str = "",
) -> None:
    """Write a +-1 batch of shape (m, k, N) as an instance file: the header,
    then the sign bytes straight to the staged file, converted in blocks of
    about MC_CHUNK entries, so the only copy is one block."""
    count, k, n = batch.shape
    hash_bytes = matrix_hash.encode()
    path_bytes = matrix_path.encode()
    with file_set() as stage, open(stage(path), "wb") as file:
        file.write(INSTANCE_MAGIC + struct.pack("<IIHH", k, n, len(hash_bytes), len(path_bytes)))
        file.write(hash_bytes + path_bytes + struct.pack("<I", count))
        for start, stop in chunk_spans(count, k * n):
            file.write(np.greater(batch[start:stop], 0).view(np.uint8))


def load_instance_batch(path: str | Path) -> tuple[np.ndarray, str, str]:
    """Read an instance file: its (count, k, N) +-1 int8 batch, the matrix
    path and the matrix sha256 it stores. The payload size is checked
    against the file's before anything is allocated; the sign bytes are
    then read into the batch, checked once and converted there."""
    with open(path, "rb") as file:
        head = file.read(16)
        if head[:4] != INSTANCE_MAGIC:
            raise ValueError(f"{path}: not an instance file (bad magic)")
        if len(head) < 16:
            raise ValueError(f"{path}: truncated header")
        k, n, hash_len, path_len = struct.unpack("<IIHH", head[4:16])
        tail = file.read(hash_len + path_len + 4)
        if len(tail) < hash_len + path_len + 4:
            raise ValueError(f"{path}: truncated header")
        if k < 2:
            raise ValueError(f"{path}: fold count k must be at least 2")
        if n < 1:
            raise ValueError(f"{path}: vector length must be positive")
        matrix_hash = tail[:hash_len].decode()
        matrix_path = tail[hash_len : hash_len + path_len].decode()
        (count,) = struct.unpack("<I", tail[-4:])
        if os.fstat(file.fileno()).st_size != 16 + len(tail) + count * k * n:
            raise ValueError(f"{path}: truncated or oversized payload")
        batch = np.empty((count, k, n), dtype=np.int8)
        if file.readinto(batch) != batch.size:  # the file shrank
            raise ValueError(f"{path}: truncated or oversized payload")
    if batch.view(np.uint8).max(initial=0) > 1:
        raise ValueError(f"{path}: sign bytes must be 0 or 1")
    batch *= 2
    batch -= 1
    return batch, matrix_path, matrix_hash


def load_instances(path: str | Path) -> tuple[list[RorrelationInstance], str, str]:
    """The instances of an instance file, one per row of load_instance_batch's
    batch, with the matrix path and sha256 it stores."""
    batch, matrix_path, matrix_hash = load_instance_batch(path)
    return ([RorrelationInstance(k=batch.shape[1], vectors=z) for z in batch],
            matrix_path, matrix_hash)

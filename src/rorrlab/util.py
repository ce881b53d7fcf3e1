"""Shared helpers: deterministic seed derivation, Monte-Carlo statistics
and JSON field checks."""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "derive_rng",
    "sub_seed",
    "mean_and_stderr",
    "variance_and_stderr",
    "json_int",
]


def sub_seed(seed: int, *tags) -> int:
    """Derive a child seed from a master seed and a tag path.

    Stable across platforms and Python versions (sha256 of the repr),
    so every Monte-Carlo quantity reproduces exactly for a given config.
    """
    digest = hashlib.sha256(repr((int(seed),) + tuple(tags)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Independent generator for the stream identified by (seed, *tags)."""
    return np.random.default_rng(sub_seed(seed, *tags))


def mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean with its CLT standard error (ddof=1)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("no samples")
    mean = float(values.mean())
    if n < 2:
        return mean, float("inf")
    return mean, float(values.std(ddof=1) / np.sqrt(n))


def variance_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample variance with a delta-method standard error.

    stderr uses the asymptotic variance of the sample variance,
    (m4 - var^2) / n, with m4 the central fourth moment.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("need at least two samples")
    centered = values - values.mean()
    var = float(np.sum(centered**2) / (n - 1))
    m4 = float(np.mean(centered**4))
    return var, float(np.sqrt(max(m4 - var**2, 0.0) / n))


def json_int(value, name: str) -> int:
    """A JSON integer field, refusing missing values, floats and booleans."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    return value

"""Shared helpers: deterministic seed derivation, Monte-Carlo statistics,
JSON field checks and atomic file writes, one at a time or as a set."""
from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "MC_CHUNK",
    "chunk_spans",
    "derive_rng",
    "sub_seed",
    "mean_and_stderr",
    "variance_and_stderr",
    "json_int",
    "atomic_write",
    "file_set",
]

# Entries per chunk of a Monte-Carlo sampler or a whole-matrix pass (4 MB
# of floats), so that no temporary grows with a sample count or with N^2.
MC_CHUNK = 1 << 19


def chunk_spans(count: int, row_width: int) -> Iterator[tuple[int, int]]:
    """(start, stop) spans over `count` rows of `row_width` entries, each of
    max(1, MC_CHUNK // row_width) rows; rows of width 0 take MC_CHUNK rows."""
    rows = max(1, MC_CHUNK // max(row_width, 1))
    for start in range(0, count, rows):
        yield start, min(start + rows, count)


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
    """Sample mean with its CLT standard error (ddof=1), equal bit for bit
    to values.mean() and values.std(ddof=1) / sqrt(n): numpy's steps in
    numpy's order, on one float copy of values that is centred and squared
    in place, so 8 bytes per sample."""
    work = np.array(values, dtype=float)
    n = work.size
    if n < 2:
        raise ValueError("need at least two samples")
    mean = work.sum() / n
    work -= mean
    work *= work
    return float(mean), float(np.sqrt(work.sum() / (n - 1)) / np.sqrt(n))


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


@contextlib.contextmanager
def file_set():
    """Replace several files as one set.

    The block gets stage(path), the temporary path beside `path` to write
    its new contents to; staging a file twice, under any spelling of its
    path, raises ValueError. Leaving the block replaces the targets in the
    order staged; if a replace fails, each target already replaced gets
    its old bytes back (or is removed if it did not exist). An exception
    inside the block replaces nothing. No temporary file is left either way.
    """
    staged: dict[Path, Path] = {}
    files: set[Path] = set()  # the resolved targets

    def stage(path: str | Path) -> Path:
        path = Path(path)
        file = path.resolve()
        if file in files:
            raise ValueError(f"output {path} names a file already written by this command")
        files.add(file)
        staged[path] = path.with_name(path.name + ".tmp")
        return staged[path]

    kept: list[Path | None] = []  # each target's old bytes, kept until the set is in place
    done = 0  # targets replaced so far
    try:
        yield stage
        for i, (path, tmp) in enumerate(staged.items()):
            kept.append(None)
            # The last replace is never undone, so its target needs no copy.
            if i < len(staged) - 1 and path.exists():
                kept[i] = path.with_name(path.name + ".old")
                kept[i].unlink(missing_ok=True)
                try:
                    os.link(path, kept[i])
                except OSError:  # no hard links on this file system
                    shutil.copyfile(path, kept[i])
            os.replace(tmp, path)
            done += 1
    except BaseException:
        for path, old in reversed(list(zip(staged, kept))[:done]):
            if old is None:
                path.unlink(missing_ok=True)
            else:
                os.replace(old, path)
        raise
    finally:
        for leftover in [*staged.values(), *kept]:
            if leftover is not None:
                leftover.unlink(missing_ok=True)


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write `data` (text as UTF-8) to a temporary file beside `path`, then
    os.replace it onto `path`: a reader sees the old file or the new one,
    never a part. On failure the temporary file is removed and `path` is
    left as it was. This is file_set with one file."""
    with file_set() as stage:
        stage(path).write_bytes(data.encode() if isinstance(data, str) else data)

"""Classical distinguishing experiments against the hard distribution.

Trees here run over kN variables in block-major layout: global variable
(j-1)*N + i is coordinate i of z^(j). The advantage of a tree F is
E[F(uniform)] - E[F(D_{U,k})]; `thm_main_bound` gives the shape it is
compared against, with the unspecified big-O constant pinned to 1
(reported, never asserted; only the 10x sanity envelope is a hard test).
A randomized tree's advantage is the weighted mean of its trees'
advantages on one draw of the arms (see `advantage_corpus`).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import duk_chunks, uniform_chunks
from .dtree import (DecisionTree, Node, evaluate_rows, grow, make_constant, make_dictator,
                    make_parity, random_tree)
from .ortho import OrthogonalMatrix
from .util import sub_seed

__all__ = [
    "AdvantageReport",
    "global_index",
    "evaluate_batch",
    "advantage",
    "advantage_corpus",
    "thm_main_bound",
    "greedy_pair_tree",
    "standard_corpus",
]


def global_index(block: int, coord: int, n: int) -> int:
    """1-based global variable for coordinate `coord` of block `block`."""
    if block < 1 or coord < 1 or coord > n:
        raise ValueError("bad block/coordinate")
    return (block - 1) * n + coord


def evaluate_batch(tree: DecisionTree, batch: np.ndarray) -> np.ndarray:
    """Tree outputs, as floats, over a (m, vars) +-1 batch."""
    return evaluate_rows(tree, batch).astype(float)


@dataclass(frozen=True)
class AdvantageReport:
    tree_id: str
    estimate: float  # E[F(uniform)] - E[F(D_{U,k})]
    stderr: float
    theory_bound: float
    d: int
    k: int
    n: int
    samples: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "tree": self.tree_id,
                "estimate": self.estimate,
                "stderr": self.stderr,
                "theory_bound": self.theory_bound,
                "d": self.d,
                "k": self.k,
                "N": self.n,
                "samples": self.samples,
            },
            sort_keys=True,
        )


def advantage(
    tree: DecisionTree,
    u: OrthogonalMatrix,
    k: int,
    samples: int,
    seed: int,
    tree_id: str = "tree",
) -> AdvantageReport:
    """Two-arm Monte-Carlo estimate of the distinguishing advantage."""
    return advantage_corpus([(tree_id, tree)], u, k, samples, seed)[0]


def advantage_corpus(
    pairs: Sequence[tuple[str, DecisionTree]],
    u: OrthogonalMatrix,
    k: int,
    samples: int,
    seed: int,
) -> list[AdvantageReport]:
    """Advantage of every (tree_id, tree) pair on one draw of each arm.

    The arms' seeds do not depend on the tree, so each report equals the
    one `advantage` gives for that tree alone. Each arm is walked in the
    chunks of its sampler, and only the tree outputs are kept: one int8
    row per tree and arm, 2 bytes per sample per tree. Sums of 0/1 values
    are exact, so their mean and variance are the floats that float rows
    would give.
    """
    if samples < 2:
        raise ValueError(f"advantage needs at least 2 samples per arm, got {samples}")
    for _, tree in pairs:
        if tree.n != k * u.n:
            raise ValueError(f"tree has {tree.n} variables, expected k*N = {k * u.n}")
    outputs = np.empty((2, len(pairs), samples), dtype=np.int8)
    arms = (uniform_chunks(k, u.n, samples, sub_seed(seed, "adv-uniform")),
            duk_chunks(u, k, samples, sub_seed(seed, "adv-duk")))
    for arm, chunks in zip(outputs, arms):
        done = 0
        for chunk in chunks:
            flat = chunk.reshape(len(chunk), -1)
            for row, (_, tree) in zip(arm, pairs):
                row[done : done + len(chunk)] = evaluate_batch(tree, flat)
            done += len(chunk)
    reports = []
    for (tree_id, tree), f_uniform, f_chained in zip(pairs, *outputs):
        reports.append(AdvantageReport(
            tree_id=tree_id,
            estimate=float(f_uniform.mean() - f_chained.mean()),
            stderr=float(math.sqrt(f_uniform.var(ddof=1) / samples
                                   + f_chained.var(ddof=1) / samples)),
            theory_bound=thm_main_bound(max(tree.depth, 1), k, u.n),
            d=tree.depth,
            k=k,
            n=u.n,
            samples=samples,
        ))
    return reports


def thm_main_bound(d: int, k: int, n: int) -> float:
    """(d ln(kN))^((3k-1)/4) / N^((k-1)/2), constant pinned to 1."""
    if d < 1:
        raise ValueError("depth must be positive")
    return float((d * math.log(k * n)) ** ((3 * k - 1) / 4.0) / n ** ((k - 1) / 2.0))


# ---------------------------------------------------------------------------
# Corpus trees over the block-major layout
# ---------------------------------------------------------------------------

def greedy_pair_tree(u: OrthogonalMatrix, k: int, pairs: int) -> DecisionTree:
    """Checks the `pairs` largest |U_ab| entries (disjoint rows/columns):
    output 1 when more than half the pairs match the sign of U_ab."""
    if pairs < 1:
        raise ValueError("need at least one pair")
    mags = np.abs(u.entries.copy())
    chosen: list[tuple[int, int, int]] = []
    for _ in range(pairs):
        a, b = np.unravel_index(int(np.argmax(mags)), mags.shape)
        sign = 1 if u.entries[a, b] >= 0 else -1
        chosen.append((int(a) + 1, int(b) + 1, sign))
        mags[a, :] = -1.0
        mags[:, b] = -1.0
    # Pair i queries z^(1)_a at depth 2i and z^(2)_b at depth 2i + 1.
    queries = [global_index(block, coord, u.n)
               for a, b, _ in chosen for block, coord in ((1, a), (2, b))]

    def rule(path):
        if len(path) < len(queries):
            return Node(query_var=queries[len(path)])
        matches = sum(path[2 * i][1] * path[2 * i + 1][1] == sign
                      for i, (_, _, sign) in enumerate(chosen))
        return Node(output=int(matches > pairs / 2))

    return grow(k * u.n, rule)


def standard_corpus(u: OrthogonalMatrix, k: int, seed: int) -> list[tuple[str, DecisionTree]]:
    """Fixed illustrative families: constants, dictators, parities within
    and across blocks, greedy top-|U| pair trees, and random trees."""
    if k < 2:
        raise ValueError("fold count k must be at least 2")
    n = u.n
    if n < 2:
        raise ValueError(f"the standard corpus needs N >= 2 coordinates per block, got N = {n}")
    total = k * n
    corpus: list[tuple[str, DecisionTree]] = [
        ("const0", make_constant(total, 0)),
        ("const1", make_constant(total, 1)),
        ("dictator-b1", make_dictator(total, global_index(1, 1, n))),
        ("dictator-b2", make_dictator(total, global_index(2, 2, n))),
        ("parity-within", make_parity(total, [global_index(1, 1, n), global_index(1, 2, n)])),
        # Parity of z^(1)_1 and z^(2)_1: its advantage has the arcsine
        # closed form -(1/2) sign_correlation(U_11).
        ("parity-cross", make_parity(total, [global_index(1, 1, n), global_index(2, 1, n)])),
        ("greedy-1", greedy_pair_tree(u, k, 1)),
        ("greedy-3", greedy_pair_tree(u, k, 3)),
    ]
    for i in range(3):
        corpus.append(
            (f"random-d6-{i}", random_tree(total, 6, sub_seed(seed, "corpus", i)))
        )
    return corpus

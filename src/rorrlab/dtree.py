"""Adaptive binary decision trees and their exact sparse Fourier spectra.

Trees live in an arena of nodes indexed from the root at 0. An internal
node queries one variable and branches on its sign; leaves carry an
output bit. No variable repeats along a root-to-leaf path, so subtree
coefficients and reach probabilities are dyadic rationals (sums of
+-2^-depth), which double precision represents exactly for the depths
handled here.

Coefficients and acceptance probabilities default to the {0,1} output
convention (leaf value = leaf bit); the {-1,+1} convention maps a leaf
bit b to 2b - 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boolfn import (
    FourierSpectrum,
    OutputConvention,
    binomial,
    fourier_from_truth_table,
    validate_bit_vector,
)
from .util import derive_rng, json_int

__all__ = [
    "Node",
    "DecisionTree",
    "LeafSignature",
    "NodeStats",
    "TreeMixture",
    "evaluate_rows",
    "sparse_fourier",
    "decomposition_sides",
    "relabel_nonnegative",
    "refined_level1_sum",
    "acceptance_probability",
    "leaf_signatures",
    "make_majority",
    "make_address",
    "make_address_of_majority",
    "make_constant",
    "make_dictator",
    "make_parity",
    "random_tree",
    "mixture_spectrum",
    "level1_bound",
    "level_ell_bound",
    "tree_to_json",
    "tree_from_json",
]

# sparse_fourier's budget on sum over leaves of 2^depth(leaf), which bounds
# the number of nonzero coefficients (each lies on a subset of a leaf path).
MAX_FOURIER_WORK = 1 << 26

MAX_LEAVES = 1 << 22


@dataclass(frozen=True)
class Node:
    """Internal node (query_var set, children set) or leaf (output set)."""

    query_var: int | None = None
    child_minus: int | None = None
    child_plus: int | None = None
    output: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.query_var is None


@dataclass(frozen=True)
class LeafSignature:
    """Variables fixed on the path to one leaf, with their signs."""

    fixed: tuple[tuple[int, int], ...]  # (variable, sign) sorted by variable
    depth: int
    output: int

    def sign_sum(self) -> int:
        return sum(sign for _, sign in self.fixed)


@dataclass(frozen=True)
class NodeStats:
    """Per-node quantities used by the decomposition machinery."""

    node_id: int
    depth: int
    next_var: int
    path: tuple[tuple[int, int], ...]  # (variable, sign) along the path
    reach_probability: float  # exactly 2^-depth
    a_hat_next: float  # subtree coefficient on the queried variable ({0,1})


class DecisionTree:
    """Immutable arena-backed decision tree over n variables (1-based)."""

    def __init__(self, n: int, nodes: Sequence[Node], root: int = 0):
        self.n = n
        self.nodes = tuple(nodes)
        self.root = root
        self._depth: int | None = None
        self._stats: tuple[NodeStats, ...] | None = None
        self._leaf_cache: tuple[LeafSignature, ...] | None = None
        self._spectra: dict[OutputConvention, FourierSpectrum] = {}
        self._validate()

    def _validate(self) -> None:
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        if not self.nodes:
            raise ValueError("empty node arena")
        size = len(self.nodes)
        if not 0 <= self.root < size:
            raise ValueError(f"root {self.root} outside the arena of {size} nodes")
        for idx, node in enumerate(self.nodes):
            for child in (node.child_minus, node.child_plus):
                if child is not None and not 0 <= child < size:
                    raise ValueError(f"node {idx} has child {child} outside the arena "
                                     f"of {size} nodes")
        seen_vars: list[int] = []

        def walk(idx: int, depth: int) -> None:
            node = self.nodes[idx]
            if node.is_leaf:
                if node.output not in (0, 1):
                    raise ValueError(f"leaf {idx} output must be a bit")
                return
            var = node.query_var
            if not (1 <= var <= self.n):
                raise ValueError(f"node {idx} queries variable {var} outside [1,{self.n}]")
            if var in seen_vars:
                raise ValueError(f"variable {var} repeats along a path")
            if node.child_minus is None or node.child_plus is None:
                raise ValueError(f"internal node {idx} missing a child")
            seen_vars.append(var)
            walk(node.child_minus, depth + 1)
            walk(node.child_plus, depth + 1)
            seen_vars.pop()

        walk(self.root, 0)

    @property
    def depth(self) -> int:
        if self._depth is None:
            self._depth = max((leaf.depth for leaf in leaf_signatures(self)), default=0)
        return self._depth

    def evaluate(self, x: Sequence[int]) -> int:
        point = validate_bit_vector(x)
        if point.size != self.n:
            raise ValueError(f"input has {point.size} entries, expected {self.n}")
        return int(evaluate_rows(self, point[np.newaxis, :])[0])

    def truth_table(self) -> np.ndarray:
        """Dense 0/1 table in position order; guarded to n <= 20."""
        if self.n > 20:
            raise ValueError("truth table limited to n <= 20")
        # Row b is point_from_index(b, n): bit i of b set means x_{i+1} = -1.
        index = np.arange(1 << self.n)
        points = np.empty((index.size, self.n), dtype=np.int8)
        for i in range(self.n):
            points[:, i] = 1 - 2 * ((index >> i) & 1)
        return evaluate_rows(self, points)

    def node_stats(self) -> tuple[NodeStats, ...]:
        """Stats for every internal node; built once, tree is immutable."""
        if self._stats is None:
            accept = _subtree_acceptance(self)
            rows: list[NodeStats] = []

            def walk(idx: int, depth: int, path: tuple[tuple[int, int], ...]) -> None:
                node = self.nodes[idx]
                if node.is_leaf:
                    return
                a_hat = 0.5 * (accept[node.child_plus] - accept[node.child_minus])
                rows.append(
                    NodeStats(
                        node_id=idx,
                        depth=depth,
                        next_var=node.query_var,
                        path=path,
                        reach_probability=0.5**depth,
                        a_hat_next=a_hat,
                    )
                )
                walk(node.child_minus, depth + 1, path + ((node.query_var, -1),))
                walk(node.child_plus, depth + 1, path + ((node.query_var, 1),))

            walk(self.root, 0, ())
            self._stats = tuple(rows)
        return self._stats


def _subtree_acceptance(tree: DecisionTree) -> dict[int, float]:
    """Uniform acceptance probability of the subtree below each node."""
    accept: dict[int, float] = {}

    def walk(idx: int) -> float:
        node = tree.nodes[idx]
        if node.is_leaf:
            accept[idx] = float(node.output)
        else:
            accept[idx] = 0.5 * (walk(node.child_minus) + walk(node.child_plus))
        return accept[idx]

    walk(tree.root)
    return accept


def evaluate_rows(tree: DecisionTree, batch: np.ndarray) -> np.ndarray:
    """Output bits (int8) of the tree on every row of an (m, n) +-1 batch.

    Row indices start together at the root; each internal node splits
    its rows with one mask on the queried column (entry 1 goes to the
    plus child, anything else to the minus child) and each leaf writes
    its output to its rows. Nodes no row reaches are never visited.
    """
    if batch.ndim != 2 or batch.shape[1] != tree.n:
        raise ValueError(f"batch shape {batch.shape} does not give {tree.n} variables per row")
    out = np.empty(batch.shape[0], dtype=np.int8)
    frontier = [(tree.root, np.arange(batch.shape[0]))]
    while frontier:
        idx, rows = frontier.pop()
        node = tree.nodes[idx]
        if node.is_leaf:
            out[rows] = node.output
            continue
        plus = batch[rows, node.query_var - 1] == 1
        for child, part in ((node.child_plus, rows[plus]), (node.child_minus, rows[~plus])):
            if part.size:
                frontier.append((child, part))
    return out


def acceptance_probability(tree: DecisionTree) -> float:
    """Pr[f(x) = 1] under the uniform distribution (exact dyadic)."""
    return _subtree_acceptance(tree)[tree.root]


def leaf_signatures(tree: DecisionTree) -> tuple[LeafSignature, ...]:
    if tree._leaf_cache is None:
        leaves: list[LeafSignature] = []

        def walk(idx: int, fixed: list[tuple[int, int]]) -> None:
            if len(leaves) > MAX_LEAVES:
                raise ValueError("tree too large to enumerate leaves")
            node = tree.nodes[idx]
            if node.is_leaf:
                leaves.append(
                    LeafSignature(
                        fixed=tuple(sorted(fixed)),
                        depth=len(fixed),
                        output=node.output,
                    )
                )
                return
            fixed.append((node.query_var, -1))
            walk(node.child_minus, fixed)
            fixed[-1] = (node.query_var, 1)
            walk(node.child_plus, fixed)
            fixed.pop()

        walk(tree.root, [])
        tree._leaf_cache = tuple(leaves)
    return tree._leaf_cache


def sparse_fourier(
    tree: DecisionTree,
    convention: OutputConvention = OutputConvention.ZERO_ONE,
) -> FourierSpectrum:
    """Exact spectrum merged bottom-up on bitmask subsets: at a node querying
    x_i, f = (f_minus + f_plus)/2 + x_i (f_plus - f_minus)/2. All terms are
    dyadic, so the result is exact and agrees with the dense transform
    whenever that fits."""
    cached = tree._spectra.get(convention)
    if cached is not None:
        return cached
    if sum(1 << leaf.depth for leaf in leaf_signatures(tree)) > MAX_FOURIER_WORK:
        raise ValueError("tree too deep for exact sparse Fourier budget")
    leaf_value = (0.0 if convention == OutputConvention.ZERO_ONE else -1.0, 1.0)

    def walk(idx: int) -> dict[int, float]:
        node = tree.nodes[idx]
        if node.is_leaf:
            value = leaf_value[node.output]
            return {0: value} if value else {}
        minus, plus = walk(node.child_minus), walk(node.child_plus)
        bit = 1 << (node.query_var - 1)
        merged: dict[int, float] = {}
        for mask in minus.keys() | plus.keys():
            a, b = minus.get(mask, 0.0), plus.get(mask, 0.0)
            if a + b:
                merged[mask] = 0.5 * (a + b)
            if b - a:
                merged[mask | bit] = 0.5 * (b - a)
        return merged

    coeffs = sorted((_mask_subset(mask), c) for mask, c in walk(tree.root).items())
    spec = FourierSpectrum(n=tree.n, coeffs=dict(coeffs))
    tree._spectra[convention] = spec
    return spec


def _mask_subset(mask: int) -> tuple[int, ...]:
    """The 1-based variables whose bits are set in mask, increasing."""
    subset = []
    while mask:
        subset.append((mask & -mask).bit_length())
        mask &= mask - 1
    return tuple(subset)


def decomposition_sides(
    tree: DecisionTree,
    subset: Sequence[int],
    convention: OutputConvention = OutputConvention.ZERO_ONE,
) -> tuple[float, float]:
    """Both sides of the coefficient decomposition identity for a set S.

    Left: f_hat(S) read off the sparse spectrum. Right: sum over nodes v
    querying some j in S whose path has fixed S minus j, of
    B_v_hat(S \\ {j}) * A_v_hat({j}). The two agree exactly.
    """
    s = tuple(sorted(set(subset)))
    if not s:
        raise ValueError("decomposition requires a non-empty subset")
    lhs = sparse_fourier(tree, convention).coefficient(s)
    scale = 1.0 if convention == OutputConvention.ZERO_ONE else 2.0
    rhs = 0.0
    for stats in tree.node_stats():
        j = stats.next_var
        if j not in s:
            continue
        rest = tuple(i for i in s if i != j)
        path_signs = dict(stats.path)
        sign = 1
        ok = True
        for i in rest:
            if i not in path_signs:
                ok = False
                break
            sign *= path_signs[i]
        if not ok:
            continue
        b_hat = stats.reach_probability * sign
        rhs += b_hat * stats.a_hat_next * scale
    return lhs, rhs


def relabel_nonnegative(tree: DecisionTree) -> DecisionTree:
    """Swap children wherever the queried variable's subtree coefficient
    is negative, making every A_v_hat({next(v)}) >= 0.

    Pure relabeling: same graph, same reach probabilities, same
    acceptance probability.
    """
    accept = _subtree_acceptance(tree)
    new_nodes = []
    for idx, node in enumerate(tree.nodes):
        # Nodes the root cannot reach have no acceptance value; copy them.
        if node.is_leaf or idx not in accept:
            new_nodes.append(node)
            continue
        if accept[node.child_plus] < accept[node.child_minus]:
            new_nodes.append(
                Node(
                    query_var=node.query_var,
                    child_minus=node.child_plus,
                    child_plus=node.child_minus,
                )
            )
        else:
            new_nodes.append(node)
    return DecisionTree(tree.n, new_nodes, tree.root)


def refined_level1_sum(
    tree: DecisionTree,
    d_lo: int,
    d_hi: int,
    convention: OutputConvention = OutputConvention.ZERO_ONE,
) -> float:
    """Sum of p_v * |A_v_hat({next(v)})| over nodes in layers [d_lo, d_hi)."""
    if d_lo < 0 or d_hi <= d_lo or d_hi > max(1, tree.depth):
        raise ValueError(f"bad layer range [{d_lo}, {d_hi}) for depth {tree.depth}")
    scale = 1.0 if convention == OutputConvention.ZERO_ONE else 2.0
    return sum(
        stats.reach_probability * abs(stats.a_hat_next) * scale
        for stats in tree.node_stats()
        if d_lo <= stats.depth < d_hi
    )


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------

def make_constant(n: int, bit: int) -> DecisionTree:
    if bit not in (0, 1):
        raise ValueError("constant output must be a bit")
    return DecisionTree(n, [Node(output=bit)])


def make_dictator(n: int, var: int) -> DecisionTree:
    """Outputs 1 exactly when x_var = +1."""
    nodes = [Node(query_var=var, child_minus=1, child_plus=2), Node(output=0), Node(output=1)]
    return DecisionTree(n, nodes)


def make_parity(n: int, variables: Sequence[int]) -> DecisionTree:
    """Outputs 1 exactly when the product over `variables` is +1."""
    variables = list(variables)
    if not variables:
        raise ValueError("parity needs at least one variable")
    nodes: list[Node] = []

    def build(idx: int, prod: int) -> int:
        if idx == len(variables):
            nodes.append(Node(output=1 if prod == 1 else 0))
            return len(nodes) - 1
        here = len(nodes)
        nodes.append(Node())  # placeholder
        minus = build(idx + 1, -prod)
        plus = build(idx + 1, prod)
        nodes[here] = Node(query_var=variables[idx], child_minus=minus, child_plus=plus)
        return here

    root = build(0, 1)
    return DecisionTree(n, nodes, root)


def make_majority(d: int) -> DecisionTree:
    """Majority vote of x_1..x_d (d odd): queries until one side wins."""
    if d % 2 == 0:
        raise ValueError("majority is defined for odd d")
    if d > 21:
        raise ValueError("majority construction limited to d <= 21")
    win = (d + 1) // 2
    nodes: list[Node] = []

    def build(next_var: int, plus: int, minus: int) -> int:
        if plus >= win:
            nodes.append(Node(output=1))
            return len(nodes) - 1
        if minus >= win:
            nodes.append(Node(output=0))
            return len(nodes) - 1
        here = len(nodes)
        nodes.append(Node())
        lo = build(next_var + 1, plus, minus + 1)
        hi = build(next_var + 1, plus + 1, minus)
        nodes[here] = Node(query_var=next_var, child_minus=lo, child_plus=hi)
        return here

    root = build(1, 0, 0)
    return DecisionTree(d, nodes, root)


def _address_pointer(index_signs: Sequence[int]) -> int:
    """1-based array slot selected by the index bits (+1 reads as bit 1)."""
    slot = 0
    for i, sign in enumerate(index_signs):
        if sign == 1:
            slot |= 1 << i
    return slot + 1


def make_address(d: int) -> DecisionTree:
    """Address function: d index variables select one of 2^d array variables.

    Variables 1..d are the index, d+1..d+2^d the array. Output bit is 1
    exactly when the selected array entry is +1. Depth d+1.
    """
    if d < 1 or d > 4:
        raise ValueError("address construction limited to 1 <= d <= 4")
    n = d + (1 << d)
    nodes: list[Node] = []

    def build(level: int, signs: list[int]) -> int:
        if level > d:
            slot = _address_pointer(signs)
            here = len(nodes)
            nodes.append(Node())
            nodes.append(Node(output=0))
            nodes.append(Node(output=1))
            nodes[here] = Node(query_var=d + slot, child_minus=here + 1, child_plus=here + 2)
            return here
        here = len(nodes)
        nodes.append(Node())
        signs.append(-1)
        lo = build(level + 1, signs)
        signs[-1] = 1
        hi = build(level + 1, signs)
        signs.pop()
        nodes[here] = Node(query_var=level, child_minus=lo, child_plus=hi)
        return here

    root = build(1, [])
    return DecisionTree(n, nodes, root)


def make_address_of_majority(d: int) -> DecisionTree:
    """Address with each array variable replaced by a majority of d fresh
    variables. Variables 1..d index; block j occupies d+(j-1)d+1..d+jd.
    Depth 2d.
    """
    if d % 2 == 0:
        raise ValueError("majority blocks need odd d")
    if d > 3:
        raise ValueError("composition limited to d <= 3")
    n = d + (1 << d) * d
    nodes: list[Node] = []

    def build_majority(base: int, next_offset: int, plus: int, minus: int) -> int:
        win = (d + 1) // 2
        if plus >= win:
            nodes.append(Node(output=1))
            return len(nodes) - 1
        if minus >= win:
            nodes.append(Node(output=0))
            return len(nodes) - 1
        here = len(nodes)
        nodes.append(Node())
        lo = build_majority(base, next_offset + 1, plus, minus + 1)
        hi = build_majority(base, next_offset + 1, plus + 1, minus)
        nodes[here] = Node(query_var=base + next_offset, child_minus=lo, child_plus=hi)
        return here

    def build_index(level: int, signs: list[int]) -> int:
        if level > d:
            slot = _address_pointer(signs)
            base = d + (slot - 1) * d
            return build_majority(base, 1, 0, 0)
        here = len(nodes)
        nodes.append(Node())
        signs.append(-1)
        lo = build_index(level + 1, signs)
        signs[-1] = 1
        hi = build_index(level + 1, signs)
        signs.pop()
        nodes[here] = Node(query_var=level, child_minus=lo, child_plus=hi)
        return here

    root = build_index(1, [])
    return DecisionTree(n, nodes, root)


def random_tree(n: int, d: int, seed: int) -> DecisionTree:
    """Full binary tree of depth exactly d with non-repeating query paths
    and uniform leaf bits; deterministic for a given seed.
    """
    if d > n:
        raise ValueError(f"depth {d} exceeds variable count {n}")
    rng = derive_rng(seed, "random-tree", n, d)
    nodes: list[Node] = []

    def build(level: int, used: list[int]) -> int:
        if level == d:
            nodes.append(Node(output=int(rng.integers(0, 2))))
            return len(nodes) - 1
        free = [v for v in range(1, n + 1) if v not in used]
        var = int(free[rng.integers(0, len(free))])
        here = len(nodes)
        nodes.append(Node())
        used.append(var)
        lo = build(level + 1, used)
        hi = build(level + 1, used)
        used.pop()
        nodes[here] = Node(query_var=var, child_minus=lo, child_plus=hi)
        return here

    root = build(0, [])
    return DecisionTree(n, nodes, root)


# ---------------------------------------------------------------------------
# Randomized trees (finite mixtures)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeMixture:
    """Randomized decision tree as an explicit finite mixture."""

    components: tuple[tuple[float, DecisionTree], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        total = sum(w for w, _ in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        sizes = {t.n for _, t in self.components}
        if len(sizes) != 1:
            raise ValueError("mixture components must share a variable count")

    @property
    def n(self) -> int:
        return self.components[0][1].n

    @property
    def depth(self) -> int:
        return max(t.depth for _, t in self.components)

    def evaluate(self, x: Sequence[int]) -> float:
        return sum(w * t.evaluate(x) for w, t in self.components)


def mixture_spectrum(
    mixture: TreeMixture,
    convention: OutputConvention = OutputConvention.ZERO_ONE,
) -> FourierSpectrum:
    """Convex combination of the component spectra."""
    coeffs: dict[tuple[int, ...], float] = {}
    for weight, tree in mixture.components:
        for s, c in sparse_fourier(tree, convention).coeffs.items():
            coeffs[s] = coeffs.get(s, 0.0) + weight * c
    coeffs = {s: c for s, c in coeffs.items() if c != 0.0}
    return FourierSpectrum(n=mixture.n, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Level-bound evaluators ({0,1} convention, p = acceptance probability)
# ---------------------------------------------------------------------------

def level1_bound(d: int, p: float, constant: float = 10.0) -> float:
    """C * sqrt(d) * p * sqrt(ln(e/p)); zero at p = 0."""
    if p <= 0.0:
        return 0.0
    return constant * math.sqrt(d) * p * math.sqrt(math.log(math.e / p))


def level_ell_bound(
    d: int,
    n_vars: int,
    p: float,
    ell: int,
    constant: float = 32.0,
    variant: str = "log2",
) -> float:
    """sqrt(C^ell * binom(d, ell)) * p * prod_i sqrt(log(4 n^i / p)).

    variant "log2" uses log2(4 n^i / p) (the looser reading); variant
    "ln" uses ln(e n^i / p). Both are reported by the corpus tooling.
    """
    if p <= 0.0:
        return 0.0
    if ell == 0:
        return p
    product = 1.0
    for i in range(ell):
        if variant == "log2":
            term = math.log2(4.0 * n_vars**i / p)
        elif variant == "ln":
            term = math.log(math.e * n_vars**i / p)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        product *= math.sqrt(term)
    return math.sqrt(constant**ell * binomial(d, ell)) * p * product


# ---------------------------------------------------------------------------
# Serialization: nodes list with 0-based "q", children ids, leaf "out"
# ---------------------------------------------------------------------------

def tree_to_json(tree: DecisionTree) -> str:
    nodes = []
    for node in tree.nodes:
        if node.is_leaf:
            nodes.append({"q": None, "lo": None, "hi": None, "out": node.output})
        else:
            nodes.append(
                {
                    "q": node.query_var - 1,
                    "lo": node.child_minus,
                    "hi": node.child_plus,
                    "out": None,
                }
            )
    return json.dumps({"n": tree.n, "root": tree.root, "nodes": nodes}, sort_keys=True)


def tree_from_json(text: str) -> DecisionTree:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise ValueError('tree JSON must be an object with a "nodes" list')
    nodes = []
    for idx, row in enumerate(doc["nodes"]):
        if not isinstance(row, dict):
            raise ValueError(f"tree node {idx} must be an object")
        if row.get("q") is None:
            nodes.append(Node(output=json_int(row.get("out"), f"node {idx} out")))
        else:
            nodes.append(
                Node(
                    query_var=json_int(row["q"], f"node {idx} q") + 1,
                    child_minus=json_int(row.get("lo"), f"node {idx} lo"),
                    child_plus=json_int(row.get("hi"), f"node {idx} hi"),
                )
            )
    return DecisionTree(json_int(doc.get("n"), "n"), nodes,
                        json_int(doc.get("root", 0), "root"))


def cross_check_spectrum(tree: DecisionTree, convention: OutputConvention) -> float:
    """Max |sparse - dense| coefficient difference (n <= 20 only)."""
    table = tree.truth_table().astype(float)
    if convention == OutputConvention.PLUS_MINUS_ONE:
        table = 2.0 * table - 1.0
    dense = fourier_from_truth_table(table, tree.n)
    sparse = sparse_fourier(tree, convention)
    keys = set(dense.coeffs) | set(sparse.coeffs)
    return max(
        (abs(dense.coefficient(k) - sparse.coefficient(k)) for k in keys),
        default=0.0,
    )

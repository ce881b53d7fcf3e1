"""Adaptive binary decision trees and their exact sparse Fourier spectra.

Trees live in an arena of nodes indexed from the root at 0. An internal
node queries one variable and branches on its sign; leaves carry an
output bit. No variable repeats along a root-to-leaf path, so subtree
coefficients and reach probabilities are dyadic rationals (sums of
+-2^-depth), which double precision represents exactly for the depths
handled here.

Every family and random tree here is grown by `grow` from a rule that
maps the path to a node onto that node's query or leaf bit.

Spectra are merged in the {0,1} output convention (leaf value = leaf
bit), as are acceptance probabilities; a {-1,+1} spectrum is that one
under `boolfn.convert_spectrum`.
"""
from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .boolfn import (
    FourierSpectrum,
    OutputConvention,
    MAX_FILE_VARS,
    binomial,
    convert_spectrum,
    point_from_index,
)
from .util import derive_rng, json_int

__all__ = [
    "Node",
    "DecisionTree",
    "evaluate_rows",
    "grow",
    "sparse_fourier",
    "decomposition_sides",
    "next_var_coefficients",
    "relabel_nonnegative",
    "refined_level1_sum",
    "acceptance_probability",
    "make_majority",
    "make_address",
    "make_address_of_majority",
    "make_constant",
    "make_dictator",
    "make_parity",
    "random_tree",
    "check_random_tree_shape",
    "level1_bound",
    "level_ell_bound",
    "tree_to_json",
    "tree_from_json",
]

# sparse_fourier's budget on sum over leaves of 2^depth(leaf), which bounds
# the number of nonzero coefficients (each lies on a subset of a leaf path).
MAX_FOURIER_WORK = 1 << 26

# Leaf budget of every tree, a count of its leaf nodes.
MAX_LEAVES = 1 << 22


class Node(NamedTuple):
    """Internal node (query_var set, children set) or leaf (output set)."""

    query_var: int | None = None
    child_minus: int | None = None
    child_plus: int | None = None
    output: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.query_var is None


class DecisionTree:
    """Immutable arena-backed decision tree over n variables (1-based).

    The nodes the root reaches must form a tree: each has one parent, and
    a node reached a second time (a shared subtree, a shared leaf or a
    cycle) is refused. Nodes the root cannot reach are only range-checked.
    The constructor walks the tree once in pre-order, minus child first,
    on an explicit stack, holding the set of the variables on the current
    path: it checks each node, refuses a variable repeated along a path
    and counts the leaves (at most MAX_LEAVES). Leaving an internal node,
    it computes the node's depth, Fourier work (sum of 2^depth over the
    leaves, saturated past MAX_FOURIER_WORK) and acceptance from its two
    subtrees'. Every later tree pass reads the same pre-order.
    """

    def __init__(self, n: int, nodes: Sequence[Node], root: int = 0):
        self.n = n
        self.nodes = tuple(nodes)
        self.root = root
        self._spectrum: FourierSpectrum | None = None  # {0,1}, built on first use
        self._visits: list[tuple[int, int, int, float]] | None = None
        self._order, self.depth, self._fourier_work, self._accept = self._validate()

    def _validate(self) -> tuple[list[int], int, int, dict[int, float]]:
        n, nodes, root = self.n, self.nodes, self.root
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        if not nodes:
            raise ValueError("empty node arena")
        size = len(nodes)
        if not 0 <= root < size:
            raise ValueError(f"root {root} outside the arena of {size} nodes")
        for idx, node in enumerate(nodes):
            for child in (node.child_minus, node.child_plus):
                if child is not None and not 0 <= child < size:
                    raise ValueError(f"node {idx} has child {child} outside the arena "
                                     f"of {size} nodes")
        order: list[int] = []  # the reachable nodes in pre-order, minus child first
        reached = bytearray(size)
        path: set[int] = set()  # the variables queried above the node entered
        below: list[tuple[int, int]] = []  # (depth, Fourier work) of subtrees awaiting a parent
        accept: dict[int, float] = {}  # uniform acceptance of the subtree below each node
        leaves = 0
        stack = [root]  # a node to enter, or ~node to leave once its subtree is done
        pop, push = stack.pop, stack.append
        while stack:
            idx = pop()
            if idx < 0:  # both subtrees are done, and the plus one was left last
                node = nodes[~idx]
                path.remove(node.query_var)
                (depth1, work1), (depth0, work0) = below.pop(), below.pop()  # plus, then minus
                below.append((1 + max(depth0, depth1), min(2 * (work0 + work1), MAX_FOURIER_WORK + 1)))
                accept[~idx] = 0.5 * (accept[node.child_minus] + accept[node.child_plus])
                continue
            if reached[idx]:
                raise ValueError(f"node {idx} is reached twice: the arena is not a tree")
            reached[idx] = 1
            order.append(idx)
            node = nodes[idx]
            var = node.query_var
            if var is None:
                if node.output not in (0, 1):
                    raise ValueError(f"leaf {idx} output must be a bit")
                leaves += 1
                if leaves > MAX_LEAVES:
                    raise ValueError(f"tree has more than MAX_LEAVES = {MAX_LEAVES} leaves")
                below.append((0, 1))
                accept[idx] = float(node.output)
                continue
            if not 1 <= var <= n:
                raise ValueError(f"node {idx} queries variable {var} outside [1,{n}]")
            if node.child_minus is None or node.child_plus is None:
                raise ValueError(f"internal node {idx} missing a child")
            if var in path:
                raise ValueError(f"variable {var} repeats along a path")
            path.add(var)
            push(~idx)
            push(node.child_plus)
            push(node.child_minus)
        return order, *below.pop(), accept  # the root's depth and Fourier work

    def truth_table(self) -> np.ndarray:
        """Dense 0/1 table in position order; guarded to n <= 20."""
        if self.n > 20:
            raise ValueError("truth table limited to n <= 20")
        return evaluate_rows(self, point_from_index(np.arange(1 << self.n), self.n))


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
    return tree._accept[tree.root]


def sparse_fourier(
    tree: DecisionTree,
    convention: OutputConvention = OutputConvention.ZERO_ONE,
) -> FourierSpectrum:
    """Exact spectrum, merged once per tree in {0,1} on bitmask subsets from
    the leaves up: at a node querying x_i, f = (f_minus + f_plus)/2 + x_i
    (f_plus - f_minus)/2. All terms are dyadic, so the result and its +-1
    image are exact and agree with the dense transform whenever that fits."""
    if tree._spectrum is None:
        if tree._fourier_work > MAX_FOURIER_WORK:
            raise ValueError("tree too deep for exact sparse Fourier budget")
        nodes = tree.nodes
        spectra: list[dict[int, float]] = []  # one per subtree whose parent is still ahead
        for idx in reversed(tree._order):  # children before parents, plus child first
            node = nodes[idx]
            if node.is_leaf:
                spectra.append({0: 1.0} if node.output else {})
                continue
            minus, plus = spectra.pop(), spectra.pop()
            bit = 1 << (node.query_var - 1)
            merged: dict[int, float] = {}
            for mask, b in plus.items():
                a = minus.pop(mask, 0.0)
                if a + b:
                    merged[mask] = 0.5 * (a + b)
                if b - a:
                    merged[mask | bit] = 0.5 * (b - a)
            # What is left of minus has b = 0; spectra hold no zeros.
            for mask, a in minus.items():
                merged[mask] = 0.5 * a
                merged[mask | bit] = -0.5 * a
            spectra.append(merged)
        # Unions of the bits of variables the valid tree queries: keys in range.
        masks = spectra.pop()
        tree._spectrum = FourierSpectrum._trusted(tree.n, masks, max(masks, default=0).bit_length())
    spec = tree._spectrum
    return spec if convention == OutputConvention.ZERO_ONE else convert_spectrum(spec, convention)


def next_var_coefficients(tree: DecisionTree) -> dict[int, float]:
    """A_v_hat({next(v)}) = (acceptance below the plus child - acceptance
    below the minus child) / 2 for every reachable internal node v, in the
    {0,1} convention: the subtree's coefficient on the variable v queries,
    read from the acceptances the constructor recorded."""
    accept, nodes = tree._accept, tree.nodes
    return {idx: 0.5 * (accept[node.child_plus] - accept[node.child_minus])
            for idx in accept if not (node := nodes[idx]).is_leaf}


def _visits(tree: DecisionTree) -> list[tuple[int, int, int, float]]:
    """(bit of next(v), path variables, path variables set to -1,
    2^-depth(v) * A_v_hat) for each internal node v in pre-order, with the
    path masks carried top-down; depth(v) is the path variables' count."""
    if tree._visits is None:
        a_hat, nodes = next_var_coefficients(tree), tree.nodes
        masks = {tree.root: (0, 0)}  # (fixed, minus) of each node still ahead
        visits = []
        for idx in tree._order:
            fixed, minus = masks.pop(idx)
            node = nodes[idx]
            if not node.is_leaf:
                bit = 1 << (node.query_var - 1)
                masks[node.child_minus] = (fixed | bit, minus | bit)
                masks[node.child_plus] = (fixed | bit, minus)
                visits.append((bit, fixed, minus, 0.5 ** fixed.bit_count() * a_hat[idx]))
        tree._visits = visits
    return tree._visits


def decomposition_sides(tree: DecisionTree, subset: Sequence[int]) -> tuple[float, float]:
    """Both sides of the coefficient decomposition identity for a set S,
    in the {0,1} convention.

    Left: f_hat(S) read off the sparse spectrum. Right: sum over internal
    nodes v querying some j in S whose path has fixed S minus j, of
    B_v_hat(S \\ {j}) * A_v_hat({j}), where B_v_hat(S \\ {j}) is 2^-depth(v)
    times the path's signs on S minus j. The two agree exactly.
    """
    s = tuple(sorted(set(subset)))
    if not s:
        raise ValueError("decomposition requires a non-empty subset")
    lhs = sparse_fourier(tree).coefficient(s)
    smask = sum(1 << (i - 1) for i in s)
    rhs = 0.0
    for bit, fixed, minus, term in _visits(tree):
        rest = smask ^ bit
        if smask & bit and not rest & ~fixed:
            rhs += -term if (rest & minus).bit_count() & 1 else term
    return lhs, rhs


def relabel_nonnegative(tree: DecisionTree) -> DecisionTree:
    """Swap children wherever the queried variable's subtree coefficient
    is negative, making every A_v_hat({next(v)}) >= 0.

    Pure relabeling: same tree, same reach probabilities, same acceptance
    probability. Nodes the root cannot reach are copied.
    """
    swap = {idx for idx, a_hat in next_var_coefficients(tree).items() if a_hat < 0}
    nodes = [node._replace(child_minus=node.child_plus, child_plus=node.child_minus)
             if idx in swap else node for idx, node in enumerate(tree.nodes)]
    return DecisionTree(tree.n, nodes, tree.root)


def refined_level1_sum(tree: DecisionTree, d_lo: int, d_hi: int) -> float:
    """Sum of p_v * |A_v_hat({next(v)})| over the internal nodes v in layers
    [d_lo, d_hi), p_v = 2^-depth(v), in the {0,1} convention."""
    if d_lo < 0 or d_hi <= d_lo or d_hi > max(1, tree.depth):
        raise ValueError(f"bad layer range [{d_lo}, {d_hi}) for depth {tree.depth}")
    return sum(abs(term) for _, fixed, _, term in _visits(tree)
               if d_lo <= fixed.bit_count() < d_hi)


# ---------------------------------------------------------------------------
# The tree builder and the standard families
# ---------------------------------------------------------------------------

def grow(n: int, rule: Callable[[tuple[tuple[int, int], ...]], Node]) -> DecisionTree:
    """Build a tree from a rule of the path.

    rule(path) gets the (variable, sign) pairs from the root to a node
    and returns it childless: Node(query_var=v) or Node(output=b). Nodes
    are numbered, and rule is called, in pre-order with the minus child
    first; an explicit stack stands in for recursion, so any depth works.
    The leaf budget is the constructor's, refused at leaf MAX_LEAVES + 1.
    """
    nodes: list[Node] = []
    leaves = 0
    stack = [((), None)]  # (path to a node, the parent whose plus child it is)
    while stack:
        path, parent = stack.pop()
        here = len(nodes)
        if parent is not None:  # the parent's minus subtree, from parent + 1, is done
            nodes[parent] = nodes[parent]._replace(child_minus=parent + 1, child_plus=here)
        node = rule(path)
        nodes.append(node)
        var = node.query_var
        if var is None:
            leaves += 1
            if leaves > MAX_LEAVES:
                raise ValueError(f"tree has more than MAX_LEAVES = {MAX_LEAVES} leaves")
            continue
        if len(path) >= n:
            raise ValueError(f"rule queries more than {n} variables on one path")
        stack.append((path + ((var, 1),), here))
        stack.append((path + ((var, -1),), None))
    return DecisionTree(n, nodes)


def make_constant(n: int, bit: int) -> DecisionTree:
    if bit not in (0, 1):
        raise ValueError("constant output must be a bit")
    return DecisionTree(n, [Node(output=bit)])


def make_dictator(n: int, var: int) -> DecisionTree:
    """Outputs 1 exactly when x_var = +1."""
    return make_parity(n, [var])


def make_parity(n: int, variables: Sequence[int]) -> DecisionTree:
    """Outputs 1 exactly when the product over `variables` is +1."""
    variables = list(variables)
    if not variables:
        raise ValueError("parity needs at least one variable")

    def rule(path):
        if len(path) < len(variables):
            return Node(query_var=variables[len(path)])
        return Node(output=int(math.prod(sign for _, sign in path) == 1))

    return grow(n, rule)


def _majority_step(votes: Sequence[tuple[int, int]], d: int, next_var: int) -> Node:
    """Majority of d votes after the (variable, sign) pairs `votes`: the
    winning bit once one side has (d + 1) / 2 votes, else a query of
    next_var."""
    win = (d + 1) // 2
    plus = (len(votes) + sum(map(itemgetter(1), votes))) // 2
    if plus >= win:
        return Node(output=1)
    if len(votes) - plus >= win:
        return Node(output=0)
    return Node(query_var=next_var)


def make_majority(d: int) -> DecisionTree:
    """Majority vote of x_1..x_d (d odd): queries until one side wins."""
    if d % 2 == 0:
        raise ValueError("majority is defined for odd d")
    if d > 21:
        raise ValueError("majority construction limited to d <= 21")
    return grow(d, lambda path: _majority_step(path, d, len(path) + 1))


def _address_slot(path: Sequence[tuple[int, int]], d: int) -> int:
    """0-based array slot selected by the first d (index) signs of the
    path; index variable i with sign +1 sets bit i - 1."""
    return sum(1 << i for i, (_, sign) in enumerate(path[:d]) if sign == 1)


def make_address(d: int) -> DecisionTree:
    """Address function: d index variables select one of 2^d array variables.

    Variables 1..d are the index, d+1..d+2^d the array. Output bit is 1
    exactly when the selected array entry is +1. Depth d+1.
    """
    if d < 1 or d > 4:
        raise ValueError("address construction limited to 1 <= d <= 4")

    def rule(path):
        if len(path) < d:
            return Node(query_var=len(path) + 1)
        if len(path) == d:
            return Node(query_var=d + _address_slot(path, d) + 1)
        return Node(output=int(path[-1][1] == 1))

    return grow(d + (1 << d), rule)


def make_address_of_majority(d: int) -> DecisionTree:
    """Address with each array variable replaced by a majority of d fresh
    variables. Variables 1..d index; block j occupies d+(j-1)d+1..d+jd.
    Depth 2d.
    """
    if d % 2 == 0:
        raise ValueError("majority blocks need odd d")
    if d > 3:
        raise ValueError("composition limited to d <= 3")

    def rule(path):
        if len(path) < d:
            return Node(query_var=len(path) + 1)
        # Vote len(path) - d + 1 of the block that follows variable d + slot * d.
        return _majority_step(path[d:], d, _address_slot(path, d) * d + len(path) + 1)

    return grow(d + (1 << d) * d, rule)


def random_tree(n: int, d: int, seed: int) -> DecisionTree:
    """Full binary tree of depth exactly d with non-repeating query paths
    and uniform leaf bits; deterministic for a given seed.
    """
    check_random_tree_shape(n, d)
    rng = derive_rng(seed, "random-tree", n, d)

    def rule(path):
        if len(path) == d:
            return Node(output=int(rng.integers(0, 2)))
        used = {var for var, _ in path}
        free = [v for v in range(1, n + 1) if v not in used]
        return Node(query_var=free[rng.integers(0, len(free))])

    return grow(n, rule)


def check_random_tree_shape(n: int, d: int) -> None:
    """Refuse a depth random_tree cannot build: above the variable count,
    negative, or with more than MAX_LEAVES leaves."""
    if d > n:
        raise ValueError(f"depth {d} exceeds variable count {n}")
    if d < 0 or 2**d > MAX_LEAVES:
        raise ValueError(f"depth {d} outside 0..{MAX_LEAVES.bit_length() - 1} "
                         f"(at most {MAX_LEAVES} leaves)")


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
) -> float:
    """sqrt(C^ell * binom(d, ell)) * p * prod_i sqrt(log2(4 n^i / p)).

    log2(4 n^i / p) is the looser reading of the log factor; it dominates
    ln(e n^i / p).
    """
    if p <= 0.0:
        return 0.0
    product = 1.0
    for i in range(ell):
        product *= math.sqrt(math.log2(4.0 * n_vars**i / p))
    return math.sqrt(constant**ell * binomial(d, ell)) * p * product


# ---------------------------------------------------------------------------
# Serialization: nodes list with 0-based "q", children ids, leaf "out"
# ---------------------------------------------------------------------------

def tree_to_json(tree: DecisionTree) -> str:
    nodes = [{"q": None, "lo": None, "hi": None, "out": node.output} if node.is_leaf else
             {"q": node.query_var - 1, "lo": node.child_minus, "hi": node.child_plus, "out": None}
             for node in tree.nodes]
    return json.dumps({"n": tree.n, "root": tree.root, "nodes": nodes}, sort_keys=True)


def tree_from_json(text: str) -> DecisionTree:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise ValueError('tree JSON must be an object with a "nodes" list')
    n = json_int(doc.get("n"), "n")
    if n > MAX_FILE_VARS:
        raise ValueError(f"tree has n = {n} variables, above the file limit {MAX_FILE_VARS}")
    nodes = []
    for idx, row in enumerate(doc["nodes"]):
        if not isinstance(row, dict):
            raise ValueError(f"tree node {idx} must be an object")
        if row.get("q") is None:
            nodes.append(Node(output=json_int(row.get("out"), f"node {idx} out")))
        else:
            nodes.append(Node(query_var=json_int(row["q"], f"node {idx} q") + 1,
                              child_minus=json_int(row.get("lo"), f"node {idx} lo"),
                              child_plus=json_int(row.get("hi"), f"node {idx} hi")))
    return DecisionTree(n, nodes, json_int(doc.get("root", 0), "root"))

"""Decision trees: evaluation, sparse Fourier, decomposition, families."""
import collections
import hashlib
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (convert_convention, cross_check_spectrum, depth_and_acceptance, evaluate,
                       leaf_paths, next_var_visits, path_spectrum, reaches_a_tree)
from rorrlab import boolfn, dtree, ortho
from rorrlab.boolfn import OutputConvention, binomial, l1_level, point_from_index
from rorrlab.cli import main
from rorrlab.distinguish import global_index, greedy_pair_tree
from rorrlab.dtree import (
    DecisionTree,
    Node,
    acceptance_probability,
    decomposition_sides,
    evaluate_rows,
    grow,
    make_address,
    make_address_of_majority,
    make_constant,
    make_dictator,
    make_majority,
    make_parity,
    next_var_coefficients,
    random_tree,
    refined_level1_sum,
    relabel_nonnegative,
    sparse_fourier,
    tree_from_json,
    tree_to_json,
)

ZO = OutputConvention.ZERO_ONE
PM = OutputConvention.PLUS_MINUS_ONE

def test_single_leaf_tree():
    tree = make_constant(3, 1)
    assert evaluate(tree, [1, -1, 1]) == 1
    assert tree.depth == 0


def test_depth_one_tree():
    tree = make_dictator(2, 1)
    assert evaluate(tree, [1, -1]) == 1
    assert evaluate(tree, [-1, 1]) == 0


def test_majority3_vote():
    tree = make_majority(3)
    assert evaluate(tree, [-1, -1, 1]) == 0
    assert evaluate(tree, [1, 1, -1]) == 1
    table = tree.truth_table()
    for b in range(8):
        x = point_from_index(b, 3)
        assert table[b] == (1 if x.sum() > 0 else 0)


def test_majority_even_rejected():
    with pytest.raises(ValueError):
        make_majority(4)


def test_evaluate_dimension_mismatch():
    tree = make_dictator(2, 1)
    with pytest.raises(ValueError):
        evaluate(tree, [1])


def test_truth_table_matches_evaluate():
    tree = random_tree(12, 8, seed=3)
    table = tree.truth_table()
    assert table.dtype == np.int8 and table.size == 1 << 12
    for b in range(1 << 12):
        assert table[b] == evaluate(tree, point_from_index(b, 12))


def test_evaluate_rows_shape_mismatch():
    tree = make_dictator(2, 1)
    with pytest.raises(ValueError):
        dtree.evaluate_rows(tree, np.ones((4, 3), dtype=np.int8))
    with pytest.raises(ValueError):
        dtree.evaluate_rows(tree, np.ones(2, dtype=np.int8))


def test_repeated_variable_rejected():
    nodes = [
        Node(query_var=1, child_minus=1, child_plus=2),
        Node(query_var=1, child_minus=3, child_plus=4),
        Node(output=1),
        Node(output=0),
        Node(output=1),
    ]
    with pytest.raises(ValueError):
        DecisionTree(2, nodes)


def test_sparse_fourier_depth_one_zero_one():
    tree = make_dictator(1, 1)  # (1 + x_1) / 2
    spec = sparse_fourier(tree, ZO)
    assert spec.coeffs == {(): 0.5, (1,): 0.5}


def test_sparse_fourier_parity_pm1():
    tree = make_parity(2, [1, 2])
    spec = sparse_fourier(tree, PM)
    assert spec.coeffs == {(1, 2): 1.0}


def test_sparse_fourier_address1():
    # Level-1 mass sits on the two array variables, level-2 on index x array.
    tree = make_address(1)
    spec = sparse_fourier(tree, PM)
    for var in (2, 3):
        assert abs(spec.coefficient((var,))) == 0.5
    assert abs(spec.coefficient((1, 2))) == 0.5
    assert abs(spec.coefficient((1, 3))) == 0.5
    assert spec.coefficient(()) == 0.0
    assert spec.coefficient((1,)) == 0.0


def test_sparse_matches_dense_random_trees():
    for seed in range(8):
        tree = random_tree(7, 5, seed)
        for conv in (ZO, PM):
            assert cross_check_spectrum(tree, conv) <= 1e-9


def test_sparse_equals_dense_exactly():
    # Coefficients are dyadic, so the merge must match the dense transform
    # bit for bit.
    for tree in (make_address(3), random_tree(10, 7, 3)):
        for conv in (ZO, PM):
            table = tree.truth_table().astype(float)
            if conv == PM:
                table = 2.0 * table - 1.0
            dense = boolfn.fourier_from_truth_table(table, tree.n)
            assert sparse_fourier(tree, conv).coeffs == {
                s: c for s, c in dense.coeffs.items() if c != 0.0}


def test_pm1_spectrum_is_the_converted_01_spectrum():
    # Coefficients are dyadic, so v = 2b - 1 maps one spectrum onto the
    # other exactly.
    for tree in (make_majority(7), make_address(3), make_address_of_majority(3),
                 random_tree(12, 8, 4)):
        converted = convert_convention(sparse_fourier(tree, ZO), ZO, PM)
        assert sparse_fourier(tree, PM).masks == converted.masks


def test_pm1_spectrum_is_mapped_from_the_cached_01_merge():
    tree = random_tree(12, 8, 5)
    zero_one = sparse_fourier(tree, ZO)
    # A second merge would now refuse the tree; the map needs none.
    tree._fourier_work = dtree.MAX_FOURIER_WORK + 1
    assert sparse_fourier(tree, ZO) is zero_one
    assert sparse_fourier(tree, PM).masks == convert_convention(zero_one, ZO, PM).masks


def test_an_empty_set_coefficient_mapped_to_zero_is_dropped():
    # The dictator on x_2 is (1 + x_2)/2 in {0,1} and x_2 in +-1.
    tree = make_dictator(3, 2)
    assert sparse_fourier(tree, ZO).masks == {0: 0.5, 0b10: 0.5}
    assert sparse_fourier(tree, PM).masks == {0b10: 1.0}
    assert boolfn.convert_spectrum(sparse_fourier(tree, PM), ZO).masks == {0b10: 0.5, 0: 0.5}


# The trees on which the convention map was first checked bit for bit.
MAP_TREES = {
    **{f"random-16-{d}-{s}": (random_tree, 16, d, s) for d in range(8, 12) for s in (0, 1)},
    "majority-9": (make_majority, 9),
    "address-4": (make_address, 4),
    "address-of-majority-3": (make_address_of_majority, 3),
    "random-4096-10-4": (random_tree, 4096, 10, 4),
    "constant-0": (make_constant, 3, 0),
    "constant-1": (make_constant, 3, 1),
}


@pytest.mark.parametrize("name", MAP_TREES)
def test_convention_map_round_trips_bit_for_bit(name):
    def bits(spec):
        return {mask: c.hex() for mask, c in spec.masks.items()}

    build, *args = MAP_TREES[name]
    tree = build(*args)
    zero_one, pm = sparse_fourier(tree, ZO), sparse_fourier(tree, PM)
    assert bits(pm) == bits(convert_convention(zero_one, ZO, PM))
    assert bits(boolfn.convert_spectrum(pm, ZO)) == bits(zero_one)


def test_decomposition_depth_one():
    tree = make_dictator(1, 1)
    lhs, rhs = decomposition_sides(tree, (1,))
    assert lhs == pytest.approx(0.5)
    assert rhs == pytest.approx(0.5)


def test_decomposition_never_queried_variable():
    tree = make_dictator(3, 1)
    lhs, rhs = decomposition_sides(tree, (1, 2))
    assert lhs == 0.0
    assert rhs == 0.0


def test_decomposition_empty_set_rejected():
    tree = make_dictator(2, 1)
    with pytest.raises(ValueError):
        decomposition_sides(tree, ())


def test_decomposition_random_corpus():
    # The identity is exact on every non-empty subset.
    rng = np.random.default_rng(0)
    trees = []
    for trial in range(25):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, min(n, 6) + 1))
        trees.append(random_tree(n, d, seed=1000 + trial))
    for tree in trees:
        for bits in range(1, 1 << tree.n):
            subset = tuple(i + 1 for i in range(tree.n) if (bits >> i) & 1)
            lhs, rhs = decomposition_sides(tree, subset)
            assert abs(lhs - rhs) <= 1e-9


def test_relabel_fixpoint():
    tree = make_dictator(2, 1)  # already nonnegative
    out = relabel_nonnegative(tree)
    assert tree_to_json(out) == tree_to_json(tree)


def test_relabel_single_swap():
    # (1 - x_1)/2 becomes (1 + x_1)/2.
    nodes = [Node(query_var=1, child_minus=1, child_plus=2), Node(output=1), Node(output=0)]
    tree = DecisionTree(1, nodes)
    out = relabel_nonnegative(tree)
    assert evaluate(out, [1]) == 1
    assert evaluate(out, [-1]) == 0


def test_relabel_copies_unreachable_nodes():
    # Node 1 is internal but unreachable from the leaf root; relabeling
    # used to look up its children's acceptance and raise KeyError.
    arena = [Node(output=1), Node(query_var=1, child_minus=2, child_plus=3),
             Node(output=0), Node(output=1)]
    tree = DecisionTree(2, arena)
    assert relabel_nonnegative(tree).nodes == tree.nodes
    # A reachable node that needs a swap still gets one.
    rooted = DecisionTree(2, arena + [Node(query_var=2, child_minus=3, child_plus=2)], root=4)
    out = relabel_nonnegative(rooted)
    assert out.nodes[:4] == rooted.nodes[:4]
    assert out.nodes[4] == Node(query_var=2, child_minus=2, child_plus=3)


def test_relabel_invariants_random_trees():
    for seed in range(6):
        tree = random_tree(8, 5, seed)
        out = relabel_nonnegative(tree)
        assert all(a_hat >= 0 for a_hat in next_var_coefficients(out).values())
        assert acceptance_probability(out) == acceptance_probability(tree)
        # Only signs change along each path: the queried variables and so
        # the leaf depths (and every node's reach probability) are kept.
        leaves, leaves_out = leaf_paths(tree), leaf_paths(out)
        assert sorted(len(path) for path, _ in leaves) == sorted(
            len(path) for path, _ in leaves_out)
        assert sorted(tuple(var for var, _ in path) for path, _ in leaves) == sorted(
            tuple(var for var, _ in path) for path, _ in leaves_out)


def _internal_visits(tree):
    """(node, depth) of every internal node, one per distinct proper prefix
    of a leaf path."""
    visits = {}
    for path, _ in leaf_paths(tree):
        idx = tree.root
        for depth, (_, sign) in enumerate(path):
            visits[path[:depth]] = idx
            node = tree.nodes[idx]
            idx = node.child_plus if sign == 1 else node.child_minus
    return [(idx, len(prefix)) for prefix, idx in visits.items()]


def test_next_var_coefficients_match_each_subtree_spectrum():
    # A_v_hat({q_v}) is the coefficient of q_v in the spectrum of the
    # subtree rooted at v; only reachable internal nodes are listed.
    for tree in [build(*args) for build, args, _ in _ARENAS]:
        coeffs = next_var_coefficients(tree)
        reachable, stack = set(), [tree.root]
        while stack:
            idx = stack.pop()
            node = tree.nodes[idx]
            if not node.is_leaf and idx not in reachable:
                reachable.add(idx)
                stack += [node.child_minus, node.child_plus]
        assert coeffs.keys() == reachable
        # At most about 512 nodes of each arena, evenly spread, keep the
        # 3,431 internal nodes of Majority-13 to a second.
        for v in sorted(coeffs)[::max(1, len(coeffs) // 512)]:
            subtree = DecisionTree(tree.n, tree.nodes, root=v)
            assert coeffs[v] == sparse_fourier(subtree).coefficient((tree.nodes[v].query_var,))


def test_refined_level1_sum_single_leaf():
    tree = make_constant(2, 1)
    assert refined_level1_sum(tree, 0, 1) == 0.0


def test_refined_level1_sum_depth_one():
    tree = make_dictator(1, 1)
    assert refined_level1_sum(tree, 0, 1) == pytest.approx(0.5)


def test_refined_level1_sum_majority3():
    tree = make_majority(3)
    total = refined_level1_sum(tree, 0, tree.depth)
    coeffs = next_var_coefficients(tree)
    visits = _internal_visits(tree)
    assert len(visits) == 5
    expected = sum(0.5 ** depth * abs(coeffs[idx]) for idx, depth in visits)
    assert total == pytest.approx(expected)
    # Full-range refined sum upper-bounds the relabeled tree's level-1 mass.
    relabeled = relabel_nonnegative(tree)
    spec = sparse_fourier(relabeled, ZO)
    assert abs(sum(spec.coefficient((i,)) for i in range(1, 4))) <= total + 1e-12


def test_refined_level1_bad_range():
    tree = make_majority(3)
    with pytest.raises(ValueError):
        refined_level1_sum(tree, 2, 2)
    with pytest.raises(ValueError):
        refined_level1_sum(tree, 0, 99)


def test_refined_level1_layer_bound():
    # The layered sum obeys C sqrt(width) p sqrt(ln(e/p)) with C = 10
    # over random trees and random layer windows.
    rng = np.random.default_rng(1)
    for seed in range(15):
        tree = random_tree(8, 6, seed=200 + seed)
        p = acceptance_probability(tree)
        for _ in range(5):
            lo = int(rng.integers(0, tree.depth))
            hi = int(rng.integers(lo + 1, tree.depth + 1))
            value = refined_level1_sum(tree, lo, hi)
            if p == 0.0:
                assert value == 0.0
            else:
                bound = 10.0 * math.sqrt(hi - lo) * p * math.sqrt(math.log(math.e / p))
                assert value <= bound + 1e-12


def test_majority5_level1():
    tree = make_majority(5)
    spec = sparse_fourier(tree, PM)
    # Each singleton coefficient is binom(4,2)/2^4 = 3/8.
    assert l1_level(spec, 1) == pytest.approx(15.0 / 8.0)


def test_majority_agrees_with_vote():
    for d in (1, 3, 5, 7):
        tree = make_majority(d)
        assert tree.depth <= d
        rng = np.random.default_rng(d)
        for _ in range(200):
            x = 2 * rng.integers(0, 2, size=d) - 1
            assert evaluate(tree, x) == (1 if x.sum() > 0 else 0)


def test_address_shape():
    tree = make_address(2)
    assert tree.n == 6
    assert tree.depth == 3
    with pytest.raises(ValueError):
        make_address(5)


def test_address_selects_array_entry():
    tree = make_address(1)
    # Index +1 selects the second array slot (variable 3).
    x = np.array([1, -1, 1])
    assert evaluate(tree, x) == 1
    x = np.array([1, 1, -1])
    assert evaluate(tree, x) == 0


def test_address_l1_exactness():
    # The +-1 convention makes L_{1,ell}(Add_d) = binom(d, ell-1) exact.
    for d in (1, 2, 3):
        tree = make_address(d)
        spec = sparse_fourier(tree, PM)
        for ell in range(0, tree.n + 1):
            assert l1_level(spec, ell) == binomial(d, ell - 1)


def test_address_of_majority_shape_and_semantics():
    tree = make_address_of_majority(3)
    assert tree.n == 27
    assert tree.depth == 6
    rng = np.random.default_rng(2)
    for _ in range(300):
        x = 2 * rng.integers(0, 2, size=27) - 1
        slot = 0
        for i in range(3):
            if x[i] == 1:
                slot |= 1 << i
        block = x[3 + slot * 3 : 6 + slot * 3]
        assert evaluate(tree, x) == (1 if block.sum() > 0 else 0)
    with pytest.raises(ValueError):
        make_address_of_majority(2)


def test_address_of_majority_d1_is_address1():
    tree = make_address_of_majority(1)
    addr = make_address(1)
    assert tree.n == addr.n
    for b in range(8):
        x = point_from_index(b, 3)
        assert evaluate(tree, x) == evaluate(addr, x)


def test_address_of_majority_excess_ratio():
    tree = make_address_of_majority(3)
    spec = sparse_fourier(tree, PM)
    ratios = []
    for ell in range(1, tree.n + 1):
        target = binomial(3, ell - 1)
        if target > 0:
            ratios.append(l1_level(spec, ell) / target)
    assert max(ratios) >= 1.2


def test_random_tree_reproducible_and_distinct():
    a = random_tree(8, 4, seed=42)
    b = random_tree(8, 4, seed=42)
    c = random_tree(8, 4, seed=43)
    assert tree_to_json(a) == tree_to_json(b)
    assert tree_to_json(a) != tree_to_json(c)


def test_random_tree_structure():
    tree = random_tree(6, 4, seed=5)
    leaves = leaf_paths(tree)
    assert len(leaves) == 16
    assert all(len(path) == 4 for path, _ in leaves)
    with pytest.raises(ValueError):
        random_tree(3, 4, seed=0)
    # 2^23 leaves exceed MAX_LEAVES; refused before any node is built.
    for depth in (-1, 23, 25):
        with pytest.raises(ValueError, match="leaves"):
            random_tree(30, depth, seed=0)


def test_leaf_sum_distribution_exact():
    # Over a uniform leaf of a full depth-d tree, the sum of fixed signs
    # is distributed as a sum of d iid +-1 variables: counts are binomials.
    for d, seed in ((6, 0), (10, 1), (12, 2)):
        tree = random_tree(d + 2, d, seed)
        counts = collections.Counter(sum(sign for _, sign in path)
                                     for path, _ in leaf_paths(tree))
        for m in range(d + 1):
            assert counts.get(d - 2 * m, 0) == math.comb(d, m)


def test_binom_level_bound_over_random_trees():
    for seed in range(10):
        tree = random_tree(8, 5, seed)
        spec = sparse_fourier(tree, ZO)
        for ell in range(0, 9):
            assert l1_level(spec, ell) <= binomial(tree.depth, ell) + 1e-9


def test_level1_bound_corpus():
    for seed in range(10):
        tree = random_tree(8, 6, seed)
        spec = sparse_fourier(tree, ZO)
        p = acceptance_probability(tree)
        bound = dtree.level1_bound(tree.depth, p, constant=10.0)
        assert l1_level(spec, 1) <= bound + 1e-12


def test_level_ell_bound_corpus_and_variants():
    for seed in range(6):
        tree = random_tree(8, 5, seed)
        spec = sparse_fourier(tree, ZO)
        p = acceptance_probability(tree)
        for ell in range(1, tree.depth + 1):
            loose = dtree.level_ell_bound(tree.depth, tree.n, p, ell, constant=32.0)
            assert l1_level(spec, ell) <= loose + 1e-12


def test_tree_json_round_trip():
    tree = random_tree(6, 3, seed=9)
    doc = tree_to_json(tree)
    again = tree_from_json(doc)
    assert tree_to_json(again) == doc
    parsed = json.loads(doc)
    # External format is 0-based.
    queried = {row["q"] for row in parsed["nodes"] if row["q"] is not None}
    assert all(0 <= q < 6 for q in queried)


def _decision_list(depth):
    """JSON arena of a decision list: node 2i queries x_{i+1}, its minus
    child is a leaf with bit i % 2, its plus child the next query."""
    nodes = []
    for i in range(depth):
        nodes.append({"q": i, "lo": 2 * i + 1, "hi": 2 * i + 2, "out": None})
        nodes.append({"q": None, "lo": None, "hi": None, "out": i % 2})
    nodes.append({"q": None, "lo": None, "hi": None, "out": 1})
    return json.dumps({"n": depth, "root": 0, "nodes": nodes})


def test_deep_decision_list_needs_no_recursion():
    depth = 3000
    tree = tree_from_json(_decision_list(depth))
    assert tree.depth == depth
    rows = np.ones((3, depth), dtype=np.int8)
    rows[1, 0] = -1
    rows[2, 1] = -1
    assert evaluate_rows(tree, rows).tolist() == [1, 0, 1]
    # Leaves with bit 1 sit at depths 2, 4, ...: 1/4 + 1/16 + ... = 1/3.
    assert acceptance_probability(tree) == pytest.approx(1 / 3, abs=1e-15)
    leaves = leaf_paths(tree)
    assert len(leaves) == depth + 1
    assert leaves[0] == (((1, -1),), 0)
    assert leaves[-1] == (tuple((i, 1) for i in range(1, depth + 1)), 1)
    # Node 2i has a leaf with bit i % 2 below its minus child and accepts
    # (i % 2 + a) / 2, with a the acceptance below its plus child.
    coeffs = next_var_coefficients(tree)
    below, expected = 1.0, {}
    for i in reversed(range(depth)):
        expected[2 * i] = 0.5 * (below - i % 2)
        below = 0.5 * (i % 2 + below)
    assert coeffs == expected
    # Layer i holds node 2i alone, visited in order.
    assert refined_level1_sum(tree, 0, depth) == sum(
        0.5 ** i * abs(expected[2 * i]) for i in range(depth))
    # The Fourier work sum_leaf 2^depth saturates just past the budget.
    assert tree._fourier_work == dtree.MAX_FOURIER_WORK + 1
    with pytest.raises(ValueError, match="too deep"):
        sparse_fourier(tree)


def test_deep_decision_list_fourier_cli_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(_decision_list(3000))
    assert main(["fourier", "--tree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tree too deep for exact sparse Fourier budget\n"


def _shared_chain(queries):
    """JSON arena whose node i queries x_{i+1} and has node i + 1 as both
    children, ending in one leaf: queries + 1 nodes on 2^queries paths."""
    nodes = [{"q": i, "lo": i + 1, "hi": i + 1, "out": None} for i in range(queries)]
    nodes.append({"q": None, "lo": None, "hi": None, "out": 1})
    return json.dumps({"n": queries, "root": 0, "nodes": nodes})


def test_a_tree_past_the_leaf_budget_is_refused_at_load(monkeypatch, tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(tree_to_json(random_tree(12, 11, 0)))  # 2048 leaves
    monkeypatch.setattr(dtree, "MAX_LEAVES", 1024)
    tree = tree_from_json(tree_to_json(random_tree(12, 10, 0)))  # 1024 leaves, at the limit
    assert tree.depth == 10
    with pytest.raises(ValueError, match="MAX_LEAVES = 1024"):
        tree_from_json(path.read_text())
    assert main(["fourier", "--tree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tree has more than MAX_LEAVES = 1024 leaves\n"


def test_leaf_budget_and_cycles_are_checked_before_any_walk(monkeypatch):
    # Each tree is accepted at exactly its leaf count and refused one below.
    for tree in (make_majority(5), make_address_of_majority(3), random_tree(9, 7, 1)):
        leaves = len(leaf_paths(tree))
        monkeypatch.setattr(dtree, "MAX_LEAVES", leaves)
        DecisionTree(tree.n, tree.nodes, tree.root)
        monkeypatch.setattr(dtree, "MAX_LEAVES", leaves - 1)
        with pytest.raises(ValueError, match=f"MAX_LEAVES = {leaves - 1} "):
            DecisionTree(tree.n, tree.nodes, tree.root)
    monkeypatch.undo()
    # 41 nodes on 2^40 paths: refused when the walk first comes back to a node.
    with pytest.raises(ValueError, match="node 40 is reached twice"):
        tree_from_json(_shared_chain(40))
    doc = json.loads(_decision_list(40))
    doc["nodes"][60]["hi"] = 20  # a loop back up the list
    with pytest.raises(ValueError, match="node 20 is reached twice"):
        tree_from_json(json.dumps(doc))


@st.composite
def _arenas(draw):
    """(n, nodes, root): a random tree over a few variables, so repeats
    along a path are common, stored in a random order among a few nodes the
    root does not reach; then up to two child slots point anywhere, which
    makes shared subtrees, shared leaves, back edges and self-loops."""
    n = draw(st.integers(1, 6))
    tree = [None]  # internal nodes as [var, minus, plus], leaves as None
    for _ in range(draw(st.integers(0, 7))):
        leaf = draw(st.sampled_from([i for i, node in enumerate(tree) if node is None]))
        tree[leaf] = [draw(st.integers(1, n)), len(tree), len(tree) + 1]
        tree += [None, None]
    size = len(tree) + draw(st.integers(0, 2))
    where = draw(st.permutations(range(size)))  # arena slot of each node
    nodes = [None] * size
    for i in range(len(tree), size):  # not reached from the root
        nodes[where[i]] = Node(query_var=draw(st.integers(1, n)),
                               child_minus=draw(st.integers(0, size - 1)),
                               child_plus=draw(st.integers(0, size - 1)))
    for i, node in enumerate(tree):
        nodes[where[i]] = Node(output=draw(st.integers(0, 1))) if node is None else Node(
            query_var=node[0], child_minus=where[node[1]], child_plus=where[node[2]])
    internal = [i for i, node in enumerate(nodes) if not node.is_leaf]
    for _ in range(draw(st.integers(0, 2)) if internal else 0):
        i = draw(st.sampled_from(internal))
        field = draw(st.sampled_from(["child_minus", "child_plus"]))
        nodes[i] = nodes[i]._replace(**{field: draw(st.integers(0, size - 1))})
    return n, nodes, where[0]


@settings(max_examples=400, deadline=None)
@given(arena=_arenas(), data=st.data())
def test_one_pass_matches_the_path_definitions(arena, data):
    # Accepted exactly when the root reaches a tree on which no path repeats
    # a variable; then every measure and pass equals its sum over the paths.
    n, nodes, root = arena
    is_tree = reaches_a_tree(nodes, root)
    paths = leaf_paths(types.SimpleNamespace(root=root, nodes=nodes)) if is_tree else []
    repeats = any(len({var for var, _ in path}) < len(path) for path, _ in paths)
    try:
        tree = DecisionTree(n, nodes, root)
    except ValueError as exc:
        # A tree is refused for its repeat; other arenas may show either fault first.
        assert repeats or not is_tree
        assert "repeats along a path" in str(exc) or (
            not is_tree and "is reached twice: the arena is not a tree" in str(exc))
        return
    assert is_tree and not repeats
    assert (tree.depth, acceptance_probability(tree)) == depth_and_acceptance(tree)
    assert tree._fourier_work == sum(1 << len(path) for path, _ in paths)
    for conv in (ZO, PM):
        assert sparse_fourier(tree, conv).masks == path_spectrum(tree, conv)
    visits = next_var_visits(tree)
    top = max(1, tree.depth)
    lo = data.draw(st.integers(0, top - 1))
    hi = data.draw(st.integers(lo + 1, top))
    assert refined_level1_sum(tree, lo, hi) == sum(
        0.5 ** depth * abs(c) for depth, c in visits if lo <= depth < hi)
    spectrum = path_spectrum(tree, ZO)
    for mask in range(1, 1 << n):
        subset = [i + 1 for i in range(n) if mask >> i & 1]
        assert decomposition_sides(tree, subset) == (spectrum.get(mask, 0.0),) * 2


def test_deep_cycle_is_refused_not_walked_forever():
    doc = json.loads(_decision_list(500))
    doc["nodes"][-3]["hi"] = 0  # the last query loops back to the root
    with pytest.raises(ValueError, match="node 0 is reached twice"):
        tree_from_json(json.dumps(doc))


def _greedy(n, k, pairs):
    return greedy_pair_tree(ortho.sample_haar(n, 7), k, pairs)


def _dictator_tree(k, n, block, coord):
    # A corpus dictator: z^(block)_coord over the kN block-major variables.
    return make_dictator(k * n, global_index(block, coord, n))


# sha256 of tree_to_json for each builder: pins each arena, its pre-order
# node numbering and the random-tree stream.
_ARENAS = [
    (make_majority, (1,), "3851b7e47d1fab64d6d8283c504658bb53ae27a0ba3618044f05d1f9c8b87842"),
    (make_majority, (3,), "31337fb1965dba0ab655ff14d56e53b2cf570eaad0648ce21ecd44f35b22a4b8"),
    (make_majority, (5,), "b6420df891ef4d734064da54fb14203365fbe745e32fa8bf6292b527da0bbc5f"),
    (make_majority, (9,), "99ef1597010704e43d15a5e6cc3e541cf7013d5c2def01e5b0ead44b027f00e2"),
    (make_majority, (13,), "bf8b17e0ae5fe6edfa3c1b6f7ebd28bbd722aa263f143d615d8faa543a6f9f96"),
    (make_address, (1,), "0ff064ae8bd10ce88aa7d9fb3bc105f51bc74144d92b771341ccb22c39818522"),
    (make_address, (2,), "ed3bf41e408e6eaf9d1f8b6c302b0eb4ecc40121c6aba2a3204514c02436ed1d"),
    (make_address, (3,), "02b512ae23b215351c819001f68fdd7bcaa0d2e6d26ba00ad12f7889c63d69d7"),
    (make_address, (4,), "5f6d7449305aded8ee2c6c468ddb538c8caae313c4ef168cb260e485b9bba88c"),
    (make_address_of_majority, (1,),
     "0ff064ae8bd10ce88aa7d9fb3bc105f51bc74144d92b771341ccb22c39818522"),
    (make_address_of_majority, (3,),
     "239b47317567d2b588fcde381c91050878aedfcc51466675a0c1a588a2a23c05"),
    (make_constant, (3, 1), "55bff84adf6df9209c69273f1fb027955947d18d7cf083d6be2f9b1dceaf2dab"),
    (make_dictator, (4, 1), "b5e7cbd805e67f311fdd4d052c37936f6ba2aa610960d039876512929e6e1e9d"),
    (make_dictator, (3, 3), "69cb0841eef1c77ecd037e18760c613a6e1abcb0b4fb3a2461367a4311f5f6c3"),
    (make_parity, (4, [1, 2, 3, 4]),
     "2837ee61ce07d47fe43a86fd5a37eb3b9db8153c51f905ecc8354851ff69b96a"),
    (make_parity, (3, [3, 1]), "b64ec336b557f148cf82b95796613e18dfbf9d51fc9e5ea9e6aaf22dd7fd2b7b"),
    (make_parity, (130, [1, 64, 65, 129, 130]),
     "a8959d0a4b89154bd88deb5a4480bf54750e9ae39c117c98cc2ec57f365cfa60"),
    (random_tree, (512, 6, 0), "1eaff5805c3a3de153b8cc4190019b4cab3998ed5057a2f6adf6c440bcd9fc41"),
    (random_tree, (512, 6, 1), "b7be1dc1c3df825099669cd4ce012a0af1b12f176b17d1becc61ec700dcfd23a"),
    (random_tree, (16, 9, 0), "73a90e679122597cefab5eebe90bca7e0d7b175001bb81aec02cc8dc35885503"),
    (random_tree, (10, 10, 2), "6ef06fbd0ff7f34da63bf4395106c7766d99540b5c992bee7159dcc393b70d44"),
    (random_tree, (12, 6, 3), "969b7018797ed8dfea8c94964066cf37c7fc4403b039de4ba536160dc9c23daa"),
    (random_tree, (22, 4, 4), "e7a01b8742cedd5a0e1c2e394ab79992bd8936420f67bd56928187966a0d9216"),
    (random_tree, (5, 0, 0), "fc178fa24e88f4d010a4b2cba62ca7e11b3ac4de7dbd29cf7b71437caa91e59e"),
    (_greedy, (16, 2, 1), "41c1a3d1e6285a2f87c85f7258898140a9ab75d6cc28b06a19ee2c8dad410958"),
    (_greedy, (16, 2, 2), "e4d194bc47ac8c1f6a3b703bd6c03746afd278463f5baecc664728c15524151e"),
    (_greedy, (16, 2, 3), "97538f58c4839a97ea3659e54ea59217e706a4c0576c7cfbe9dbdc08484da55f"),
    (_greedy, (256, 2, 1), "f9aa1f940287644a356236dbd35f4a889722a3f001a14ab3e584c8e910b413b3"),
    (_greedy, (256, 2, 2), "bfffe894613888a7caedc58456c451388d0a9370f65424c9bcdbcc0148ca92df"),
    (_greedy, (256, 2, 3), "41768c3126068a91f0310a721371ef4ff55f14bdd44281c66774d161acfbc57b"),
    (_greedy, (256, 3, 3), "fb5db44d8c7ff6f6e58a4237dbaf49ed38578794fee35f1fc0fdd1851b5708d5"),
    (_dictator_tree, (2, 16, 1, 1),
     "2d4a405186c6fa30ae280a7caff5ec09849bdfc5aeb9cd52abc35c2dbfdce5c5"),
    (_dictator_tree, (3, 8, 2, 2),
     "42c0f6a5e8e3bc48529fdb92b8c35694296e04b6626e7f52f6d0a3e14ee55baa"),
]


@pytest.mark.parametrize("build, args, digest", _ARENAS, ids=[
    f"{build.__name__.strip('_')}{args}".replace(" ", "") for build, args, _ in _ARENAS])
def test_builder_arenas_are_pinned(build, args, digest):
    assert hashlib.sha256(tree_to_json(build(*args)).encode()).hexdigest() == digest


def test_depth_and_acceptance_match_the_leaf_paths():
    # Every builder's arena, the random trees among them.
    for tree in [build(*args) for build, args, _ in _ARENAS]:
        assert (tree.depth, acceptance_probability(tree)) == depth_and_acceptance(tree)


def test_grow_builds_a_deep_decision_list():
    depth = 3000

    def rule(path):
        if path and path[-1][1] == -1:
            return Node(output=(len(path) - 1) % 2)
        if len(path) == depth:
            return Node(output=1)
        return Node(query_var=len(path) + 1)

    tree = grow(depth, rule)
    assert tree.nodes == tree_from_json(_decision_list(depth)).nodes
    assert tree.depth == depth


def test_grow_refuses_a_rule_that_outruns_the_variables():
    with pytest.raises(ValueError, match="more than 2 variables"):
        grow(2, lambda path: Node(query_var=1))


def test_grow_applies_the_leaf_budget_while_it_builds(monkeypatch):
    # The complete depth-12 tree has 4,096 leaves in 8,191 nodes. Under a
    # budget of 16 the rule is called for the first 17 leaves and the
    # queries above them, 44 nodes in pre-order, and the refusal is the
    # constructor's; at the budget of 4,096 the whole tree is built.
    calls = 0

    def rule(path):
        nonlocal calls
        calls += 1
        return Node(output=1) if len(path) == 12 else Node(query_var=len(path) + 1)

    monkeypatch.setattr(dtree, "MAX_LEAVES", 16)
    with pytest.raises(ValueError, match="^tree has more than MAX_LEAVES = 16 leaves$"):
        grow(12, rule)
    assert calls == 44
    monkeypatch.setattr(dtree, "MAX_LEAVES", 4096)
    calls = 0
    assert len(leaf_paths(grow(12, rule))) == 4096 and calls == 8191

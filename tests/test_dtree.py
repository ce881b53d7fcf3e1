"""Decision trees: evaluation, sparse Fourier, decomposition, families."""
import collections
import hashlib
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (convert_convention, cross_check_spectrum, depth_and_acceptance, evaluate,
                       leaf_paths)
from rorrlab import boolfn, dtree, ortho
from rorrlab.boolfn import OutputConvention, binomial, l1_level, point_from_index
from rorrlab.cli import main
from rorrlab.distinguish import dictator_tree, greedy_pair_tree
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

# Arenas in which a node is reached along more than one path.
SHARED_ARENAS = (
    # Node 2 is reached from both children of the root.
    DecisionTree(4, [
        Node(query_var=3, child_minus=1, child_plus=4),
        Node(query_var=1, child_minus=2, child_plus=5),
        Node(query_var=4, child_minus=5, child_plus=6),
        Node(output=0),
        Node(query_var=2, child_minus=2, child_plus=6),
        Node(output=1),
        Node(output=0),
    ]),
    # Node 2 is reached along two paths and needs a relabeling swap.
    DecisionTree(3, [Node(output=0), Node(output=1),
                     Node(query_var=2, child_minus=1, child_plus=0),
                     Node(query_var=1, child_minus=2, child_plus=4),
                     Node(query_var=3, child_minus=2, child_plus=1)], root=3),
)


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


def test_sparse_equals_dense_exactly_with_shared_subtree():
    # Coefficients are dyadic, so the merge must match the dense transform
    # bit for bit.
    for tree in (SHARED_ARENAS[0], random_tree(10, 7, 3)):
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
    # The identity is exact on every non-empty subset, also where a node
    # is reached along several paths (one term per path).
    rng = np.random.default_rng(0)
    trees = []
    for trial in range(25):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, min(n, 6) + 1))
        trees.append(random_tree(n, d, seed=1000 + trial))
    for tree in trees + list(SHARED_ARENAS):
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


def test_relabel_swaps_a_shared_node_once():
    # The shared node 2 gets one swap, not one per path.
    tree = SHARED_ARENAS[1]
    out = relabel_nonnegative(tree)
    assert out.nodes[2] == Node(query_var=2, child_minus=0, child_plus=1)
    assert out.nodes[3:] == tree.nodes[3:]
    assert all(a_hat >= 0 for a_hat in next_var_coefficients(out).values())


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
    """(node, depth) of every visit of an internal node, one per distinct
    proper prefix of a leaf path: a shared node once per path to it."""
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
    for tree in [build(*args) for build, args, _ in _ARENAS] + list(SHARED_ARENAS):
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
    # A node shared by two paths counts once per path.
    shared = SHARED_ARENAS[0]
    coeffs = next_var_coefficients(shared)
    visits = _internal_visits(shared)
    assert len(visits) == len(leaf_paths(shared)) - 1 > len(coeffs)
    assert refined_level1_sum(shared, 0, shared.depth) == sum(
        0.5 ** depth * abs(coeffs[idx]) for idx, depth in visits)
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
    children, ending in one leaf: queries + 1 nodes that unfold to
    2^queries leaves."""
    nodes = [{"q": i, "lo": i + 1, "hi": i + 1, "out": None} for i in range(queries)]
    nodes.append({"q": None, "lo": None, "hi": None, "out": 1})
    return json.dumps({"n": queries, "root": 0, "nodes": nodes})


def test_shared_chain_past_the_leaf_budget_is_refused_at_load(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(dtree, "MAX_LEAVES", 1024)
    tree = tree_from_json(_shared_chain(10))  # 1024 leaves, at the limit
    assert tree.depth == 10 and acceptance_probability(tree) == 1.0
    with pytest.raises(ValueError, match="MAX_LEAVES = 1024"):
        tree_from_json(_shared_chain(14))
    path = tmp_path / "chain.json"
    path.write_text(_shared_chain(14))
    assert main(["fourier", "--tree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tree unfolds to more than MAX_LEAVES = 1024 leaves\n"


def test_leaf_budget_and_cycles_are_checked_before_any_walk(monkeypatch):
    def no_walk(tree):
        raise AssertionError("a path was walked")

    # Each arena is accepted at exactly its leaf count and refused one below.
    for tree in (SHARED_ARENAS + (make_majority(5), make_address_of_majority(3),
                                  tree_from_json(_shared_chain(6)))):
        leaves = len(leaf_paths(tree))
        monkeypatch.setattr(dtree, "MAX_LEAVES", leaves)
        DecisionTree(tree.n, tree.nodes, tree.root)
        monkeypatch.setattr(dtree, "MAX_LEAVES", leaves - 1)
        with monkeypatch.context() as patch:
            patch.setattr(dtree, "_walk", no_walk)
            with pytest.raises(ValueError, match=f"MAX_LEAVES = {leaves - 1} "):
                DecisionTree(tree.n, tree.nodes, tree.root)
    monkeypatch.undo()
    monkeypatch.setattr(dtree, "_walk", no_walk)
    # 41 nodes that unfold to 2^40 leaves: refused without unfolding a path.
    with pytest.raises(ValueError, match=f"MAX_LEAVES = {dtree.MAX_LEAVES} "):
        tree_from_json(_shared_chain(40))
    doc = json.loads(_shared_chain(40))
    doc["nodes"][30]["hi"] = 10  # a loop back up the chain
    with pytest.raises(ValueError, match="variable 11 repeats along a path"):
        tree_from_json(json.dumps(doc))
    # 21 nodes that unfold to 2^20 leaves: checked, measured and relabeled
    # without unfolding a path.
    tree = tree_from_json(_shared_chain(20))
    assert tree.depth == 20 and acceptance_probability(tree) == 1.0
    assert relabel_nonnegative(tree).nodes == tree.nodes


def test_a_repeat_seen_only_through_the_second_parent_is_refused():
    # Node 3 queries x2 and has two parents, x1 and x2; the x2 parent repeats
    # x2. In either order of the parents, the variables below node 3 must
    # still be there when the second parent reads them.
    for first, second in ((1, 2), (2, 1)):
        nodes = [Node(query_var=3, child_minus=first, child_plus=second),
                 Node(query_var=1, child_minus=3, child_plus=4),
                 Node(query_var=2, child_minus=3, child_plus=5),
                 Node(query_var=2, child_minus=4, child_plus=5),
                 Node(output=0), Node(output=1)]
        with pytest.raises(ValueError, match="variable 2 repeats along a path"):
            DecisionTree(3, nodes)
        # Both parents may query one variable: the first must not add it to
        # the variables below node 3 that the second reads.
        for var in (4, 1):
            nodes[2] = Node(query_var=var, child_minus=3, child_plus=5)
            tree = DecisionTree(4, nodes)
            assert (tree.depth, acceptance_probability(tree)) == depth_and_acceptance(tree)


def _shared_bottoms(half, n):
    """Nodes of an arena whose root (x_{half+1}) has two complete subtrees of
    depth `half`, over x_1..x_half and x_{half+2}..x_{2 half+1}, whose
    2^(half+1) bottom slots hold the same nodes, each querying x_n above two
    shared leaves. The plus subtree is done first, so every bottom node is
    done and waits for its second parent at once."""
    bottoms = range(3, 3 + (2 << half))
    nodes = [None, Node(output=0), Node(output=1)]
    nodes += [Node(query_var=n, child_minus=1, child_plus=2) for _ in bottoms]

    def side(first):
        level = list(bottoms)
        for var in range(first + half - 1, first - 1, -1):
            start = len(nodes)
            nodes.extend(Node(query_var=var, child_minus=lo, child_plus=hi)
                         for lo, hi in zip(level[::2], level[1::2]))
            level = range(start, len(nodes))
        return level[0]

    plus = side(1)
    nodes[0] = Node(query_var=half + 1, child_minus=side(half + 2), child_plus=plus)
    return nodes


def test_waiting_bottoms_over_a_high_variable_load_in_small_memory():
    # 2^13 bottom nodes query x_65536 and wait together for their second
    # parents. A bitmask of the variables below each would take 8 KB apiece,
    # 67 MB in all; a set of one variable takes a few hundred bytes.
    n = boolfn.MAX_FILE_VARS
    nodes = _shared_bottoms(12, n)
    tracemalloc.start()
    try:
        tree = DecisionTree(n, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.depth == 14 and acceptance_probability(tree) == 0.5
    assert peak < 8 << 20


def _teeth_on_a_shared_list(teeth):
    """(n, nodes): node j < teeth heads a spine, with spine node j + 1 (the
    last: leaf 0) as its minus child and tooth j as its plus child; every
    tooth has S, one decision list of seven queries over leaf 0 and leaf 1, as
    its minus child and leaf 1 as its plus child. Plus children are opened first, so every tooth
    (9 leaves) is done, and waits for its spine node, before any spine node."""
    s, leaf0 = 2 * teeth, 2 * teeth + 7
    nodes = [Node(query_var=8 + teeth + j, child_minus=j + 1 if j + 1 < teeth else leaf0,
                  child_plus=teeth + j) for j in range(teeth)]
    nodes += [Node(query_var=8 + j, child_minus=s, child_plus=leaf0 + 1) for j in range(teeth)]
    nodes += [Node(query_var=i + 1, child_minus=leaf0 + i % 2, child_plus=s + i + 1 + (i == 6))
              for i in range(7)]
    nodes += [Node(output=0), Node(output=1)]
    return 8 + 2 * teeth, nodes


def test_waiting_subtrees_count_against_the_leaf_budget(monkeypatch):
    # The done subtrees that wait for a parent are disjoint in the unfolded
    # tree, so their leaves bound the root's from below, and with them the
    # variable sets held. With a budget of 40, the fourth tooth passes it
    # (S, both leaves and four teeth: 8 + 2 + 36 leaves), before the bad leaf
    # under the sixth tooth and before any spine node.
    n, nodes = _teeth_on_a_shared_list(12)
    tree = DecisionTree(n, nodes)
    assert (tree.depth, acceptance_probability(tree)) == depth_and_acceptance(tree)
    nodes.append(Node(output=2))
    nodes[12 + 5] = Node(query_var=8 + 5, child_minus=2 * 12, child_plus=len(nodes) - 1)
    with pytest.raises(ValueError, match="must be a bit"):
        DecisionTree(n, nodes)
    monkeypatch.setattr(dtree, "MAX_LEAVES", 40)
    with pytest.raises(ValueError, match="MAX_LEAVES = 40 "):
        DecisionTree(n, nodes)


@st.composite
def _acyclic_arenas(draw):
    """(n, nodes) of an arena rooted at node 0 whose children all have
    larger indices, so nodes are shared but no path loops. Three nodes in
    four query, from a few variables, so repeats along a path are common."""
    size, n = draw(st.integers(1, 10)), draw(st.integers(1, 4))

    def child(i):
        return draw(st.integers(i + 1, size - 1))

    nodes = [Node(query_var=draw(st.integers(1, n)), child_minus=child(i), child_plus=child(i))
             if i < size - 1 and draw(st.integers(0, 3)) else Node(output=draw(st.integers(0, 1)))
             for i in range(size)]
    return n, nodes


@settings(max_examples=400, deadline=None)
@given(arena=_acyclic_arenas())
def test_one_pass_matches_the_path_definitions(arena):
    # Accepted exactly when no root-to-leaf path repeats a variable; then the
    # depth, acceptance and Fourier work are their sums over the paths.
    n, nodes = arena
    paths = leaf_paths(types.SimpleNamespace(root=0, nodes=nodes))
    repeats = any(len({var for var, _ in path}) < len(path) for path, _ in paths)
    try:
        tree = DecisionTree(n, nodes)
    except ValueError as exc:
        assert repeats and "repeats along a path" in str(exc)
        return
    assert not repeats
    assert (tree.depth, acceptance_probability(tree)) == depth_and_acceptance(tree)
    assert tree._fourier_work == sum(1 << len(path) for path, _ in paths)


def test_deep_cycle_is_refused_not_walked_forever():
    doc = json.loads(_decision_list(500))
    doc["nodes"][-3]["hi"] = 0  # the last query loops back to the root
    with pytest.raises(ValueError, match="repeats along a path"):
        tree_from_json(json.dumps(doc))


def _greedy(n, k, pairs):
    return greedy_pair_tree(ortho.sample_haar(n, 7), k, pairs)


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
    (dictator_tree, (2, 16, 1, 1),
     "2d4a405186c6fa30ae280a7caff5ec09849bdfc5aeb9cd52abc35c2dbfdce5c5"),
    (dictator_tree, (3, 8, 2, 2),
     "42c0f6a5e8e3bc48529fdb92b8c35694296e04b6626e7f52f6d0a3e14ee55baa"),
]


@pytest.mark.parametrize("build, args, digest", _ARENAS, ids=[
    f"{build.__name__.strip('_')}{args}".replace(" ", "") for build, args, _ in _ARENAS])
def test_builder_arenas_are_pinned(build, args, digest):
    assert hashlib.sha256(tree_to_json(build(*args)).encode()).hexdigest() == digest


def test_depth_and_acceptance_match_the_leaf_paths():
    # Every builder's arena, the random trees among them, and the shared arenas.
    for tree in [build(*args) for build, args, _ in _ARENAS] + list(SHARED_ARENAS):
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

"""Decision trees: evaluation, sparse Fourier, decomposition, families."""
import collections
import json
import math

import numpy as np
import pytest

from rorrlab import boolfn, dtree
from rorrlab.boolfn import OutputConvention, binomial, l1_level, point_from_index
from rorrlab.dtree import (
    DecisionTree,
    Node,
    TreeMixture,
    acceptance_probability,
    decomposition_sides,
    leaf_signatures,
    make_address,
    make_address_of_majority,
    make_constant,
    make_dictator,
    make_majority,
    make_parity,
    mixture_spectrum,
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
    assert tree.evaluate([1, -1, 1]) == 1
    assert tree.depth == 0


def test_depth_one_tree():
    tree = make_dictator(2, 1)
    assert tree.evaluate([1, -1]) == 1
    assert tree.evaluate([-1, 1]) == 0


def test_majority3_vote():
    tree = make_majority(3)
    assert tree.evaluate([-1, -1, 1]) == 0
    assert tree.evaluate([1, 1, -1]) == 1
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
        tree.evaluate([1])


def test_truth_table_matches_evaluate():
    tree = random_tree(12, 8, seed=3)
    table = tree.truth_table()
    assert table.dtype == np.int8 and table.size == 1 << 12
    for b in range(1 << 12):
        assert table[b] == tree.evaluate(point_from_index(b, 12))


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
            assert dtree.cross_check_spectrum(tree, conv) <= 1e-9


def test_sparse_equals_dense_exactly_with_shared_subtree():
    # Node 2 is reached from both children of the root; coefficients are
    # dyadic, so the merge must match the dense transform bit for bit.
    shared = DecisionTree(4, [
        Node(query_var=3, child_minus=1, child_plus=4),
        Node(query_var=1, child_minus=2, child_plus=5),
        Node(query_var=4, child_minus=5, child_plus=6),
        Node(output=0),
        Node(query_var=2, child_minus=2, child_plus=6),
        Node(output=1),
        Node(output=0),
    ])
    for tree in (shared, random_tree(10, 7, 3)):
        for conv in (ZO, PM):
            table = tree.truth_table().astype(float)
            if conv == PM:
                table = 2.0 * table - 1.0
            dense = boolfn.fourier_from_truth_table(table, tree.n)
            assert sparse_fourier(tree, conv).coeffs == {
                s: c for s, c in dense.coeffs.items() if c != 0.0}


def test_decomposition_depth_one():
    tree = make_dictator(1, 1)
    lhs, rhs = decomposition_sides(tree, (1,), ZO)
    assert lhs == pytest.approx(0.5)
    assert rhs == pytest.approx(0.5)


def test_decomposition_never_queried_variable():
    tree = make_dictator(3, 1)
    lhs, rhs = decomposition_sides(tree, (1, 2), ZO)
    assert lhs == 0.0
    assert rhs == 0.0


def test_decomposition_empty_set_rejected():
    tree = make_dictator(2, 1)
    with pytest.raises(ValueError):
        decomposition_sides(tree, ())


def test_decomposition_random_corpus():
    # The identity is exact on every non-empty subset.
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, min(n, 6) + 1))
        tree = random_tree(n, d, seed=1000 + trial)
        for bits in range(1, 1 << n):
            subset = tuple(i + 1 for i in range(n) if (bits >> i) & 1)
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
    assert out.evaluate([1]) == 1
    assert out.evaluate([-1]) == 0


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
        assert all(s.a_hat_next >= 0 for s in out.node_stats())
        assert acceptance_probability(out) == acceptance_probability(tree)
        probs = sorted(s.reach_probability for s in tree.node_stats())
        probs_out = sorted(s.reach_probability for s in out.node_stats())
        assert probs == probs_out


def test_refined_level1_sum_single_leaf():
    tree = make_constant(2, 1)
    assert refined_level1_sum(tree, 0, 1) == 0.0


def test_refined_level1_sum_depth_one():
    tree = make_dictator(1, 1)
    assert refined_level1_sum(tree, 0, 1, ZO) == pytest.approx(0.5)


def test_refined_level1_sum_majority3():
    tree = make_majority(3)
    total = refined_level1_sum(tree, 0, tree.depth, ZO)
    expected = sum(
        s.reach_probability * abs(s.a_hat_next) for s in tree.node_stats()
    )
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
            value = refined_level1_sum(tree, lo, hi, ZO)
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
            assert tree.evaluate(x) == (1 if x.sum() > 0 else 0)


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
    assert tree.evaluate(x) == 1
    x = np.array([1, 1, -1])
    assert tree.evaluate(x) == 0


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
        assert tree.evaluate(x) == (1 if block.sum() > 0 else 0)
    with pytest.raises(ValueError):
        make_address_of_majority(2)


def test_address_of_majority_d1_is_address1():
    tree = make_address_of_majority(1)
    addr = make_address(1)
    assert tree.n == addr.n
    for b in range(8):
        x = point_from_index(b, 3)
        assert tree.evaluate(x) == addr.evaluate(x)


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
    leaves = leaf_signatures(tree)
    assert len(leaves) == 16
    assert all(leaf.depth == 4 for leaf in leaves)
    with pytest.raises(ValueError):
        random_tree(3, 4, seed=0)


def test_leaf_sum_distribution_exact():
    # Over a uniform leaf of a full depth-d tree, the sum of fixed signs
    # is distributed as a sum of d iid +-1 variables: counts are binomials.
    for d, seed in ((6, 0), (10, 1), (12, 2)):
        tree = random_tree(d + 2, d, seed)
        counts = collections.Counter(leaf.sign_sum() for leaf in leaf_signatures(tree))
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
            tight = dtree.level_ell_bound(tree.depth, tree.n, p, ell,
                                          constant=32.0, variant="ln")
            assert loose >= tight  # log2(4 n^i / p) dominates ln(e n^i / p)
            assert l1_level(spec, ell) <= loose + 1e-12
    with pytest.raises(ValueError):
        dtree.level_ell_bound(4, 8, 0.5, 2, variant="nope")


def test_mixture_spectrum_convexity():
    t1 = make_dictator(3, 1)
    t2 = make_parity(3, [1, 2])
    mix = TreeMixture(components=((0.25, t1), (0.75, t2)))
    spec = mixture_spectrum(mix, ZO)
    s1 = sparse_fourier(t1, ZO)
    s2 = sparse_fourier(t2, ZO)
    for key in set(spec.coeffs) | set(s1.coeffs) | set(s2.coeffs):
        assert spec.coefficient(key) == pytest.approx(
            0.25 * s1.coefficient(key) + 0.75 * s2.coefficient(key)
        )
    assert mix.evaluate([1, 1, -1]) == pytest.approx(0.25 * 1 + 0.75 * 1)


def test_mixture_weight_validation():
    t = make_dictator(2, 1)
    with pytest.raises(ValueError):
        TreeMixture(components=((0.5, t),))


def test_tree_json_round_trip():
    tree = random_tree(6, 3, seed=9)
    doc = tree_to_json(tree)
    again = tree_from_json(doc)
    assert tree_to_json(again) == doc
    parsed = json.loads(doc)
    # External format is 0-based.
    queried = {row["q"] for row in parsed["nodes"] if row["q"] is not None}
    assert all(0 <= q < 6 for q in queried)

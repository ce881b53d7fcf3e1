"""Distinguishing experiments, bound evaluators, corpus trees."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import advantage_whole_batch, depth_and_acceptance, evaluate
from rorrlab import dist, distinguish, dtree, ortho, rorrelation, util
from rorrlab.distinguish import (
    advantage,
    advantage_corpus,
    evaluate_batch,
    global_index,
    greedy_pair_tree,
    standard_corpus,
    thm_main_bound,
)
from rorrlab.dtree import DecisionTree, Node, make_dictator, make_parity


def corpus_tree(u, name, k=2):
    return dict(standard_corpus(u, k, seed=0))[name]


def test_global_index_layout():
    assert global_index(1, 1, 64) == 1
    assert global_index(2, 1, 64) == 65
    assert global_index(3, 64, 64) == 192
    with pytest.raises(ValueError):
        global_index(1, 65, 64)


def test_constant_tree_zero_advantage():
    u = ortho.sample_haar(16, seed=0)
    tree = DecisionTree(2 * 16, [Node(output=1)])
    report = advantage(tree, u, 2, samples=500, seed=1, tree_id="const")
    assert report.estimate == 0.0


def test_single_query_tree_null_advantage():
    u = ortho.sample_haar(32, seed=1)
    tree = make_dictator(2 * 32, global_index(1, 5, 32))
    report = advantage(tree, u, 2, samples=20_000, seed=2)
    assert abs(report.estimate) <= 4.0 * report.stderr


def test_variable_count_mismatch():
    u = ortho.sample_haar(16, seed=0)
    tree = corpus_tree(u, "dictator-b1")
    with pytest.raises(ValueError):
        advantage(tree, u, 3, samples=100, seed=0)


def test_cross_block_parity_closed_form():
    # Advantage of the (z1_a, z2_b) parity tree is -(1/2) sign_correlation(U_ab);
    # the corpus's parity-cross tree is the one at a = b = 1.
    u = ortho.sample_haar(64, seed=3)
    tree = corpus_tree(u, "parity-cross")
    report = advantage(tree, u, 2, samples=60_000, seed=4)
    closed = -0.5 * rorrelation.sign_correlation(u.entries[0, 0])
    assert abs(report.estimate - closed) <= 4.0 * report.stderr


def test_cross_block_parity_tree_semantics():
    tree = make_parity(2 * 4, [global_index(1, 2, 4), global_index(2, 3, 4)])
    x = np.ones(8, dtype=np.int8)
    assert evaluate(tree, x) == 1
    x[1] = -1  # z1_2
    assert evaluate(tree, x) == 0
    x[6] = -1  # z2_3
    assert evaluate(tree, x) == 1
    # The corpus's parity-cross tree reads z1_1 and z2_1.
    cross = corpus_tree(ortho.sample_haar(4, seed=0), "parity-cross")
    assert cross.nodes == make_parity(2 * 4, [1, 5]).nodes


def test_within_block_parity_uniform_mean():
    tree = corpus_tree(ortho.sample_haar(8, seed=0), "parity-within")
    assert tree.nodes == make_parity(2 * 8, [1, 2]).nodes
    batch = dist.sample_uniform_batch(2, 8, 10_000, seed=5).reshape(10_000, -1)
    mean = evaluate_batch(tree, batch).mean()
    assert abs(mean - 0.5) <= 4.0 * math.sqrt(0.25 / 10_000)


HAND_ARENAS = (
    # Leaf root; node 1 is an unreachable internal node.
    DecisionTree(2, [Node(output=1), Node(query_var=1, child_minus=2, child_plus=3),
                     Node(output=0), Node(output=1)]),
    # Root stored last; node 4 is unreachable and points into the tree.
    DecisionTree(3, [Node(output=0), Node(output=1),
                     Node(query_var=2, child_minus=0, child_plus=1),
                     Node(output=1),
                     Node(query_var=3, child_minus=1, child_plus=0),
                     Node(output=0),
                     Node(query_var=3, child_minus=3, child_plus=5),
                     Node(query_var=1, child_minus=2, child_plus=6)], root=7),
)


@st.composite
def trees(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(HAND_ARENAS))
    n = draw(st.integers(min_value=1, max_value=7))
    depth = draw(st.integers(min_value=0, max_value=n))
    return dtree.random_tree(n, depth, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(trees(), st.integers(min_value=0, max_value=40), st.integers(0, 2**32 - 1))
def test_frontier_evaluator_matches_reference_walk(tree, rows, seed):
    batch = np.random.default_rng(seed).choice(
        np.array([-1, 1], dtype=np.int8), size=(rows, tree.n))
    expected = np.array([evaluate(tree, x) for x in batch], dtype=float)
    got = evaluate_batch(tree, batch)
    assert got.dtype == np.float64 and np.array_equal(got, expected)
    assert np.array_equal(dtree.evaluate_rows(tree, batch), expected)


@settings(max_examples=100, deadline=None)
@given(trees())
def test_depth_and_acceptance_match_the_leaf_paths(tree):
    assert (tree.depth, dtree.acceptance_probability(tree)) == depth_and_acceptance(tree)


def test_advantage_corpus_matches_per_tree_advantage():
    u = ortho.sample_haar(16, seed=23)
    corpus = standard_corpus(u, 2, seed=24)
    reports = advantage_corpus(corpus, u, 2, samples=500, seed=25)
    assert reports == [advantage(tree, u, 2, samples=500, seed=25, tree_id=name)
                       for name, tree in corpus]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("samples", [
    lambda k, n: 2,
    lambda k, n: util.MC_CHUNK // (k * n) + 1,  # one row past the first uniform chunk
    lambda k, n: util.MC_CHUNK // ((k - 1) * n) + 1,  # one row past the first chain chunk
    lambda k, n: 20_000,
], ids=["two", "uniform-chunk-plus-one", "chain-chunk-plus-one", "20000"])
def test_streamed_advantage_equals_the_whole_batch_reduction(k, samples):
    # The arms are reduced chunk by chunk, from int8 output rows; every
    # report keeps the bits of the mean and variance of whole float64 rows.
    u = ortho.sample_haar(256, seed=6)
    count = samples(k, u.n)
    pairs = standard_corpus(u, k, seed=2)
    reports = advantage_corpus(pairs, u, k, count, seed=9)
    expected = advantage_whole_batch(pairs, u, k, count, seed=9)
    assert [(r.estimate.hex(), r.stderr.hex()) for r in reports] == \
        [(estimate.hex(), stderr.hex()) for estimate, stderr in expected]
    assert all(r.samples == count for r in reports)


def test_advantage_memory_does_not_grow_with_whole_arms():
    # At N=256, k=2 and 20,000 samples a whole uniform arm drawn as int64
    # takes 82 MB. Streamed, the peak is one chunk plus the output rows.
    u = ortho.sample_haar(256, seed=6)
    pairs = standard_corpus(u, 2, seed=2)
    tracemalloc.start()
    try:
        advantage_corpus(pairs, u, 2, 20_000, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_advantage_keeps_two_bytes_per_sample_per_tree():
    # The blocks do not grow with the sample count, so the traced peak grows
    # by the output rows (one int8 per sample, tree and arm) and the float
    # temporary of one row's variance; float64 rows took 16 bytes per sample
    # per tree.
    u = ortho.sample_haar(8, seed=6)
    pairs = standard_corpus(u, 2, seed=2)
    peaks = []
    for samples in (100_000, 300_000):
        tracemalloc.start()
        try:
            advantage_corpus(pairs, u, 2, samples, seed=9)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    growth = (peaks[1] - peaks[0]) / (200_000 * len(pairs))
    assert growth < 4.0, f"{growth:.1f} bytes per sample per tree"


def test_standard_corpus_needs_two_folds():
    with pytest.raises(ValueError, match="fold count k must be at least 2"):
        standard_corpus(ortho.sample_haar(8, seed=0), 1, seed=0)


def test_advantage_needs_two_samples():
    u = ortho.sample_haar(16, seed=0)
    tree = corpus_tree(u, "dictator-b1")
    with pytest.raises(ValueError):
        advantage(tree, u, 2, samples=1, seed=0)
    with pytest.raises(ValueError):
        advantage_corpus([("t", tree)], u, 2, samples=0, seed=0)


def test_thm_main_bound_values():
    expected = (10 * math.log(2048)) ** 1.25 / 32.0
    assert thm_main_bound(10, 2, 1024) == pytest.approx(expected)
    # Monotone in d; doubling N at k=2 divides by sqrt(2).
    assert thm_main_bound(11, 2, 1024) > thm_main_bound(10, 2, 1024)
    ratio = thm_main_bound(10, 2, 1024) / ((10 * math.log(4096)) ** 1.25 / math.sqrt(2048))
    adjusted = (math.log(2048) / math.log(4096)) ** 1.25 * math.sqrt(2)
    assert ratio == pytest.approx(adjusted)
    with pytest.raises(ValueError):
        thm_main_bound(0, 2, 64)


def test_thm_main_bound_scaling_in_n():
    # With the log factor fixed, the N-dependence is N^{-(k-1)/2}.
    d, k = 5, 2
    b1 = thm_main_bound(d, k, 4096)
    b2 = thm_main_bound(d, k, 2 * 4096)
    log_ratio = (math.log(2 * 4096 * k) / math.log(4096 * k)) ** 1.25
    assert b1 / b2 == pytest.approx(math.sqrt(2) / log_ratio)


def test_corpus_within_envelope():
    for n in (64,):
        u = ortho.sample_haar(n, seed=6)
        for name, tree in standard_corpus(u, 2, seed=7):
            report = advantage(tree, u, 2, samples=4000, seed=8, tree_id=name)
            bound = thm_main_bound(max(tree.depth, 1), 2, n)
            assert abs(report.estimate) <= 10.0 * bound, name


def test_greedy_tree_positive_advantage_direction():
    u = ortho.sample_haar(64, seed=9)
    tree = greedy_pair_tree(u, 2, 1)
    report = advantage(tree, u, 2, samples=40_000, seed=10)
    a, b = np.unravel_index(int(np.argmax(np.abs(u.entries))), u.entries.shape)
    closed = -0.5 * abs(rorrelation.sign_correlation(u.entries[a, b]))
    assert abs(report.estimate - closed) <= 4.0 * report.stderr


def test_middle_block_sign_flip_symmetry():
    # Flipping the middle block of chain samples leaves tree advantages
    # statistically unchanged at desk scale.
    k, n = 3, 64
    u = ortho.sample_haar(n, seed=15)
    tree = dtree.random_tree(k * n, 6, seed=16)
    flipped_batch = dist.sample_duk_batch(u, k, 20_000, seed=17)
    flipped_batch[:, 1, :] *= -1
    plain_batch = dist.sample_duk_batch(u, k, 20_000, seed=18)
    f_flip = evaluate_batch(tree, flipped_batch.reshape(20_000, -1))
    f_plain = evaluate_batch(tree, plain_batch.reshape(20_000, -1))
    diff = f_flip.mean() - f_plain.mean()
    stderr = math.sqrt(f_flip.var(ddof=1) / 20_000 + f_plain.var(ddof=1) / 20_000)
    assert abs(diff) <= 4.0 * stderr


def test_advantage_report_json():
    u = ortho.sample_haar(16, seed=19)
    tree = corpus_tree(u, "dictator-b1")
    report = advantage(tree, u, 2, samples=200, seed=20, tree_id="dict")
    doc = report.to_json()
    assert '"tree": "dict"' in doc
    assert '"N": 16' in doc

"""Chain distribution samplers and moment machinery."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from reference import duk_empirical_moment, gaussian_chain
from rorrlab import dist, ortho, util
from rorrlab.dist import (
    d_hat_product,
    duk_moment_bound,
    moment_bound_audit,
    sample_duk_batch,
    sample_uniform_batch,
    split_global_set,
    u_tilde_mc,
)
from rorrlab.rorrelation import sign_correlation
from rorrlab.util import derive_rng


def _signs(values):
    return np.where(values >= 0, 1, -1)


def test_sign_kernel_matches_where_on_edge_values():
    tiny = np.finfo(float).tiny
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                       tiny / 4, -tiny / 4, tiny, -tiny, 1.0, -1.0])
    signs = dist.sgn(values)
    assert signs.dtype == np.int8
    assert np.array_equal(signs, np.where(values >= 0, 1, -1))
    grid = np.random.default_rng(0).standard_normal((3, 5, 7))
    assert np.array_equal(dist.sgn(grid), _signs(grid))


def test_gk_construction_invariants():
    # The chain identities, with U^T x recomputed one vector at a time.
    u = ortho.sample_haar(32, seed=2)
    for k in (2, 3, 5):
        x, y, z = gaussian_chain(u, k, 20, seed=k)
        assert z.shape == (20, k, 32)
        assert np.max(np.abs(y - np.einsum("ji,mrj->mri", u.entries, x))) <= 1e-9
        assert np.array_equal(z[:, 0], x[:, 0])
        for i in range(1, k - 1):
            assert np.array_equal(z[:, i], y[:, i - 1] * x[:, i])
        assert np.array_equal(z[:, k - 1], y[:, k - 2])


def test_gk_k2_structure():
    u = ortho.sample_haar(16, seed=1)
    x, _, z = gaussian_chain(u, 2, 10, seed=0)
    assert np.allclose(z[:, 0], x[:, 0])
    assert np.allclose(z[:, 1], x[:, 0] @ u.entries)
    assert np.array_equal(sample_duk_batch(u, 2, 10, seed=0)[:, 0], _signs(x[:, 0]))


def test_gk_identity_matrix_middle_product():
    eye = ortho.OrthogonalMatrix(n=8, entries=np.eye(8), seed=None)
    x, _, z = gaussian_chain(eye, 3, 10, seed=4)
    assert np.allclose(z[:, 1], x[:, 0] * x[:, 1])
    assert np.array_equal(sample_duk_batch(eye, 3, 10, seed=4)[:, 1],
                          _signs(x[:, 0] * x[:, 1]))


def test_gk_marginal_gaussian():
    # X^(1)_1 and (U^T X^(1))_1 over 2000 draws are each N(0,1).
    u = ortho.sample_haar(8, seed=5)
    _, _, z = gaussian_chain(u, 2, 2000, seed=0)
    for values in (z[:, 0, 0], z[:, 1, 0]):
        _, p = stats.kstest(values, "norm")
        assert p > 0.01


def test_gk_determinism():
    u = ortho.sample_haar(8, seed=5)
    assert np.array_equal(gaussian_chain(u, 3, 10, seed=9)[2],
                          gaussian_chain(u, 3, 10, seed=9)[2])
    assert np.array_equal(sample_duk_batch(u, 3, 10, seed=9),
                          sample_duk_batch(u, 3, 10, seed=9))


def test_duk_is_sign_of_gk():
    u = ortho.sample_haar(16, seed=7)
    eye = ortho.OrthogonalMatrix(n=8, entries=np.eye(8), seed=None)
    for matrix, k in ((u, 2), (u, 3), (u, 5), (eye, 3)):
        _, _, z = gaussian_chain(matrix, k, 64, seed=12)
        assert np.array_equal(sample_duk_batch(matrix, k, 64, seed=12), _signs(z))


def test_duk_single_coordinate_uniform():
    u = ortho.sample_haar(16, seed=3)
    batch = sample_duk_batch(u, 3, 20_000, seed=8)
    freq = (batch[:, 1, 0] == 1).mean()
    assert abs(freq - 0.5) <= 4.0 * math.sqrt(0.25 / batch.shape[0])


def test_duk_batch_matches_single():
    u = ortho.sample_haar(8, seed=11)
    batch = sample_duk_batch(u, 4, 10, seed=13)
    assert batch.shape == (10, 4, 8)
    assert np.all(np.abs(batch) == 1)


@pytest.mark.parametrize("n, k, count, seed, matrix_seed, digest", [
    (16, 2, 50, 1, 2, "a75889c18d9374bf50548f6d7e21f9f40808c7cfc6f1b9ad350e70fe936217a0"),
    (16, 3, 50, 1, 2, "3126ec396476106c9537fe124ac06cde4e34669ff2273eef66463c8401e9904b"),
    (256, 2, 8200, 5, 4, "79e3caf504cd9acb2a9ecf792beaf034f971989432af7f8b9ce3b05a4a7feee6"),
    (256, 3, 8200, 5, 4, "ee5ef9d290e99720c86e6e2cdb39ade0d4c733790f09b287bfe327010f894dac"),
    (2048, 3, 200, 5, 4, "3f77b951d78c4355243a864b0371137dd99ae08c8c9b6511c434e84174c110d9"),
    (64, 3, 9000, 5, 4, "e5707a1c6308a02f40530aa824353006aa6de03eb4fcf4f729854b6dbe470d2b"),
])
def test_duk_batch_stream_is_pinned(n, k, count, seed, matrix_seed, digest):
    # Digests of the stacked (m, k-1, N) @ U sampler as one GEMM per chunk
    # wrote them; the N >= 256 draws span more than one chunk of MC_CHUNK
    # Gaussian entries. At N = 2048 a sub-block takes GEMM_ROW_FLOOR rows, not
    # the 32 of MC_CHUNK // 8 entries, and at N = 64 every chunk splits into
    # sub-blocks, the last one short. Any change to the stream or the signs
    # shows here.
    assert n < 64 or count * (k - 1) * n > util.MC_CHUNK
    batch = sample_duk_batch(ortho.sample_haar(n, matrix_seed), k, count, seed)
    assert batch.dtype == np.int8 and batch.shape == (count, k, n)
    assert hashlib.sha256(batch.tobytes()).hexdigest() == digest


def test_duk_batch_holds_only_its_output_and_one_block():
    # One chunk's signs (1 MB at N = 256, k = 2) and one sub-block's x and
    # U^T x (512 KB each) beside the 10 MB output; drawn whole per chunk, x and
    # U^T x took 4 MB each, and two chunks were alive at once.
    u = ortho.sample_haar(256, seed=1)
    count = 20_000
    tracemalloc.start()
    try:
        sample_duk_batch(u, 2, count, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - count * 2 * 256 < 3 << 20


@pytest.mark.parametrize("n, k, count, seed, digest", [
    (16, 3, 50, 1, "e555c179c0946b85db7f7af4e9b61e523dd95a801d88780cce150508b30c117f"),
    (256, 2, 3000, 7, "365050dae619d699eb494fafd1ca202ed4212973116a18b5d27f094fca519e1a"),
    (256, 2, 1025, 7, "f4150f2219b26f8847f0cee7989ad683c71e6239c3a656263942e7d00ecf8ffa"),
    (256, 3, 683, 7, "ecf3ded9102a0a41b1e63a2b3f1b3212dcfd3fe0428bded386eaf5d40a60ed8f"),
])
def test_uniform_batch_stream_is_pinned(n, k, count, seed, digest):
    # Digests of the uniform stream as one whole-batch draw wrote it. At N=256
    # the draws span three chunks of MC_CHUNK entries, or end one row past
    # the first chunk.
    rows = util.MC_CHUNK // (k * n)
    assert n < 256 or count > 2 * rows or count == rows + 1
    batch = sample_uniform_batch(k, n, count, seed)
    assert batch.dtype == np.int8 and batch.shape == (count, k, n)
    assert hashlib.sha256(batch.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("chunk", [1, 3000])
def test_sampler_blocks_concatenate_to_the_default_stream(k, chunk, monkeypatch):
    # With MC_CHUNK patched small both samplers cut several blocks, and the
    # uniform one draws each block in sub-blocks of MC_CHUNK // 8 entries:
    # one row at chunk 1, and 11, 7 or 5 rows at chunk 3000, which do not
    # divide its full blocks. The blocks keep the spans of chunk_spans, and
    # end to end they are the stream of the default chunks.
    n, count = 16, 301
    u = ortho.sample_haar(n, seed=3)
    whole = {"duk": sample_duk_batch(u, k, count, seed=4),
             "uniform": sample_uniform_batch(k, n, count, seed=4)}
    monkeypatch.setattr(util, "MC_CHUNK", chunk)
    for name, blocks, width in (("duk", dist.duk_chunks(u, k, count, 4), (k - 1) * n),
                                ("uniform", dist.uniform_chunks(k, n, count, 4), k * n)):
        blocks = list(blocks)
        assert [len(b) for b in blocks] == \
            [stop - start for start, stop in util.chunk_spans(count, width)], name
        assert len(blocks) > 1 and all(b.dtype == np.int8 for b in blocks), name
        assert np.array_equal(np.concatenate(blocks), whole[name]), name


_BAD_DRAWS = {
    "duk-chunks-k-1": (lambda u: dist.duk_chunks(u, 1, 10, 0), "fold count k must be at least 2"),
    "duk-chunks-count-negative": (lambda u: dist.duk_chunks(u, 2, -1, 0),
                                  "sample count -1 is negative"),
    "duk-batch-k-negative": (lambda u: sample_duk_batch(u, -2, 3, 0),
                             "fold count k must be at least 2"),
    "uniform-chunks-k-1": (lambda u: dist.uniform_chunks(1, 4, 10, 0),
                           "fold count k must be at least 2"),
    "uniform-chunks-n-0": (lambda u: dist.uniform_chunks(2, 0, 3, 0),
                           "vector length N = 0 is not positive"),
    "uniform-batch-n-negative": (lambda u: sample_uniform_batch(2, -4, 3, 0),
                                 "vector length N = -4 is not positive"),
    "uniform-batch-count-negative": (lambda u: sample_uniform_batch(2, 4, -1, 0),
                                     "sample count -1 is negative"),
}


@pytest.mark.parametrize("call, message", _BAD_DRAWS.values(), ids=_BAD_DRAWS)
def test_samplers_check_their_arguments_on_the_call(call, message):
    # The chunk samplers check before they return their block iterator, so
    # a bad argument is refused on the call itself, with no block read and
    # nothing allocated for the batch; no draws is an empty batch.
    u = ortho.sample_haar(4, seed=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(u)
    assert sample_duk_batch(u, 3, 0, 0).shape == (0, 3, 4)
    assert sample_uniform_batch(2, 4, 0, 0).shape == (0, 2, 4)


def test_uniform_sampler():
    batch = sample_uniform_batch(2, 16, 20_000, seed=1)
    freq = (batch[:, 0, 3] == 1).mean()
    assert abs(freq - 0.5) <= 4.0 * math.sqrt(0.25 / batch.shape[0])


def test_u_tilde_exact_values():
    # Singleton-singleton links take the arcsine closed form, without samples.
    eye = ortho.OrthogonalMatrix(n=4, entries=np.eye(4), seed=None)
    assert d_hat_product(eye, [(1,), (2,)]).value == pytest.approx(0.0)
    assert d_hat_product(eye, [(2,), (2,)]).value == pytest.approx(1.0)
    est = d_hat_product(eye, [(1,), (1,)], samples=0)
    assert est.exact and est.stderr == 0.0 and est.samples == 0
    for parts in ([(0,), (1,)], [(1,), (5,)]):
        with pytest.raises(ValueError, match="out of range"):
            d_hat_product(eye, parts)
    u = ortho.sample_haar(8, seed=5)
    est = d_hat_product(u, [(3,), (7,), (2,)])
    assert est.exact
    assert est.value == sign_correlation(u.entries[2, 6]) * sign_correlation(u.entries[6, 1])


def test_u_tilde_mc_odd_parity_literal_zero():
    u = ortho.sample_haar(16, seed=2)
    for s, t in (([1], []), ([1, 2], [3]), ([], [4, 5, 6])):
        est = u_tilde_mc(u, s, t, 100, seed=0)
        assert est.value == 0.0
        assert est.stderr == 0.0


def test_u_tilde_mc_matches_closed_form():
    u = ortho.sample_haar(16, seed=19)
    est = u_tilde_mc(u, [2], [5], 60_000, seed=3)
    assert abs(est.value - sign_correlation(u.entries[1, 4])) <= 4.0 * est.stderr


def test_u_tilde_mc_identity_squares():
    eye = ortho.OrthogonalMatrix(n=4, entries=np.eye(4), seed=None)
    # S = T = {1,2}: sgn(X_1^2 X_2^2) = 1 always.
    est = u_tilde_mc(eye, [1, 2], [1, 2], 2000, seed=1)
    assert est.value == pytest.approx(1.0)
    # Empty S and T: the empty product is 1, drawn from rows of no entries.
    assert u_tilde_mc(eye, [], [], 2000, seed=1) == dist.MomentEstimate(1.0, 0.0, 2000, False)


def test_u_tilde_mc_sample_guard():
    u = ortho.sample_haar(4, seed=0)
    # Fewer than two antithetic pairs leave no spread for the stderr.
    for samples in (1, 2, 3):
        with pytest.raises(ValueError):
            u_tilde_mc(u, [1], [2], samples, seed=0)


def _full_width_u_tilde(u, s, t, samples, rng):
    """Reference estimator: draws the whole Gaussian N-vector X per pair
    and reads x_S and (U^T X)_T from it (even |S| + |T| only)."""
    s_idx = np.asarray(sorted(set(s)), dtype=int) - 1
    t_idx = np.asarray(sorted(set(t)), dtype=int) - 1
    pairs = samples // 2
    x = rng.standard_normal((pairs, u.n))
    prod = np.ones(pairs)
    if s_idx.size:
        prod *= np.prod(x[:, s_idx], axis=1)
    if t_idx.size:
        prod *= np.prod(x @ u.entries[:, t_idx], axis=1)
    signs = np.where(prod >= 0, 1.0, -1.0)
    mean = signs.sum() / pairs
    var = max((signs**2).sum() / pairs - mean**2, 0.0) * pairs / max(pairs - 1, 1)
    return mean, math.sqrt(var / pairs)


def _near_identity(n, seed):
    """Q factor of I + 0.1 G: far from Haar, so sign moments of x_S and
    (U^T X)_T with S and T overlapping stay large."""
    q, r = np.linalg.qr(np.eye(n) + 0.1 * np.random.default_rng(seed).standard_normal((n, n)))
    return ortho.OrthogonalMatrix(n=n, entries=q * np.sign(np.diag(r)), seed=None)


@pytest.mark.parametrize("n, s, t, near", [
    (8, [1], [1], False),
    (8, [2, 5], [1, 3], False),
    (12, [1, 2, 3], [4], False),
    (16, [], [3, 9], False),
    (16, [4, 7, 11, 13], [4, 7], False),
    (8, [1, 2, 3, 4, 5, 6], [2, 3, 7, 8], False),  # N - |S| = 2 < |T| = 4
    (10, list(range(1, 10)), [1, 4, 9], False),  # N - |S| = 1 < |T| = 3
    (8, [1, 3], [1, 3], True),
    (8, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], True),  # N - |S| = 3 < |T| = 5
    (10, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], True),  # N - |S| = 4 < |T| = 6
])
def test_u_tilde_mc_marginal_law_matches_full_width(n, s, t, near):
    # Two-sample check of the marginal draw against the full-width
    # reference on an independent stream.
    u = _near_identity(n, seed=n) if near else ortho.sample_haar(n, seed=n + len(s))
    est = u_tilde_mc(u, s, t, 400_000, seed=7)
    ref, ref_stderr = _full_width_u_tilde(u, s, t, 400_000, np.random.default_rng([n, 7]))
    assert abs(est.value - ref) <= 4.0 * math.sqrt(est.stderr**2 + ref_stderr**2)


def test_u_tilde_mc_all_of_s_is_the_full_width_stream():
    # S = [N] leaves S^c empty, so R has no rows and the draw is exactly
    # the full-width X on the same stream.
    n, s, t = 12, list(range(1, 13)), [2, 5, 6, 11]
    u = ortho.sample_haar(n, seed=4)
    est = u_tilde_mc(u, s, t, 5000, seed=9)
    rng = derive_rng(9, "u-tilde", n, tuple(range(n)), (1, 4, 5, 10))
    assert (est.value, est.stderr) == _full_width_u_tilde(u, s, t, 5000, rng)


def test_u_tilde_mc_rank_deficient_cross_term():
    # I_8 with |S| = 6 and T inside S: U[S^c, T] = 0, so R is a 2 x 6 zero
    # factor and y_T = x_T, making the product a square.
    eye = ortho.OrthogonalMatrix(n=8, entries=np.eye(8), seed=None)
    est = u_tilde_mc(eye, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], 2000, seed=2)
    assert est.value == 1.0 and est.stderr == 0.0
    # T reaching into S^c: y_7 = x_7 is independent of everything else.
    est = u_tilde_mc(eye, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7], 20_000, seed=2)
    assert abs(est.value) <= 4.0 * est.stderr


def test_split_global_set():
    parts = split_global_set([1, 5, 6, 12], k=3, n=4)
    assert parts == [(1,), (1, 2), (4,)]
    with pytest.raises(ValueError):
        split_global_set([13], k=3, n=4)


def test_d_hat_small_sets_vanish():
    u = ortho.sample_haar(32, seed=4)
    rng = np.random.default_rng(0)
    for k in (2, 3, 4):
        for _ in range(20):
            size = int(rng.integers(1, k))
            global_set = rng.choice(k * 32, size=size, replace=False) + 1
            parts = split_global_set([int(g) for g in global_set], k, 32)
            est = d_hat_product(u, parts, seed=0)
            assert est.value == 0.0 and est.exact


def test_d_hat_singleton_link_is_closed_form():
    u = ortho.sample_haar(16, seed=6)
    est = d_hat_product(u, [(3,), (7,)], seed=0)
    assert est.exact
    assert est.value == pytest.approx(sign_correlation(u.entries[2, 6]))


def test_d_hat_k3_chain_matches_direct_sampler():
    u = ortho.sample_haar(16, seed=9)
    parts = [(2,), (5,), (11,)]
    exact = d_hat_product(u, parts, seed=0)
    assert exact.exact
    expected = sign_correlation(u.entries[1, 4]) * sign_correlation(u.entries[4, 10])
    assert exact.value == pytest.approx(expected)
    emp = duk_empirical_moment(u, 3, parts, samples=100_000, seed=14)
    assert abs(emp.value - exact.value) <= 4.0 * emp.stderr


def test_d_hat_k2_consistency_with_sampler():
    u = ortho.sample_haar(16, seed=10)
    parts = [(1,), (2,)]
    exact = d_hat_product(u, parts, seed=0)
    emp = duk_empirical_moment(u, 2, parts, samples=100_000, seed=15)
    assert abs(emp.value - exact.value) <= 4.0 * emp.stderr


def test_d_hat_refuses_a_repeated_index_in_a_block():
    # A block part is a set: {1, 1} must not be read as {1}.
    u = ortho.sample_haar(8, seed=2)
    for parts in ([(1, 1), (2, 2)], [(3,), (5, 2, 5)]):
        with pytest.raises(ValueError, match="repeats an index"):
            d_hat_product(u, parts)


def test_d_hat_empty_xor_link_vanishes():
    u = ortho.sample_haar(8, seed=2)
    est = d_hat_product(u, [(1, 2), (), ()], seed=0)
    assert est.value == 0.0 and est.exact


def test_moment_bound_shape():
    assert duk_moment_bound(2, 256, 2) == pytest.approx(
        math.sqrt(100 * 2 * math.log(256) / 256)
    )
    with pytest.raises(ValueError):
        duk_moment_bound(0, 256, 2)


def test_audit_passes_for_haar():
    u = ortho.sample_haar(256, seed=1)
    report = moment_bound_audit(u, 2, trials=40, max_size=4, seed=0,
                                mc_samples=4000)
    assert not report.violations
    assert report.worst_margin > 0
    assert len(report.rows) == 40


def test_audit_flags_identity_diagonal_chain():
    # I_N is not good: the same-index singleton chain has |D_hat| = 1,
    # above the budget once N is large enough for the bound to bite.
    n = 2048
    eye = ortho.OrthogonalMatrix(n=n, entries=np.eye(n), seed=None)
    report = moment_bound_audit(eye, 2, trials=8, max_size=4, seed=0,
                                mc_samples=2000)
    assert duk_moment_bound(2, n, 2) < 1.0
    assert report.violations


def test_audit_max_size_guard():
    u = ortho.sample_haar(16, seed=0)
    with pytest.raises(ValueError):
        moment_bound_audit(u, 3, trials=5, max_size=2, seed=0)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            moment_bound_audit(u, 2, trials=trials, max_size=2, seed=0)

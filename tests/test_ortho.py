"""Haar sampling, sub-matrix norms, goodness, Hadamard counterexample."""
import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from reference import (dense_orthogonality_error, goodness_whole_array, hadamard_implicit_block,
                       haar_corners_whole, haar_numpy_qr, two_by_two_norms)
from rorrlab import ortho, verify
from rorrlab.util import MC_CHUNK, derive_rng

MB = 1 << 20


def _traced_peak(call) -> int:
    """Peak bytes traced while call() runs, from a fresh trace."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_haar_n1_is_sign():
    u = ortho.sample_haar(1, seed=0)
    assert u.entries.shape == (1, 1)
    assert abs(abs(u.entries[0, 0]) - 1.0) < 1e-12


def test_haar_orthogonality():
    u = ortho.sample_haar(64, seed=123)
    assert u.orthogonality_error() <= 1e-10


# sample_haar skips the Gram check because Householder QR makes Q
# orthogonal to O(n eps); this holds it to the full check at every size the
# lab samples: verify's 64-256, the panel edges 300 and 513, and N = 2048.
@pytest.mark.parametrize("n, seeds", [(1, range(5)), (2, range(5)), (64, range(5)),
                                      (300, range(3)), (513, range(3)), (2048, [5])])
def test_haar_samples_pass_the_full_gram_check(n, seeds):
    for seed in seeds:
        u = ortho.sample_haar(n, seed)
        assert u.orthogonality_error() <= ortho.ORTHOGONALITY_TOL


def test_a_moved_entry_is_refused_by_the_loader_and_the_constructor(tmp_path):
    # Only what the package factors itself skips the Gram check: a file and
    # a public construction are checked, so a Haar sample whose entry moved
    # by 1e-9 (1e-9 / sqrt(64) off in U^T U at least) is refused by both.
    n, seed = 64, 3
    entries = ortho.sample_haar(n, seed).entries.copy()
    path = tmp_path / "u.mat"
    path.write_bytes(ortho.MATRIX_MAGIC + struct.pack("<QQ", n, seed)
                     + entries.astype("<f8").tobytes())
    assert ortho.load_matrix(path).seed == seed
    entries[5, 7] += 1e-9
    path.write_bytes(path.read_bytes()[:20] + entries.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="not orthogonal"):
        ortho.load_matrix(path)
    with pytest.raises(ValueError, match="not orthogonal"):
        ortho.OrthogonalMatrix(n, entries, seed)


@pytest.mark.parametrize("n", [300, 513])
@pytest.mark.parametrize("col", [3, 263, -1], ids=["first", "middle", "last"])
def test_panel_gram_check_sees_a_perturbation_in_any_panel(n, col):
    # Columns 3, 263 and n - 1 sit in the first 256-column panel, the
    # second, and the last, partial one. The entry moves after
    # construction, which would refuse the matrix.
    a = ortho.sample_haar(n, seed=n).entries.copy()
    u = ortho.OrthogonalMatrix(n, a)
    a[n // 3, col] += 1e-9
    assert abs(u.orthogonality_error() - dense_orthogonality_error(a)) <= 1e-15
    assert u.orthogonality_error() > 1e-12


@pytest.mark.parametrize("n, i, j", [(300, 3, 299), (513, 100, 300), (513, 260, 512)])
def test_panel_gram_check_sees_a_skew_between_panels(n, i, j):
    # Column j leans towards column i of an earlier panel and keeps its
    # unit norm: only the cross-panel entry (i, j) of U^T U moves.
    a = ortho.sample_haar(n, seed=n).entries.copy()
    u = ortho.OrthogonalMatrix(n, a)
    a[:, j] += 1e-9 * a[:, i]
    a[:, j] /= np.linalg.norm(a[:, j])
    assert abs(u.orthogonality_error() - dense_orthogonality_error(a)) <= 1e-15
    assert u.orthogonality_error() > 0.9e-9


@pytest.mark.parametrize("n", [64, 300, 2048])
def test_panel_gram_check_agrees_with_the_dense_one_on_haar_samples(n):
    u = ortho.sample_haar(n, seed=2)
    assert abs(u.orthogonality_error() - dense_orthogonality_error(u.entries)) <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("col", [0, 300, 512])
def test_panel_gram_check_refuses_non_finite_entries(bad, col):
    a = ortho.sample_haar(513, seed=1).entries.copy()
    a[7, col] = bad
    with pytest.raises(ValueError, match="not orthogonal"):
        ortho.OrthogonalMatrix(513, a)


def test_panel_gram_check_of_the_identity_is_zero_in_bounded_memory():
    entries = np.eye(2048)
    assert ortho.OrthogonalMatrix(2048, entries).orthogonality_error() == 0.0
    # One 2048 x 2048 Gram temporary alone would be 32 MB.
    assert _traced_peak(lambda: ortho.OrthogonalMatrix(2048, entries)) < 12 * MB


def test_haar_deterministic_per_seed():
    a = ortho.sample_haar(16, seed=7)
    b = ortho.sample_haar(16, seed=7)
    c = ortho.sample_haar(16, seed=8)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


# Tiles of TRANSPOSE_TILE = 256: one partial tile (n < 256), whole tiles
# (256), a one-row edge tile (257), and partial edges past several tiles.
@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 513, 1000])
@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_haar_in_place_qr_has_the_bits_of_numpy_qr(n, seed):
    # The in-place dgeqrf/dorgqr calls are the ones np.linalg.qr makes; a
    # numpy whose lapack_lite differs from its qr fails here.
    assert ortho.sample_haar(n, seed).entries.tobytes() == haar_numpy_qr(n, seed).tobytes()


def test_haar_sample_is_factored_in_its_own_buffer():
    # The Gaussians are the one n x n array: np.linalg.qr held a copy of
    # them, Q and R besides (32 MB at N = 1024). The tile and the LAPACK
    # work arrays add under an eighth of the payload, and no Gram check runs.
    peak = _traced_peak(lambda: ortho.sample_haar(1024, seed=4))
    assert peak < 1.125 * 8 * 1024**2, f"peak {peak / MB:.1f} MB"


def test_haar_zero_dimension_rejected():
    with pytest.raises(ValueError):
        ortho.sample_haar(0, seed=0)


def test_corner_identity_matches_full_sampler():
    # Q e_1 of the sign-corrected QR equals the normalized Gaussian column.
    for n, seed in ((16, 0), (64, 3), (128, 11)):
        u = ortho.sample_haar(n, seed)
        g = derive_rng(seed, "haar", n).standard_normal((n, n))
        expect = g[:, 0] / np.linalg.norm(g[:, 0])
        assert np.max(np.abs(u.entries[:, 0] - expect)) <= 1e-12


def test_corner_distribution_standard_normal():
    # sqrt(N) U_11 over 10^3 Haar samples is approximately N(0,1); seed-pinned.
    n = 256
    values = ortho.haar_corner_samples(n, 1000, seed=0)
    _, p = stats.kstest(np.sqrt(n) * values, "norm")
    assert p > 0.01


@pytest.mark.parametrize("count", [1, MC_CHUNK // 256 + 1, 3 * (MC_CHUNK // 256) + 5],
                         ids=["one", "one-past-a-chunk", "three-chunks"])
def test_corner_samples_in_chunks_equal_one_whole_draw(count):
    samples = ortho.haar_corner_samples(256, count, seed=9)
    assert samples.tobytes() == haar_corners_whole(256, count, seed=9).tobytes()


def test_corner_samples_in_bounded_memory():
    # The whole (10,000, 256) Gaussian block would be 20 MB.
    assert _traced_peak(lambda: ortho.haar_corner_samples(256, 10_000, seed=0)) < 12 * MB


def test_haar_rotation_invariance_smoke():
    # For fixed unit x, coordinates of U x look like first-column coordinates.
    n = 128
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    ux = np.concatenate([
        ortho.sample_haar(n, seed=s).entries @ x for s in range(40)
    ])
    cols = np.concatenate([
        ortho.sample_haar(n, seed=1000 + s).entries[:, 0] for s in range(40)
    ])
    _, p = stats.ks_2samp(ux, cols)
    assert p > 0.01


def test_submatrix_norm_full_matrix():
    u = ortho.sample_haar(32, seed=2)
    assert ortho.spectral_norm(u.entries) == pytest.approx(1.0, abs=1e-9)


def test_submatrix_norm_singleton():
    u = ortho.sample_haar(16, seed=4)
    assert ortho.spectral_norm(u.entries[2:3, 4:5]) == pytest.approx(abs(u.entries[2, 4]))


def test_submatrix_norm_matches_svd_oracle():
    u = ortho.sample_haar(64, seed=9)
    rng = np.random.default_rng(1)
    rows = sorted(rng.choice(64, 3, replace=False))
    cols = sorted(rng.choice(64, 5, replace=False))
    block = u.entries[np.ix_(rows, cols)]
    oracle = float(np.linalg.svd(block, compute_uv=False)[0])
    assert ortho.spectral_norm(block) == pytest.approx(oracle, abs=1e-9)


def test_submatrix_norm_monotone_and_capped():
    u = ortho.sample_haar(32, seed=5)
    rng = np.random.default_rng(3)
    rows = sorted(rng.choice(32, 4, replace=False))
    cols = sorted(rng.choice(32, 4, replace=False))
    small = ortho.spectral_norm(u.entries[np.ix_(rows[:2], cols)])
    big = ortho.spectral_norm(u.entries[np.ix_(rows, cols)])
    assert small <= big + 1e-12
    assert big <= 1.0 + 1e-12


def test_spectral_norm_of_a_stack_wider_than_512_equals_per_block_svds():
    u = ortho.sample_haar(640, seed=6)
    rng = np.random.default_rng(2)
    stack = np.array([u.entries[np.ix_(rng.choice(640, 520, replace=False),
                                       rng.choice(640, 600, replace=False))] for _ in range(3)])
    norms = ortho.spectral_norm(stack)
    assert norms.shape == (3,) and np.all(norms <= 1.0 + 1e-12)
    assert list(norms) == [np.linalg.svd(block, compute_uv=False)[0] for block in stack]


def test_goodness_haar_sample():
    u = ortho.sample_haar(64, seed=21)
    report = ortho.check_goodness(u, sampled_pairs=2000, max_block=6, seed=1)
    assert report.violation_count == 0
    assert report.worst_ratio > 0
    assert report.checked_pairs > 2000  # exhaustive passes included


def test_goodness_smoke_n4():
    u = ortho.sample_haar(4, seed=3)
    report = ortho.check_goodness(u, sampled_pairs=50, max_block=2, seed=0)
    assert np.isfinite(report.worst_ratio)
    assert report.checked_pairs > 0
    parsed = report.to_json()
    assert "worst_ratio" in parsed


def test_goodness_flags_identity_at_2048():
    # Singleton blocks of I_N have norm 1 > sqrt(200 ln N / N) once N >= 2048.
    identity = ortho.OrthogonalMatrix(n=2048, entries=np.eye(2048), seed=None)
    report = ortho.check_goodness(identity, sampled_pairs=50, max_block=2, seed=0)
    assert report.violation_count > 0
    assert report.worst_ratio > 1.0
    assert ortho.goodness_bound(1, 1, 2048) < 1.0


def _rotations_then_identity(n: int, rows: int) -> ortho.OrthogonalMatrix:
    """2 x 2 rotations by entries 0.8 and 0.6 on the first `rows` rows (no
    singleton violates at n = 2048) and the identity after them."""
    a = np.eye(n)
    for i in range(0, rows, 2):
        a[i : i + 2, i : i + 2] = [[0.8, -0.6], [0.6, 0.8]]
    return ortho.OrthogonalMatrix(n, a)


@pytest.mark.parametrize("make, pairs, max_block", [
    (lambda: ortho.OrthogonalMatrix(2048, np.eye(2048)), 100, 4),
    (lambda: _rotations_then_identity(2048, 300), 100, 4),
    (lambda: ortho.sample_haar(64, seed=12), 10_000, 8),
], ids=["identity-2048", "rotations-then-identity-2048", "haar-64"])
def test_chunked_goodness_passes_equal_whole_array_records(make, pairs, max_block):
    # On the identity all 2,048 singletons tie at the worst ratio and
    # violate: the first stays worst_pair, and the stored violations keep
    # their row-major order. After 300 rows of rotations the first
    # violation and the worst pair lie past the first row chunk.
    u = make()
    report = ortho.check_goodness(u, pairs, max_block, seed=5)
    assert report.to_json() == goodness_whole_array(u, pairs, max_block, seed=5).to_json()


def test_in_place_two_by_two_norms_have_the_bits_of_the_formula():
    # Random blocks and Haar rows; rank-one and zero blocks, whose gap is
    # clamped at 0. The inputs are left as they were.
    rng = np.random.default_rng(26)
    a, b, c, d = rng.standard_normal((4, 64, 2016)) / 8
    rows = ortho.sample_haar(64, seed=1).entries
    for block in ((a, b, c, d), tuple(rows[:4]), (a, b, 2 * a, 2 * b), (a, 0 * b, 0 * c, d),
                  (0 * a,) * 4):
        before = [x.copy() for x in block]
        assert ortho._two_by_two_norms(*block).tobytes() == two_by_two_norms(*block).tobytes()
        assert all(np.array_equal(x, y) for x, y in zip(block, before))


@pytest.mark.parametrize("make, pairs, max_block", [
    (lambda: ortho.OrthogonalMatrix(2048, np.eye(2048)), 100, 4),
    (lambda: ortho.sample_haar(64, seed=12), 10_000, 8),
], ids=["identity-2048", "haar-64"])
def test_goodness_in_bounded_memory(make, pairs, max_block):
    # np.abs of the whole 2048 matrix alone would be 32 MB, and 256 row
    # pairs of 2 x 2 blocks at n = 64 took 36 MB.
    u = make()
    assert _traced_peak(lambda: ortho.check_goodness(u, pairs, max_block, seed=0)) < 12 * MB


def test_identity_is_a_read_only_view_of_one_line():
    # 2N - 1 entries stand for N^2; goodness reads them as it reads np.eye.
    u = ortho.identity(2048)
    assert u.entries.shape == (2048, 2048) and not u.entries.flags.writeable
    assert np.array_equal(u.entries, np.eye(2048))
    with pytest.raises(ValueError):
        u.entries[0, 0] = 2.0
    eye = ortho.OrthogonalMatrix._trusted(2048, np.eye(2048))
    for seed in (0, 5):
        assert (ortho.check_goodness(u, 100, 4, seed).to_json()
                == ortho.check_goodness(eye, 100, 4, seed).to_json())
    assert [ortho.identity(n).entries.tolist() for n in (1, 2, 3)] == [
        np.eye(n).tolist() for n in (1, 2, 3)]


def test_goodness_check_holds_no_n_squared_array():
    # The 2048 identity of check 9 was a 32 MB np.eye.
    peak = _traced_peak(lambda: verify.run_check("goodness", verify.VerifyConfig.reduced()))
    assert peak < 12 * MB


def test_goodness_requires_n_at_least_two():
    u = ortho.sample_haar(1, seed=0)
    with pytest.raises(ValueError):
        ortho.check_goodness(u, sampled_pairs=1, max_block=1, seed=0)


def _per_block_sampled(u, sampled_pairs, max_block, seed):
    """Norm, bound and 1-based (S, T) of each sampled pair, in draw order,
    from one SVD per block over the index sets of ortho._goodness_draws."""
    out = []
    for sizes, rows, cols in ortho._goodness_draws(u.n, sampled_pairs, max_block, seed):
        for (s_size, t_size), r, c in zip(sizes, rows, cols):
            block = u.entries[np.ix_(r[:s_size], c[:t_size])]
            out.append((float(np.linalg.svd(block, compute_uv=False)[0]),
                        ortho.goodness_bound(s_size, t_size, u.n),
                        (tuple(int(i) + 1 for i in r[:s_size]),
                         tuple(int(j) + 1 for j in c[:t_size]))))
    return out


def _per_block_goodness(u, sampled_pairs, max_block, seed):
    """Reference for check_goodness: its exhaustive passes, then the
    sampled pairs with one SVD per block, recorded one pair at a time."""
    report = ortho.check_goodness(u, sampled_pairs=0, max_block=max_block, seed=seed)
    for norm, bound, (rows, cols) in _per_block_sampled(u, sampled_pairs, max_block, seed):
        report.checked_pairs += 1
        if norm / bound > report.worst_ratio:
            report.worst_ratio, report.worst_pair = norm / bound, (rows, cols)
        if norm > bound:
            report.violation_count += 1
            if len(report.violations) < ortho.MAX_STORED_VIOLATIONS:
                report.violations.append(
                    {"S": list(rows), "T": list(cols), "norm": norm, "bound": bound})
    return report


class _Recorded:
    """Stands in for a GoodnessReport and keeps every recorded pair."""

    def __init__(self):
        self.pairs = []

    def record(self, norms, bounds, pair_of):
        bounds = np.broadcast_to(bounds, norms.shape)
        self.pairs += [(float(norms[i]), float(bounds[i]), pair_of((i,)))
                       for i in range(norms.size)]


def _stacked_sampled(u, sampled_pairs, max_block, seed):
    recorded = _Recorded()
    for sizes, rows, cols in ortho._goodness_draws(u.n, sampled_pairs, max_block, seed):
        ortho._record_sampled(u, sizes, rows, cols, recorded)
    return recorded.pairs


def _hadamard16():
    h = np.array([[1.0]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    return ortho.OrthogonalMatrix(n=16, entries=h / 4.0, seed=None)


@pytest.mark.parametrize("n, pairs, max_block", [
    (16, 2000, 8),
    (16, 1000, 20),  # max_block > n: sizes capped at n
    (64, 3000, 8),
    (256, 3000, 8),
])
def test_stacked_goodness_equals_per_block_svds(n, pairs, max_block):
    u = ortho.sample_haar(n, seed=n + 1)
    # On Haar matrices a singleton decides the worst pair, so compare
    # every sampled norm, bound and pair as well, in draw order.
    assert _stacked_sampled(u, pairs, max_block, 3) == _per_block_sampled(
        u, pairs, max_block, 3)
    assert ortho.check_goodness(u, pairs, max_block, seed=3) == _per_block_goodness(
        u, pairs, max_block, seed=3)


def test_stacked_goodness_keeps_the_first_of_tied_maxima():
    # Blocks of the Sylvester-Hadamard matrix take few distinct norms, so
    # sampled ratios tie, and rank-one blocks beat every singleton.
    u = _hadamard16()
    report = ortho.check_goodness(u, 2000, 8, seed=5)
    assert report == _per_block_goodness(u, 2000, 8, seed=5)
    assert len(report.worst_pair[0]) > 1


def test_stacked_goodness_across_chunk_boundaries(monkeypatch):
    u = ortho.sample_haar(64, seed=8)
    monkeypatch.setattr(ortho, "GOODNESS_CHUNK_SLOTS", 8 * 150)  # 150 pairs at max_block 8
    flushes = []
    record = ortho._record_sampled
    monkeypatch.setattr(ortho, "_record_sampled",
                        lambda u, sizes, *rest: flushes.append(len(sizes)) or record(u, sizes, *rest))
    assert ortho.check_goodness(u, 2000, 8, seed=4) == _per_block_goodness(u, 2000, 8, seed=4)
    assert flushes == [150] * 13 + [50]


def test_stacked_goodness_identity_past_the_stored_violations():
    # 2,048 diagonal singletons violate before any sampled pair; the
    # sampled ones still count and ties keep the first maximum.
    identity = ortho.OrthogonalMatrix(n=2048, entries=np.eye(2048), seed=None)
    report = ortho.check_goodness(identity, 300, 4, seed=6)
    assert report.violation_count > ortho.MAX_STORED_VIOLATIONS
    assert len(report.violations) == ortho.MAX_STORED_VIOLATIONS
    assert report == _per_block_goodness(identity, 300, 4, seed=6)
    # Only 1 x 1 blocks can violate at N = 2048; one pair in 2,048 is
    # diagonal, so these 20,000 pairs hold sampled violations too.
    sampled = _stacked_sampled(identity, 20_000, 1, 6)
    assert sampled == _per_block_sampled(identity, 20_000, 1, 6)
    assert sum(norm > bound for norm, bound, _ in sampled) > 0
    report = ortho.check_goodness(identity, 20_000, 1, seed=6)
    assert report.violation_count > 2048
    assert report == _per_block_goodness(identity, 20_000, 1, seed=6)


@pytest.mark.parametrize("n, max_block", [(4, 8), (16, 8), (64, 3), (2048, 8)])
def test_goodness_draws_are_sorted_distinct_and_in_range(n, max_block):
    cap = min(max_block, n)
    seen_sizes = set()
    for sizes, rows, cols in ortho._goodness_draws(n, 700, max_block, seed=2):
        assert sizes.min() >= 1 and sizes.max() <= cap
        seen_sizes |= set(sizes.ravel().tolist())
        for (s_size, t_size), r, c in zip(sizes, rows, cols):
            for index_set in (r[:s_size], c[:t_size]):
                assert np.all(np.diff(index_set) > 0)
                assert 0 <= index_set[0] and index_set[-1] < n
    assert seen_sizes == set(range(1, cap + 1))


def test_floyd_subsets_are_uniform():
    # 60,000 draws of 3-subsets of 6: each of the 20 subsets is expected
    # 3,000 times with binomial sd sqrt(60000 * 1/20 * 19/20) = 53.4; the
    # bound is five sd.
    sets = ortho._floyd_subsets(np.random.default_rng(11), 6, 3, 60_000)
    assert np.all(np.diff(sets, axis=1) > 0)
    subsets, counts = np.unique(sets, axis=0, return_counts=True)
    assert len(subsets) == 20
    assert np.all(np.abs(counts - 3000) <= 5 * np.sqrt(60_000 / 20 * 19 / 20))


@pytest.mark.parametrize("pairs, max_block, name", [
    (-1, 8, "sampled_pairs"),
    (10, 0, "max_block"),
    (10, -2, "max_block"),
])
def test_goodness_refuses_bad_counts(pairs, max_block, name):
    u = ortho.sample_haar(8, seed=0)
    with pytest.raises(ValueError, match=name):
        ortho.check_goodness(u, sampled_pairs=pairs, max_block=max_block, seed=0)


def test_hadamard_counterexample_values():
    norm, bound = ortho.hadamard_counterexample(26)
    assert norm == 1.0
    assert bound == pytest.approx(0.663, abs=0.001)
    assert norm > bound

    norm, bound = ortho.hadamard_counterexample(12)
    assert norm == 1.0
    assert bound == pytest.approx(5.1, abs=0.1)
    assert norm < bound  # vacuous at small N

    with pytest.raises(ValueError):
        ortho.hadamard_counterexample(13)
    # An even negative log2n made N = 1/4 and a NaN bound.
    for log2n in (-2, -1, -40):
        with pytest.raises(ValueError, match="log2n"):
            ortho.hadamard_counterexample(log2n)


def test_hadamard_block_is_constant():
    block = hadamard_implicit_block(4)
    assert block.shape == (4, 4)
    assert np.all(block == 0.25)


def test_hadamard_bound_decreasing_and_violated_from_26_on():
    bounds = [ortho.hadamard_counterexample(p)[1] for p in range(12, 42, 2)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    for p in range(26, 42, 2):
        norm, bound = ortho.hadamard_counterexample(p)
        assert norm > bound


def test_bilinear_tail_check():
    trials = 4000
    # t = 0: symmetry of U_11 gives exceedance frequency 1/2.
    zero = float(np.mean(ortho.haar_corner_samples(256, trials, 5) >= 0.0))
    assert abs(zero - 0.5) <= 4 * np.sqrt(zero * (1 - zero) / trials)
    rows = ortho.bilinear_tail_check(256, trials, seed=5)
    assert [row["t"] for row in rows] == [1.0, 2.0, 3.0]
    for row in rows:
        oracle = row["gaussian_tail"]
        sigma = np.sqrt(oracle * (1 - oracle) / trials)
        assert abs(row["frequency"] - oracle) <= 4 * sigma
        assert row["frequency"] <= row["subgaussian_bound"] + 3 * row["stderr"]


def test_matrix_file_round_trip(tmp_path):
    u = ortho.sample_haar(24, seed=77)
    path = tmp_path / "u.mat"
    digest = ortho.save_matrix(path, u)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    again = ortho.load_matrix(path)
    assert again.n == 24
    assert again.seed == 77
    assert np.array_equal(again.entries, u.entries)
    # Hashed from memory, a loaded matrix or a column-major copy gives the file's digest.
    assert ortho.matrix_sha256(again) == digest
    column_major = ortho.OrthogonalMatrix(24, np.asfortranarray(u.entries), 77)
    assert ortho.matrix_sha256(column_major) == digest
    # Saved, a column-major copy gives the same bytes too.
    assert ortho.save_matrix(tmp_path / "f.mat", column_major) == digest
    assert (tmp_path / "f.mat").read_bytes() == path.read_bytes()

    csv_path = tmp_path / "u.csv"
    ortho.save_matrix_csv(csv_path, u)
    loaded = np.loadtxt(csv_path, delimiter=",")
    assert np.allclose(loaded, u.entries, atol=1e-15)


def test_save_matrix_writes_the_entries_without_a_copy(tmp_path):
    u = ortho.sample_haar(512, seed=4)
    path = tmp_path / "u.mat"
    tracemalloc.start()
    try:
        digest = ortho.save_matrix(path, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The entries take 2 MB; one copy of them would dominate the traced peak.
    assert peak < u.entries.nbytes / 20
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest() == ortho.matrix_sha256(u)


def test_loaded_matrix_is_read_only(tmp_path):
    # The entries are an aligned view of the bytes read, not a copy of them.
    path = tmp_path / "u.mat"
    ortho.save_matrix(path, ortho.sample_haar(8, seed=3))
    u = ortho.load_matrix(path)
    flags = u.entries.flags
    assert flags.aligned and not flags.owndata and not flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        u.entries[0, 0] = 1.0


def test_load_matrix_holds_one_copy_of_the_payload(tmp_path):
    # The payload is read into the buffer the entries view; reading it as
    # bytes and then the rest of the file held a second copy. The Gram
    # check's panel products add a quarter of the payload at N=1024.
    u = ortho.sample_haar(1024, seed=4)
    path = tmp_path / "u.mat"
    digest = ortho.save_matrix(path, u)
    for sha256 in ("", digest):
        tracemalloc.start()
        try:
            loaded = ortho.load_matrix(path, sha256=sha256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.entries, u.entries)
        assert peak < 1.5 * u.entries.nbytes, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("sha256", ["", "0" * 64], ids=["no-sha256", "sha256"])
def test_a_header_is_checked_against_the_file_size_before_allocating(sha256, tmp_path):
    # n = 2^31 asks for 2^65 payload bytes; the 84-byte file is refused by
    # its size, or hashed as it is read, with the messages of every load.
    path = tmp_path / "huge.mat"
    path.write_bytes(ortho.MATRIX_MAGIC + struct.pack("<QQ", 1 << 31, 0) + bytes(64))
    message = (f"{path}: not the matrix file of sha256 {sha256}" if sha256
               else f"{path}: truncated or oversized payload")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            ortho.load_matrix(path, sha256=sha256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"


def test_matrix_file_corruption_detected(tmp_path):
    u = ortho.sample_haar(8, seed=1)
    path = tmp_path / "u.mat"
    digest = ortho.save_matrix(path, u)
    assert ortho.load_matrix(path, sha256=digest).n == 8
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        ortho.load_matrix(path)
    # An expected sha256 refuses the changed bytes before the Gram check.
    with pytest.raises(ValueError, match=f"not the matrix file of sha256 {digest}"):
        ortho.load_matrix(path, sha256=digest)

    bad_magic = tmp_path / "bad.mat"
    bad_magic.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValueError):
        ortho.load_matrix(bad_magic)

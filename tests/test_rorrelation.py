"""phi functional, classification, exact moments, instance files."""
import math
import struct
import tracemalloc

import numpy as np
import pytest

from reference import phi_brute_force
from rorrlab import dist, ortho, rorrelation
from rorrlab.rorrelation import (
    Label,
    RorrelationInstance,
    classify,
    classify_value,
    exact_expected_phi,
    exact_uniform_variance,
    load_instances,
    phi,
    phi_batch,
    save_instance_batch,
    save_instances,
    sign_correlation,
)
from rorrlab.util import MC_CHUNK


def identity_matrix(n):
    return ortho.OrthogonalMatrix(n=n, entries=np.eye(n), seed=None)


def test_phi_identity_all_ones():
    eye = identity_matrix(8)
    for k in (2, 3, 4):
        assert phi(eye, np.ones((k, 8))) == pytest.approx(1.0)


def test_phi_identity_opposite():
    eye = identity_matrix(8)
    z = np.array([np.ones(8), -np.ones(8)])
    assert phi(eye, z) == pytest.approx(-1.0)


def test_phi_matches_brute_force():
    u = ortho.sample_haar(8, seed=31)
    rng = np.random.default_rng(0)
    for k in (2, 3):
        z = 2 * rng.integers(0, 2, size=(k, 8)) - 1
        assert phi(u, z) == pytest.approx(phi_brute_force(u, z), abs=1e-9)


def test_phi_batch_matches_scalar():
    u = ortho.sample_haar(16, seed=3)
    rng = np.random.default_rng(1)
    batch = (2 * rng.integers(0, 2, size=(20, 3, 16)) - 1).astype(np.int8)
    values = phi_batch(u, batch)
    for i in range(20):
        assert values[i] == phi(u, batch[i])


def test_phi_bounded_on_sign_inputs():
    for seed in range(5):
        u = ortho.sample_haar(32, seed=seed)
        batch = dist.sample_uniform_batch(3, 32, 200, seed)
        assert np.all(np.abs(phi_batch(u, batch)) <= 1.0 + 1e-12)


def test_phi_dimension_mismatch():
    u = ortho.sample_haar(8, seed=0)
    for vectors in (
        np.ones(8),  # one vector, not a (k, N) stack
        np.ones((1, 8)),  # k = 1
        np.ones((2, 7)),  # wrong N
        np.ones((2, 2, 8)),  # a batch, not one instance
        [],
    ):
        with pytest.raises(ValueError, match="shape"):
            phi(u, vectors)


def test_phi_multilinear_single_flip():
    # Flipping one coordinate changes phi by exactly twice the coefficient,
    # measured against a direct partial evaluation.
    u = ortho.sample_haar(8, seed=12)
    rng = np.random.default_rng(4)
    z = (2 * rng.integers(0, 2, size=(3, 8)) - 1).astype(float)
    for block, coord in ((0, 3), (1, 5), (2, 0)):
        base = phi(u, z)
        flipped = z.copy()
        flipped[block, coord] *= -1
        other = phi(u, flipped)
        plus = z.copy()
        plus[block, coord] = 1.0
        minus = z.copy()
        minus[block, coord] = -1.0
        derivative = (phi(u, plus) - phi(u, minus)) / 2.0
        assert base - other == pytest.approx(
            2.0 * derivative * z[block, coord], abs=1e-12
        )


def test_classify_thresholds():
    eye = identity_matrix(8)
    assert classify(eye, np.ones((2, 8))) is Label.YES

    assert classify_value(0.0, 3) is Label.NO
    k = 3
    assert classify_value(0.75 * 2.0**-k, k) is Label.AMBIGUOUS
    assert classify_value(2.0**-k, k) is Label.YES
    assert classify_value(-(2.0 ** -(k + 1)), k) is Label.NO


def test_sign_correlation_values():
    assert sign_correlation(0.0) == pytest.approx(0.0)
    assert sign_correlation(1.0) == pytest.approx(1.0)
    assert sign_correlation(-1.0) == pytest.approx(-1.0)
    assert sign_correlation(0.5) == pytest.approx(1.0 / 3.0)


def test_sign_correlation_quadratic_lower_bound():
    # rho * (1 - 2 arccos(rho)/pi) >= (2/pi) rho^2 on a grid.
    for rho in np.arange(-0.9, 0.95, 0.1):
        assert rho * sign_correlation(rho) >= (2.0 / math.pi) * rho**2 - 1e-12


def test_exact_expected_phi_identity():
    eye = identity_matrix(16)
    for k in (2, 3, 5):
        assert exact_expected_phi(eye, k) == pytest.approx(1.0)


def test_exact_expected_phi_floor_and_mc():
    u = ortho.sample_haar(64, seed=8)
    for k in (2, 3):
        value = exact_expected_phi(u, k)
        assert value >= (2.0 / math.pi) ** (k - 1)
        assert value <= 1.0
        batch = dist.sample_duk_batch(u, k, 40_000, seed=99 + k)
        values = phi_batch(u, batch)
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - value) <= 4.0 * stderr


def test_exact_expected_phi_floor_many_seeds():
    for n in (64, 128):
        for k in (2, 3, 4):
            for seed in range(10):
                u = ortho.sample_haar(n, seed=seed)
                assert exact_expected_phi(u, k) >= (2.0 / math.pi) ** (k - 1)


def test_exact_uniform_variance():
    eye = identity_matrix(32)
    assert exact_uniform_variance(eye, 2) == pytest.approx(1.0 / 32, abs=1e-12)
    u = ortho.sample_haar(64, seed=17)
    for k in (2, 4):
        assert exact_uniform_variance(u, k) == pytest.approx(1.0 / 64, abs=1e-9)


def test_uniform_phi_mean_zero():
    u = ortho.sample_haar(64, seed=23)
    batch = dist.sample_uniform_batch(2, 64, 100_000, seed=5)
    values = phi_batch(u, batch)
    assert abs(values.mean()) <= 4.0 * math.sqrt(1.0 / (64 * values.size))


def test_duk_yes_rate_floor():
    # The chain distribution produces YES instances with probability at
    # least 2^-k (Markov from the expectation floor); the measured rate
    # is reported but only the floor is asserted.
    k, n = 2, 256
    u = ortho.sample_haar(n, seed=37)
    batch = dist.sample_duk_batch(u, k, 10_000, seed=38)
    values = phi_batch(u, batch)
    yes_rate = float(np.mean(values >= 2.0**-k))
    stderr = math.sqrt(max(yes_rate * (1 - yes_rate), 1e-12) / values.size)
    print(f"measured YES rate under the chain distribution: {yes_rate:.4f}")
    assert yes_rate >= 2.0**-k - 4.0 * stderr


def test_uniform_no_frequency_meets_bound():
    k, n = 2, 1024
    u = ortho.sample_haar(n, seed=41)
    batch = dist.sample_uniform_batch(k, n, 10_000, seed=6)
    values = phi_batch(u, batch)
    no_freq = float(np.mean(np.abs(values) <= 2.0 ** -(k + 1)))
    # Chebyshev with Var[phi] = 1/N: Pr[|phi| > 2^-(k+1)] <= 4^(k+1) / N.
    bound = 1.0 - 4.0 ** (k + 1) / n
    stderr = math.sqrt(no_freq * (1 - no_freq) / values.size)
    assert no_freq >= bound - 3.0 * stderr


def test_instance_validation():
    with pytest.raises(ValueError):
        RorrelationInstance(k=1, vectors=np.ones((1, 4)))
    with pytest.raises(ValueError):
        RorrelationInstance(k=2, vectors=np.array([[1, 0], [1, 1]]))


def test_instance_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    instances = [
        RorrelationInstance(k=3, vectors=(2 * rng.integers(0, 2, (3, 16)) - 1))
        for _ in range(5)
    ]
    path = tmp_path / "batch.inst"
    save_instances(path, instances, matrix_path="u.mat", matrix_hash="abc123")
    loaded, mpath, mhash = load_instances(path)
    assert mpath == "u.mat"
    assert mhash == "abc123"
    assert len(loaded) == 5
    for a, b in zip(instances, loaded):
        assert np.array_equal(a.vectors, b.vectors)


def test_instance_files_are_written_in_blocks_with_the_format_bytes(tmp_path):
    # 2 x 64 entries a row: the batch runs one row past two blocks of
    # MC_CHUNK entries, and the list form writes the same bytes.
    k, n = 2, 64
    count = 2 * MC_CHUNK // (k * n) + 1
    batch = dist.sample_uniform_batch(k, n, count, seed=3)
    header = b"RORI" + struct.pack("<IIHH", k, n, 3, 5) + b"abcu.mat" + struct.pack("<I", count)
    expect = header + ((batch.astype(int) + 1) // 2).astype(np.uint8).tobytes()
    save_instance_batch(tmp_path / "batch.inst", batch, matrix_path="u.mat", matrix_hash="abc")
    assert (tmp_path / "batch.inst").read_bytes() == expect
    save_instances(tmp_path / "list.inst", [RorrelationInstance(k, z) for z in batch[:5]],
                   matrix_path="u.mat", matrix_hash="abc")
    assert (tmp_path / "list.inst").read_bytes() == (
        header[:-4] + struct.pack("<I", 5) + expect[len(header):][: 5 * k * n])


def test_instance_batch_is_read_once_into_one_int8_batch(tmp_path):
    # The sign bytes are read into the batch and converted in place: the
    # traced peak is the batch, not the file bytes plus a copy per row.
    k, n, count = 2, 64, 20_000
    batch = dist.sample_uniform_batch(k, n, count, seed=3)
    path = tmp_path / "batch.inst"
    save_instance_batch(path, batch, matrix_path="u.mat", matrix_hash="abc")
    tracemalloc.start()
    try:
        loaded, mpath, mhash = rorrelation.load_instance_batch(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (mpath, mhash) == ("u.mat", "abc")
    assert loaded.dtype == np.int8 and np.array_equal(loaded, batch)
    assert peak < 1.25 * batch.nbytes, f"peak {peak / 2**20:.1f} MB"


def test_instance_header_is_checked_against_the_file_size_before_allocating(tmp_path):
    # count * k * N = 2^32 - 1 times 2^62: refused by the file's size.
    path = tmp_path / "huge.inst"
    path.write_bytes(rorrelation.INSTANCE_MAGIC + struct.pack("<IIHHI", 1 << 31, 1 << 31, 0, 0,
                                                              (1 << 32) - 1) + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated or oversized payload"):
            rorrelation.load_instance_batch(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_instance_file_truncation_detected(tmp_path):
    rng = np.random.default_rng(0)
    inst = RorrelationInstance(k=2, vectors=(2 * rng.integers(0, 2, (2, 8)) - 1))
    path = tmp_path / "one.inst"
    save_instances(path, [inst])
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(ValueError):
        load_instances(path)

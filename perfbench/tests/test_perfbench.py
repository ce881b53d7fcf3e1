"""Tests of the benchmark's own oracles and tracer, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import itertools
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Haar writer
# ---------------------------------------------------------------------------

def test_haar_is_orthogonal_with_sign_corrected_first_column():
    q = oracles.haar(8, oracles.rng_for(5, 1))
    assert np.max(np.abs(q.T @ q - np.eye(8))) < 1e-13
    # With R's diagonal made positive, Q e_1 is the first Gaussian column
    # normalised: the defining property of the sign correction.
    g = oracles.rng_for(5, 1).standard_normal((8, 8))
    assert np.allclose(q[:, 0], g[:, 0] / np.linalg.norm(g[:, 0]), atol=1e-13)


def test_matrix_file_layout_and_round_trip(tmp_path):
    q = oracles.haar(3, oracles.rng_for(1))
    path = tmp_path / "u.mat"
    oracles.write_matrix(path, q, seed=42)
    blob = path.read_bytes()
    assert blob[:4] == b"RORU" and len(blob) == 20 + 8 * 9
    assert int.from_bytes(blob[4:12], "little") == 3
    assert int.from_bytes(blob[12:20], "little") == 42
    seed, entries = oracles.read_matrix(path)
    assert seed == 42 and np.array_equal(entries, q)


def test_matrix_file_loads_in_the_program(tmp_path):
    ortho = pytest.importorskip("rorrlab.ortho")
    q = oracles.haar(16, oracles.rng_for(2))
    oracles.write_matrix(tmp_path / "u.mat", q, seed=7)
    u = ortho.load_matrix(tmp_path / "u.mat")
    assert u.n == 16 and u.seed == 7 and np.array_equal(u.entries, q)


def test_read_instances_decodes_signs(tmp_path):
    body = (b"RORI" + (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
            + (0).to_bytes(2, "little") + (0).to_bytes(2, "little")
            + (1).to_bytes(4, "little") + bytes([1, 0, 1, 0, 0, 1]))
    (tmp_path / "x.inst").write_bytes(body)
    got = oracles.read_instances(tmp_path / "x.inst")
    assert got.tolist() == [[[1, -1, 1], [-1, -1, 1]]]


# ---------------------------------------------------------------------------
# Dense transform and tree evaluation
# ---------------------------------------------------------------------------

def brute_coefficients(values: np.ndarray, n: int) -> dict[int, float]:
    out = {}
    for mask in range(1 << n):
        total = sum(values[b] * (-1) ** bin(b & mask).count("1") for b in range(1 << n))
        if total:
            out[mask] = total / (1 << n)
    return out


def test_walsh_hadamard_matches_brute_force_and_inverts():
    values = oracles.rng_for(3).integers(0, 2, size=8).astype(float)
    assert oracles.fourier_coefficients(values) == brute_coefficients(values, 3)
    twice = oracles.walsh_hadamard(oracles.walsh_hadamard(values))
    assert np.array_equal(twice, 8 * values)


def test_dictator_tree_table_and_spectrum():
    # x_1 queried at the root; leaf 1 on +1, so f = (1 + x_1) / 2.
    arena = {"n": 2, "root": 0, "nodes": [
        {"q": 0, "lo": 1, "hi": 2, "out": None},
        {"q": None, "lo": None, "hi": None, "out": 0},
        {"q": None, "lo": None, "hi": None, "out": 1},
    ]}
    table = oracles.tree_table(arena)
    assert table.tolist() == [1, 0, 1, 0]
    assert oracles.fourier_coefficients(table.astype(float)) == {0: 0.5, 1: 0.5}


def test_complete_tree_is_complete_with_fresh_variables():
    arena = oracles.complete_tree(6, 4, oracles.rng_for(9))
    nodes = arena["nodes"]
    assert len(nodes) == 2 ** 5 - 1

    def walk(idx, used, depth):
        node = nodes[idx]
        if node["q"] is None:
            assert depth == 4 and node["out"] in (0, 1)
            return
        assert node["q"] not in used
        walk(node["lo"], used | {node["q"]}, depth + 1)
        walk(node["hi"], used | {node["q"]}, depth + 1)

    walk(arena["root"], frozenset(), 0)


def test_tree_table_matches_the_program_truth_table():
    dtree = pytest.importorskip("rorrlab.dtree")
    arena = oracles.complete_tree(6, 4, oracles.rng_for(4))
    tree = dtree.tree_from_json(json.dumps(arena))
    assert np.array_equal(oracles.tree_table(arena), tree.truth_table())


# ---------------------------------------------------------------------------
# phi and closed forms
# ---------------------------------------------------------------------------

def brute_phi(u: np.ndarray, z: np.ndarray) -> float:
    k, n = z.shape
    total = 0.0
    for idx in itertools.product(range(n), repeat=k):
        term = z[0, idx[0]]
        for j in range(1, k):
            term *= u[idx[j - 1], idx[j]] * z[j, idx[j]]
        total += term
    return total / n


@pytest.mark.parametrize("k", [2, 3, 4])
def test_phi_chain_matches_the_index_sum(k):
    rng = oracles.rng_for(11, k)
    u = oracles.haar(3, rng)
    batch = (2 * rng.integers(0, 2, size=(4, k, 3)) - 1).astype(np.int8)
    got = oracles.phi_chain(u, batch)
    want = [brute_phi(u, z) for z in batch]
    assert np.allclose(got, want, atol=1e-14)


def test_expected_chain_phi_for_k2_is_the_mean_of_m():
    u = oracles.haar(4, oracles.rng_for(6))
    m = u * (2 / math.pi) * np.arcsin(u)
    assert math.isclose(oracles.expected_chain_phi(u, 2), m.sum() / 4, rel_tol=1e-14)


def test_closed_forms():
    assert oracles.gaussian_tail(0.0) == 0.5
    assert math.isclose(oracles.gaussian_tail(1.0), 0.15865525393145707, rel_tol=1e-14)
    assert oracles.arcsine_law(1.0) == 1.0 and oracles.arcsine_law(0.0) == 0.0
    assert math.isclose(oracles.moment_bound(2, 100, 2),
                        (200 * math.log(100) / 100) ** 0.5, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["d", 5.0, 6.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_wrapped_calls_nest_and_summarize():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf(count):
        return count

    inner = tracer.wrap("inner", leaf, measure=lambda a, _r: (a["count"], a["count"] % 2))

    def outer():
        return inner(3) + inner(count=4) + inner(3)

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer() == 10
    # outer spans ticks 0..7; each inner call takes one tick.
    assert [s[:4] for s in tracer.spans] == [
        ["outer", 0.0, 7.0, -1], ["inner", 1.0, 2.0, 0],
        ["inner", 3.0, 4.0, 0], ["inner", 5.0, 6.0, 0]]
    table = (layers.Layer("outer", (), ("calls", "self_s", "wall_s")),
             layers.Layer("inner", (), ("calls", "rows", "distinct_ratio", "self_s")))
    assert tracing.summarize(tracer.spans, table) == {
        "outer.calls": 1, "outer.self_s": 4.0, "outer.wall_s": 7.0,
        "inner.calls": 3, "inner.rows": 10, "inner.distinct_ratio": 2 / 3,
        "inner.self_s": 3.0}


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert len(tracer.spans) == 1 and tracer.spans[0][2] >= tracer.spans[0][1]
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[1][3] == -1


def test_install_patches_every_reference():
    def work():
        return "done"

    class Box:
        def method(self):
            return "m"

    home = types.ModuleType("pkg.home")
    home.work, home.Box, home.TABLE = work, Box, {"w": work}
    user = types.ModuleType("pkg.user")
    user.work = work  # as after `from .home import work`
    modules = {"home": home, "user": user}
    table = (layers.Layer("home.work", ("home.work",), ("calls",)),
             layers.Layer("home.method", ("home.Box.method",), ("calls",)))
    tracer = tracing.Tracer()
    tracing.install(tracer, table, modules)
    assert home.work() == user.work() == home.TABLE["w"]() == "done"
    assert Box().method() == "m"
    assert [s[0] for s in tracer.spans] == ["home.work"] * 3 + ["home.method"]
    assert home.work is user.work is home.TABLE["w"] is not work


def test_every_layer_target_resolves_in_the_program():
    pytest.importorskip("rorrlab")
    import rorrlab.cli  # noqa: F401  (loads every module a target names)

    modules = tracing.package_modules("rorrlab")
    for layer in layers.LAYERS:
        for target in layer.targets:
            assert callable(tracing._resolve(target, modules)[2]), target


# ---------------------------------------------------------------------------
# Benchmark definition
# ---------------------------------------------------------------------------

def test_benchmark_json_is_current():
    assert (HERE.parent / "BENCHMARK.json").read_text() == spec.benchmark_json()


def test_spec_and_workloads_agree():
    assert [name for name, _ in spec.WORKLOADS] == list(workloads.WORKLOADS)
    names = [name for name, _, _ in layers.per_layer_metrics()]
    assert len(names) == len(set(names)) <= 128


def test_malformed_operations_count_as_failed_until_they_exit_2():
    op = workloads.Op(("check-good",), "usage_error")
    raised = {"rc": None, "stderr": "", "error": "struct.error: unpack"}
    handled = {"rc": 2, "stderr": "error: truncated header\n", "error": None}
    noisy = {"rc": 2, "stderr": "Traceback\nerror: x\n", "error": None}
    assert workloads.op_failed(op, raised) and workloads.op_failed(op, noisy)
    assert not workloads.op_failed(op, handled)


def test_checks_skip_failed_operations_and_check_the_others(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(oracles.complete_tree(16, 2, oracles.rng_for(3, 2))))
    failed = {"failed": True, "rc": None, "stdout": "", "error": "IndexError: x"}
    empty = {"failed": False, "rc": 0, "error": None,
             "stdout": json.dumps({"n": 16, "coefficients": []})}
    problems = workloads.FourierDeep().check({"trees": [str(path)]}, [failed, empty])
    assert problems == ["tree.json pm1: spectrum differs from the dense transform"]


def test_wall_time_is_the_sum_of_per_operation_medians():
    rounds = [{"op_wall_s": [1.0, 5.0]}, {"op_wall_s": [2.0, 1.0]}, {"op_wall_s": [3.0, 2.0]}]
    # Round totals 6, 3, 5 have median 5; the slow second operation of the
    # first round and the slow first operation of the third are both set aside.
    assert run.median_wall(rounds) == 4.0

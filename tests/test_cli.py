"""End-to-end CLI flows on temporary files."""
import json
import warnings

import numpy as np
import pytest

from rorrlab import boolfn, dtree, ortho, rorrelation
from rorrlab.cli import main
from rorrlab.verify import VerifyConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_matrix_round_trip(tmp_path, capsys):
    out = tmp_path / "u.mat"
    csv = tmp_path / "u.csv"
    code, stdout, _ = run(["sample-matrix", "--n", "32", "--seed", "5",
                           "--out", str(out), "--csv", str(csv)], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["n"] == 32
    u = ortho.load_matrix(out)
    assert u.orthogonality_error() <= 1e-10
    assert csv.exists()

    # Hash is stable across repeated sampling with the same seed.
    out2 = tmp_path / "u2.mat"
    code, stdout2, _ = run(["sample-matrix", "--n", "32", "--seed", "5",
                            "--out", str(out2)], capsys)
    assert json.loads(stdout2)["sha256"] == doc["sha256"]


def test_check_good_cli(tmp_path, capsys):
    out = tmp_path / "u.mat"
    run(["sample-matrix", "--n", "64", "--seed", "1", "--out", str(out)], capsys)
    report_path = tmp_path / "good.json"
    code, stdout, _ = run(["check-good", "--matrix", str(out), "--pairs", "200",
                           "--max-block", "4", "--seed", "2",
                           "--out", str(report_path)], capsys)
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["violation_count"] == 0
    assert doc["good_so_far"] is True


def test_sample_classify_qsim_flow(tmp_path, capsys):
    matrix = tmp_path / "u.mat"
    run(["sample-matrix", "--n", "16", "--seed", "3", "--out", str(matrix)], capsys)

    inst = tmp_path / "duk.inst"
    code, stdout, _ = run(["sample-dist", "--dist", "duk", "--matrix", str(matrix),
                           "--k", "2", "--count", "5", "--seed", "4",
                           "--out", str(inst)], capsys)
    assert code == 0
    loaded, mpath, mhash = rorrelation.load_instances(inst)
    assert len(loaded) == 5 and mpath == str(matrix) and len(mhash) == 64

    code, stdout, _ = run(["rorrelate", "--matrix", str(matrix),
                           "--instances", str(inst)], capsys)
    assert code == 0
    phis = [json.loads(line)["phi"] for line in stdout.strip().splitlines()]
    assert len(phis) == 5

    code, stdout, _ = run(["classify", "--matrix", str(matrix),
                           "--instances", str(inst)], capsys)
    labels = [json.loads(line) for line in stdout.strip().splitlines()]
    assert all(row["label"] in ("YES", "NO", "AMBIGUOUS") for row in labels)

    code, stdout, _ = run(["qsim", "--matrix", str(matrix),
                           "--instances", str(inst), "--repetitions", "50",
                           "--seed", "6"], capsys)
    assert code == 0
    for line, expected_phi in zip(stdout.strip().splitlines(), phis):
        row = json.loads(line)
        assert row["p_accept"] == pytest.approx((1 + row["phi"]) / 2, abs=1e-10)
        assert row["phi"] == pytest.approx(expected_phi, abs=1e-10)
        assert row["queries"] == 1
        assert row["verdict"] in ("accept", "reject")


def test_sample_dist_uniform(tmp_path, capsys):
    inst = tmp_path / "unif.inst"
    code, _, _ = run(["sample-dist", "--dist", "uniform", "--n", "8", "--k", "3",
                      "--count", "4", "--seed", "0", "--out", str(inst)], capsys)
    assert code == 0
    loaded, _, _ = rorrelation.load_instances(inst)
    assert loaded[0].vectors.shape == (3, 8)


def test_sample_dist_validation(tmp_path, capsys):
    code, _, err = run(["sample-dist", "--dist", "duk", "--k", "2",
                        "--count", "1", "--out", str(tmp_path / "x.inst")], capsys)
    assert code == 2
    assert "matrix" in err


def test_moments_cli(tmp_path, capsys):
    matrix = tmp_path / "u.mat"
    run(["sample-matrix", "--n", "16", "--seed", "9", "--out", str(matrix)], capsys)
    code, stdout, _ = run(["moments", "--matrix", str(matrix), "--k", "2",
                           "--set", "1;2", "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["exact"] is True
    u = ortho.load_matrix(matrix)
    assert doc["estimate"] == pytest.approx(
        rorrelation.sign_correlation(u.entries[0, 1])
    )

    code, stdout, _ = run(["moments", "--matrix", str(matrix), "--k", "2",
                           "--audit", "--trials", "10", "--max-size", "4",
                           "--mc-samples", "2000", "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["rows"]) == 10 and not doc["violations"]


def test_fourier_cli_table_and_tree(tmp_path, capsys):
    table = tmp_path / "f.csv"
    boolfn.write_truth_table_csv(table, [1, -1, -1, 1])
    code, stdout, _ = run(["fourier", "--table", str(table)], capsys)
    assert code == 0
    spec = boolfn.spectrum_from_json(stdout)
    assert spec.coefficient((1, 2)) == pytest.approx(1.0)

    tree_path = tmp_path / "tree.json"
    tree_path.write_text(dtree.tree_to_json(dtree.make_dictator(2, 1)))
    code, stdout, _ = run(["fourier", "--tree", str(tree_path),
                           "--convention", "01"], capsys)
    spec = boolfn.spectrum_from_json(stdout)
    assert spec.coefficient(()) == pytest.approx(0.5)
    assert spec.coefficient((1,)) == pytest.approx(0.5)


def test_tree_corpus_cli(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, stdout, _ = run(["tree-corpus", "--n", "6", "--d", "3", "--count", "4",
                           "--seed", "0", "--out-dir", str(out_dir)], capsys)
    assert code == 0
    manifest = (out_dir / "corpus.jsonl").read_text().strip().splitlines()
    assert len(manifest) == 4
    first = json.loads(manifest[0])
    tree = dtree.tree_from_json((out_dir / first["file"]).read_text())
    assert tree.n == 6 and tree.depth == 3

    code, _, err = run(["tree-corpus", "--n", "2", "--d", "3", "--count", "1",
                        "--seed", "0", "--out-dir", str(out_dir)], capsys)
    assert code == 2


def test_tree_corpus_rejects_nonpositive_count(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    for count in ("-1", "0"):
        code, stdout, err = run(["tree-corpus", "--n", "6", "--d", "3", "--count", count,
                                 "--out-dir", str(out_dir)], capsys)
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert not out_dir.exists()


def test_advantage_cli_rejects_one_sample(tmp_path, capsys):
    matrix = tmp_path / "u.mat"
    run(["sample-matrix", "--n", "16", "--seed", "2", "--out", str(matrix)], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(["advantage", "--matrix", str(matrix), "--k", "2",
                                 "--samples", "1", "--seed", "1"], capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_advantage_cli(tmp_path, capsys):
    matrix = tmp_path / "u.mat"
    run(["sample-matrix", "--n", "16", "--seed", "2", "--out", str(matrix)], capsys)
    code, stdout, _ = run(["advantage", "--matrix", str(matrix), "--k", "2",
                           "--samples", "500", "--seed", "1"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in stdout.strip().splitlines()]
    assert {"tree", "estimate", "stderr", "theory_bound"} <= set(rows[0])


def test_verify_paper_reduced_and_determinism(tmp_path, capsys):
    args = ["verify-paper", "--reduced",
            "--checks", "quantum_identity,address_exactness,determinism"]
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    code1, out1, _ = run(args + ["--out", str(m1)], capsys)
    code2, out2, _ = run(args + ["--out", str(m2)], capsys)
    assert code1 == 0 and code2 == 0
    assert "[PASS]" in out1
    doc1 = json.loads(m1.read_text())
    doc2 = json.loads(m2.read_text())
    doc1.pop("timing")
    doc2.pop("timing")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_verify_paper_config_file(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"quantum_triples": 8, "seed": 7}))
    out = tmp_path / "m.json"
    code, stdout, _ = run(["verify-paper", "--reduced", "--config", str(config),
                           "--checks", "quantum_identity", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["quantum_triples"] == 8
    assert doc["config"]["seed"] == 7

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    code, _, err = run(["verify-paper", "--config", str(bad)], capsys)
    assert code == 2 and "bogus_key" in err


def test_verify_paper_unknown_check(tmp_path, capsys):
    code, _, err = run(["verify-paper", "--reduced", "--checks", "nope"], capsys)
    assert code == 2


def test_report_cli(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    code, _, _ = run(["verify-paper", "--reduced",
                      "--checks", "address_exactness,uniform_variance",
                      "--out", str(manifest)], capsys)
    assert code == 0
    out_dir = tmp_path / "report"
    code, stdout, _ = run(["report", str(manifest), "--out-dir", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.md").exists()
    assert (out_dir / "advantage_vs_bound.csv").exists()
    header = (out_dir / "report.csv").read_text().splitlines()[0]
    assert header == "manifest,check,quantity,measured,reference,passed"

    code, _, err = run(["report", str(tmp_path / "missing.json"),
                        "--out-dir", str(out_dir)], capsys)
    assert code == 2


def test_missing_matrix_file_is_clean_error(tmp_path, capsys):
    code, _, err = run(["check-good", "--matrix", str(tmp_path / "no.mat")], capsys)
    assert code == 2
    assert "error" in err


def _matrix_and_instances(tmp_path):
    matrix, inst = tmp_path / "u.mat", tmp_path / "z.inst"
    ortho.save_matrix(matrix, ortho.sample_haar(4, seed=1))
    rng = np.random.default_rng(0)
    rorrelation.save_instances(inst, [rorrelation.RorrelationInstance(
        k=2, vectors=2 * rng.integers(0, 2, (2, 4)) - 1)])
    return str(matrix), str(inst)


def _nan_matrix(tmp_path):
    _, inst = _matrix_and_instances(tmp_path)
    path = tmp_path / "nan.mat"
    path.write_bytes(ortho.MATRIX_MAGIC + (4).to_bytes(8, "little") + bytes(8)
                     + np.full(16, np.nan).astype("<f8").tobytes())
    return ["rorrelate", "--matrix", str(path), "--instances", inst]


def _truncated_matrix(tmp_path):
    path = tmp_path / "short.mat"
    path.write_bytes(b"RORU\x01")
    return ["check-good", "--matrix", str(path)]


def _truncated_instances(tmp_path):
    matrix, _ = _matrix_and_instances(tmp_path)
    path = tmp_path / "short.inst"
    path.write_bytes(b"RORI\x03\x00")
    return ["rorrelate", "--matrix", matrix, "--instances", str(path)]


def _tree_file(doc):
    def build(tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        return ["fourier", "--tree", str(path)]
    return build


def _empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return ["fourier", "--table", str(path)]


def _config_file(doc):
    def build(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return ["verify-paper", "--reduced", "--config", str(path),
                "--checks", "distinguishing_sanity", "--out", str(tmp_path / "m.json")]
    return build


def _child(lo, hi):
    return {"n": 4, "root": 0, "nodes": [
        {"q": 0, "lo": lo, "hi": hi, "out": None},
        {"q": None, "lo": None, "hi": None, "out": 1}]}


@pytest.mark.parametrize("build", [
    _nan_matrix,
    _truncated_matrix,
    _truncated_instances,
    _tree_file(_child(-1, 1)),
    _tree_file(_child(1, 7)),
    _tree_file([1, 2, 3]),
    _empty_csv,
    lambda tmp_path: ["fourier"],
    _config_file({"quantum_triples": "5"}),
    _config_file({"advantage_samples": 1}),
    _config_file([1]),
], ids=["nan-matrix", "truncated-matrix", "truncated-instances", "negative-child",
        "child-out-of-range", "tree-is-a-list", "empty-csv", "fourier-without-input",
        "config-count-is-text", "config-one-advantage-sample", "config-not-an-object"])
def test_malformed_input_exits_2_with_one_error_line(build, tmp_path, capsys):
    argv = build(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert not (tmp_path / "m.json").exists()


def test_qsim_simulates_each_instance_once(tmp_path, capsys, monkeypatch):
    from rorrlab import qsim

    matrix, inst = _matrix_and_instances(tmp_path)
    calls = []
    simulate = qsim.simulate_circuit
    monkeypatch.setattr(qsim, "simulate_circuit",
                        lambda *a: calls.append(1) or simulate(*a))
    code, stdout, _ = run(["qsim", "--matrix", matrix, "--instances", inst,
                           "--repetitions", "9", "--seed", "4"], capsys)
    assert code == 0 and len(calls) == 1
    row = json.loads(stdout)
    decision = qsim.amplified_solver(ortho.load_matrix(matrix),
                                     rorrelation.load_instances(inst)[0][0].vectors, 9, 4)
    assert row["verdict"] == ("accept" if decision.accept else "reject")


@pytest.mark.parametrize("overrides, key", [
    ({"goodness_pairs": 0}, "goodness_pairs"),
    ({"tail_trials": True}, "tail_trials"),
    ({"moment_sets": 2.0}, "moment_sets"),
    ({"uniform_var_samples": 1}, "uniform_var_samples"),
    ({"seed": "7"}, "seed"),
    ({"nope": 1}, "nope"),
])
def test_verify_config_refuses_bad_fields(overrides, key):
    with pytest.raises(ValueError, match=key):
        VerifyConfig.reduced().with_overrides(overrides)

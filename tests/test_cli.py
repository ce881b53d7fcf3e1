"""End-to-end CLI flows on temporary files."""
import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rorrlab
from rorrlab import dist, distinguish, dtree, ortho, rorrelation
from rorrlab.cli import main
from rorrlab.util import atomic_write, derive_rng, file_set, mean_and_stderr
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


@pytest.mark.parametrize("flag, value, name", [
    ("--pairs", "-5", "sampled_pairs"),
    ("--max-block", "0", "max_block"),
])
def test_check_good_refuses_bad_counts(flag, value, name, tmp_path, capsys):
    # The command names its option; the library refuses the same count by
    # the name of its parameter.
    out = tmp_path / "u.mat"
    u = ortho.sample_haar(16, seed=1)
    ortho.save_matrix(out, u)
    report_path = tmp_path / "good.json"
    code, stdout, err = run(["check-good", "--matrix", str(out), flag, value,
                             "--out", str(report_path)], capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} {value} ")
    assert not report_path.exists()
    with pytest.raises(ValueError, match=name):
        ortho.check_goodness(u, **{name: int(value)})


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


def test_moments_audit_refuses_nonpositive_trials(tmp_path, capsys):
    matrix = tmp_path / "u.mat"
    ortho.save_matrix(matrix, ortho.sample_haar(16, seed=9))
    for trials in ("-3", "0"):
        code, stdout, err = run(["moments", "--matrix", str(matrix), "--k", "2",
                                 "--audit", "--trials", trials], capsys)
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "trials" in err


def test_fourier_cli_table_and_tree(tmp_path, capsys):
    # x_1 x_2 as a table of +-1 values; spectrum files list 0-based indices.
    table = tmp_path / "f.csv"
    table.write_text("1\n-1\n-1\n1\n")
    code, stdout, _ = run(["fourier", "--table", str(table)], capsys)
    assert code == 0
    assert stdout == '{"coefficients": [{"S": [0, 1], "coeff": 1.0}], "n": 2}\n'

    tree_path = tmp_path / "tree.json"
    tree_path.write_text(dtree.tree_to_json(dtree.make_dictator(2, 1)))
    code, stdout, _ = run(["fourier", "--tree", str(tree_path),
                           "--convention", "01"], capsys)
    assert code == 0
    assert stdout == ('{"coefficients": [{"S": [], "coeff": 0.5}, {"S": [0], "coeff": 0.5}], '
                      '"n": 2}\n')


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


def test_advantage_of_a_tree_file_is_its_corpus_line(tmp_path, capsys):
    # The arms' seeds do not depend on the trees, so a corpus tree read from
    # a file gets the corpus run's line, named after the file's stem.
    matrix = tmp_path / "u.mat"
    run(["sample-matrix", "--n", "16", "--seed", "2", "--out", str(matrix)], capsys)
    argv = ["advantage", "--matrix", str(matrix), "--k", "2", "--samples", "500", "--seed", "1"]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    corpus = dict(distinguish.standard_corpus(ortho.load_matrix(matrix), 2, seed=1))
    lines = dict(zip(corpus, stdout.splitlines(), strict=True))
    for name in ("greedy-3", "random-d6-1"):
        path = tmp_path / "t.json"
        path.write_text(dtree.tree_to_json(corpus[name]))
        code, stdout, _ = run([*argv, "--tree", str(path)], capsys)
        assert code == 0
        assert stdout == lines[name].replace(f'"tree": "{name}"', '"tree": "t"') + "\n"


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


def test_verify_paper_ephi_checks_alone_match_the_pair(tmp_path, capsys):
    # The exact ephi values are shared within one run; a run of one check
    # must compute the same details on its own.
    details = {}
    for checks in ("expected_phi,uniform_variance", "uniform_variance", "expected_phi"):
        out = tmp_path / f"{checks}.json"
        code, _, _ = run(["verify-paper", "--reduced", "--checks", checks,
                          "--out", str(out)], capsys)
        assert code == 0
        for check in json.loads(out.read_text())["checks"]:
            details.setdefault(check["name"], []).append(check["details"])
    for name in ("expected_phi", "uniform_variance"):
        first, second = details[name]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


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


def test_report_writes_the_expected_phi_rows(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    code, _, _ = run(["verify-paper", "--reduced", "--checks", "expected_phi",
                      "--out", str(manifest)], capsys)
    assert code == 0
    (check,) = json.loads(manifest.read_text())["checks"]
    out_dir = tmp_path / "report"
    assert run(["report", str(manifest), "--out-dir", str(out_dir)], capsys)[0] == 0
    with open(out_dir / "report.csv", newline="") as handle:
        rows = {row["quantity"]: row for row in csv.DictReader(handle)}
    assert [row["k"] for row in check["details"]["monte_carlo"]] == [2, 3]
    for row in check["details"]["monte_carlo"]:
        written = rows.pop(f"E[phi] k={row['k']}")
        assert (written["manifest"], written["check"]) == ("m.json", "expected_phi")
        assert (float(written["measured"]), float(written["reference"])) == (
            row["estimate"], row["exact"])
        assert written["passed"] == str(row["passed"])
    assert all(row["check"] != "expected_phi" for row in rows.values())


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


def _empty_one_fold_instances(tmp_path):
    matrix, _ = _matrix_and_instances(tmp_path)
    path = tmp_path / "k1.inst"
    path.write_bytes(rorrelation.INSTANCE_MAGIC + struct.pack("<IIHHI", 1, 4, 0, 0, 0))
    return ["rorrelate", "--matrix", matrix, "--instances", str(path)]


def _instances_for_another_matrix(tmp_path):
    matrix, inst = _matrix_and_instances(tmp_path)
    instances, _, _ = rorrelation.load_instances(inst)
    rorrelation.save_instances(inst, instances, matrix_path=matrix,
                               matrix_hash=hashlib.sha256(Path(matrix).read_bytes()).hexdigest())
    other = tmp_path / "other.mat"
    ortho.save_matrix(other, ortho.sample_haar(4, seed=2))
    return ["rorrelate", "--matrix", str(other), "--instances", inst]


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


def _one_by_one_matrix(tmp_path):
    path = tmp_path / "one.mat"
    ortho.save_matrix(path, ortho.sample_haar(1, seed=0))
    return str(path)


def _child(lo, hi):
    return {"n": 4, "root": 0, "nodes": [
        {"q": 0, "lo": lo, "hi": hi, "out": None},
        {"q": None, "lo": None, "hi": None, "out": 1}]}


# Refused at the command's validation point, before any file is read: each
# argv names files that do not exist, and the one error line names the option.
_REFUSED_OPTIONS = {
    "sample-matrix-n-zero": ("--n", ["sample-matrix", "--n", "0", "--out", "x.mat"]),
    "sample-matrix-n-negative": ("--n", ["sample-matrix", "--n", "-3", "--out", "x.mat"]),
    "qsim-negative-repetitions": ("--repetitions", [
        "qsim", "--matrix", "absent.mat", "--instances", "absent.inst", "--repetitions", "-5"]),
    "sample-dist-duk-with-n": ("--n", [
        "sample-dist", "--dist", "duk", "--matrix", "absent.mat", "--n", "8", "--k", "2",
        "--out", "x.inst"]),
    "sample-dist-uniform-with-matrix": ("--matrix", [
        "sample-dist", "--dist", "uniform", "--matrix", "absent.mat", "--n", "8", "--k", "2",
        "--out", "x.inst"]),
    "sample-dist-uniform-n-negative": ("--n -3", [
        "sample-dist", "--dist", "uniform", "--n", "-3", "--k", "2", "--out", "x.inst"]),
    "sample-dist-uniform-n-zero": ("--n 0", [
        "sample-dist", "--dist", "uniform", "--n", "0", "--k", "2", "--out", "x.inst"]),
    "sample-dist-uniform-k-negative": ("--k -2", [
        "sample-dist", "--dist", "uniform", "--n", "8", "--k", "-2", "--out", "x.inst"]),
    "sample-dist-duk-k-1": ("--k 1", [
        "sample-dist", "--dist", "duk", "--matrix", "absent.mat", "--k", "1", "--out", "x.inst"]),
    "sample-dist-duk-count-zero": ("--count 0", [
        "sample-dist", "--dist", "duk", "--matrix", "absent.mat", "--k", "2", "--count", "0",
        "--out", "x.inst"]),
    "tree-corpus-count-negative": ("--count -1", [
        "tree-corpus", "--n", "6", "--d", "3", "--count", "-1", "--out-dir", "corpus"]),
    "check-good-pairs-negative": ("--pairs -5", [
        "check-good", "--matrix", "absent.mat", "--pairs", "-5"]),
    "check-good-max-block-zero": ("--max-block 0", [
        "check-good", "--matrix", "absent.mat", "--max-block", "0"]),
    "moments-audit-trials-zero": ("--trials 0", [
        "moments", "--matrix", "absent.mat", "--k", "2", "--audit", "--trials", "0"]),
    "moments-audit-max-size-below-k": ("--max-size 2", [
        "moments", "--matrix", "absent.mat", "--k", "3", "--audit", "--max-size", "2"]),
    "moments-audit-k-1": ("--k 1", ["moments", "--matrix", "absent.mat", "--k", "1", "--audit"]),
}


@pytest.mark.parametrize("option, argv", _REFUSED_OPTIONS.values(), ids=_REFUSED_OPTIONS)
def test_options_are_refused_before_any_file_is_read(option, argv, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {option} ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("build", [
    _nan_matrix,
    _truncated_matrix,
    _truncated_instances,
    _empty_one_fold_instances,
    _instances_for_another_matrix,
    _tree_file(_child(-1, 1)),
    _tree_file(_child(1, 7)),
    _tree_file([1, 2, 3]),
    _tree_file({"n": 10**30, "nodes": [{"q": 10**29 - 1, "lo": 1, "hi": 2},
                                       {"out": 0}, {"out": 1}]}),
    _empty_csv,
    lambda tmp_path: ["fourier"],
    _config_file({"quantum_triples": "5"}),
    _config_file({"advantage_samples": 1}),
    _config_file([1]),
    lambda tmp_path: ["moments", "--matrix", _matrix_and_instances(tmp_path)[0], "--k", "2",
                      "--set", "1,1;2,2"],
    lambda tmp_path: ["advantage", "--matrix", _matrix_and_instances(tmp_path)[0], "--k", "1"],
    lambda tmp_path: ["moments", "--matrix", _matrix_and_instances(tmp_path)[0], "--k", "2",
                      "--set", "1,2;3,4", "--mc-samples", "3"],
    lambda tmp_path: ["advantage", "--matrix", _one_by_one_matrix(tmp_path), "--k", "2",
                      "--samples", "10"],
    _tree_file(_child(1, 1)),
    lambda tmp_path: ["sample-matrix", "--n", "4", "--out", "x.mat", "--bogus"],
    lambda tmp_path: ["sample-matrix", "--n", "abc", "--out", "x.mat"],
    lambda tmp_path: ["sample-dist", "--dist", "gauss", "--k", "2", "--out", "x.inst"],
    lambda tmp_path: ["sample-matrix", "--n", "4"],
    lambda tmp_path: [],
    lambda tmp_path: ["moments", "--matrix", "u.mat", "--k", "2", "--set", "1;1",
                      "--method", "mc"],
    _config_file({"sign_corr_samples": 1}),
    _config_file({"mc_mean_samples": 1}),
    lambda tmp_path: ["moments", "--matrix", str(tmp_path / "absent.mat"), "--k", "2",
                      "--set", "1;x"],
    lambda tmp_path: ["moments", "--matrix", str(tmp_path / "absent.mat"), "--k", "2",
                      "--audit", "--set", "1;x"],
    lambda tmp_path: ["moments", "--matrix", str(tmp_path / "absent.mat"), "--k", "2",
                      "--set", "1;2", "--trials", "0"],
    lambda tmp_path: ["moments", "--matrix", str(tmp_path / "absent.mat"), "--k", "2",
                      "--set", "1;2", "--max-size", "6"],
    lambda tmp_path: ["sample-matrix", "--n", "10000000", "--out", str(tmp_path / "x.mat")],
    *(lambda tmp_path, argv=argv: argv for _, argv in _REFUSED_OPTIONS.values()),
], ids=["nan-matrix", "truncated-matrix", "truncated-instances", "empty-one-fold-instances",
        "instances-for-another-matrix", "negative-child",
        "child-out-of-range", "tree-is-a-list", "tree-n-over-file-limit", "empty-csv",
        "fourier-without-input", "config-count-is-text", "config-one-advantage-sample",
        "config-not-an-object", "moments-repeated-index", "advantage-one-fold",
        "moments-one-antithetic-pair", "advantage-corpus-at-n-1", "tree-shared-leaf",
        "usage-unknown-flag", "usage-bad-int", "usage-bad-choice", "usage-missing-option",
        "usage-no-subcommand", "usage-moments-method", "config-one-sign-corr-sample",
        "config-one-mc-mean-sample", "moments-set-not-an-integer", "moments-set-with-audit",
        "moments-trials-without-audit", "moments-max-size-without-audit",
        "sample-matrix-n-over-budget", *_REFUSED_OPTIONS])
def test_malformed_input_exits_2_with_one_error_line(build, tmp_path, capsys, request):
    argv = build(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    # Only a usage error names the program, and it prints no usage text.
    assert err.startswith("error: rorrlab") == request.node.callspec.id.startswith("usage-")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("n", [11586, 10**7, 10**12])
def test_sample_matrix_refuses_an_oversized_n_before_allocating(n, tmp_path, capsys):
    # 8 n^2 > MAX_MATRIX_BYTES from n = 11,586 on; the largest admitted n is named.
    tracemalloc.start()
    try:
        code, stdout, err = run(["sample-matrix", "--n", str(n), "--out", str(tmp_path / "x.mat")],
                                capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, stdout) == (2, "")
    assert err == (f"error: --n {n} is over the limit of 11585: its entries would take "
                   f"more than {ortho.MAX_MATRIX_BYTES} bytes\n")
    assert peak < 1 << 20 and not (tmp_path / "x.mat").exists()


def test_sample_matrix_admits_n_up_to_the_limit(monkeypatch, tmp_path, capsys):
    # 11,585 passes the budget check and reaches the sampler, stubbed here.
    def sampler(n, seed):
        raise ValueError(f"sampler reached at n = {n}")
    monkeypatch.setattr(ortho, "sample_haar", sampler)
    code, _, err = run(["sample-matrix", "--n", "11585", "--out", str(tmp_path / "x.mat")], capsys)
    assert (code, err) == (2, "error: sampler reached at n = 11585\n")


@pytest.mark.parametrize("seed", [-1, 1 << 64, 10**30])
def test_sample_matrix_refuses_a_seed_outside_the_header_field_before_sampling(
        seed, monkeypatch, tmp_path, capsys):
    # The seed is the file's unsigned 64-bit field; it is refused beside
    # --n, before the N = 2048 QR that the stub stands for.
    def sampler(n, seed):
        raise AssertionError("sampler reached")
    monkeypatch.setattr(ortho, "sample_haar", sampler)
    code, stdout, err = run(["sample-matrix", "--n", "2048", "--seed", str(seed),
                             "--out", str(tmp_path / "x.mat")], capsys)
    assert (code, stdout) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: --seed {seed} ")
    assert not (tmp_path / "x.mat").exists()


@pytest.fixture
def gram_checks(monkeypatch):
    """The n of every Gram check (OrthogonalMatrix.orthogonality_error) made."""
    sizes = []
    check = ortho.OrthogonalMatrix.orthogonality_error
    monkeypatch.setattr(ortho.OrthogonalMatrix, "orthogonality_error",
                        lambda u: sizes.append(u.n) or check(u))
    return sizes


def _gram_check_argv(tmp_path):
    matrix, inst = tmp_path / "u.mat", tmp_path / "z.inst"
    u = ortho.sample_haar(16, seed=1)
    rorrelation.save_instance_batch(inst, dist.sample_duk_batch(u, 2, 4, seed=2),
                                    matrix_path=str(matrix), matrix_hash=ortho.save_matrix(matrix, u))
    m, i = str(matrix), str(inst)
    return {
        "sample-matrix": ["sample-matrix", "--n", "16", "--out", str(tmp_path / "x.mat")],
        "verify-paper": ["verify-paper", "--reduced", "--seed", "3",
                         "--out", str(tmp_path / "m.json")],
        "check-good": ["check-good", "--matrix", m, "--pairs", "10"],
        "sample-dist": ["sample-dist", "--dist", "duk", "--matrix", m, "--k", "2",
                        "--count", "3", "--out", str(tmp_path / "y.inst")],
        "classify": ["classify", "--matrix", m, "--instances", i],
        "rorrelate": ["rorrelate", "--matrix", m, "--instances", i],
        "qsim": ["qsim", "--matrix", m, "--instances", i, "--repetitions", "3"],
        "moments": ["moments", "--matrix", m, "--k", "2", "--set", "1;2"],
        "advantage": ["advantage", "--matrix", m, "--k", "2", "--samples", "20"],
    }


@pytest.mark.parametrize("command, checks", [
    ("sample-matrix", 0), ("verify-paper", 0), ("check-good", 1), ("sample-dist", 1),
    ("classify", 1), ("rorrelate", 1), ("qsim", 1), ("moments", 1), ("advantage", 1)])
def test_each_matrix_is_gram_checked_once(command, checks, gram_checks, tmp_path, capsys):
    # What the package factors itself (every Haar sample, verify's identity)
    # is orthogonal by construction and not re-checked; every matrix file is
    # checked once, by load_matrix.
    argv = _gram_check_argv(tmp_path)[command]
    gram_checks.clear()
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert gram_checks == [16] * checks


def test_moments_set_is_parsed_before_the_matrix_is_read(tmp_path, capsys):
    # The matrix path does not exist, yet the one error line is about --set.
    code, _, err = run(["moments", "--matrix", str(tmp_path / "absent.mat"), "--k", "2",
                        "--set", "1;x"], capsys)
    assert code == 2
    assert err.startswith("error: --set '1;x': ") and "'x'" in err
    assert "absent.mat" not in err


@pytest.mark.parametrize("argv", [
    ["moments", "--matrix", "u.mat", "--k", "2", "--set", "1;1", "--bogus"],
    ["--bogus", "moments", "--matrix", "u.mat", "--k", "2", "--set", "1;1"],
], ids=["after", "before"])
def test_unknown_flag_names_its_subcommand(argv, capsys):
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: rorrlab moments: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["moments", "--help"]])
def test_help_and_version_still_exit_0(argv, capsys):
    # Only argparse's error() raises; its help and version actions exit as before.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(rorrlab.__file__).parents[1]))
    version = subprocess.run([sys.executable, "-m", "rorrlab", "--version"], env=env,
                             capture_output=True, text=True, timeout=60)
    assert (version.returncode, version.stdout, version.stderr) == (0, rorrlab.__version__ + "\n", "")
    usage = subprocess.run([sys.executable, "-m", "rorrlab", "sample-matrix", "--n", "abc"],
                           env=env, capture_output=True, text=True, timeout=60)
    lines = usage.stderr.splitlines()
    assert (usage.returncode, usage.stdout, len(lines)) == (2, "", 1)
    assert lines[0].startswith("error:")


def _report_argv(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"checks": [{"name": "goodness", "passed": True,
                                                "details": {}}]}))
    (tmp_path / "report").mkdir()
    return ["report", str(manifest), "--out-dir", str(tmp_path / "report")]


@pytest.mark.parametrize("target, build", [
    ("u.mat", lambda tmp_path: ["sample-matrix", "--n", "4", "--out", str(tmp_path / "u.mat")]),
    ("u.csv", lambda tmp_path: ["sample-matrix", "--n", "4", "--out", str(tmp_path / "v.mat"),
                                "--csv", str(tmp_path / "u.csv")]),
    ("z.inst", lambda tmp_path: ["sample-dist", "--dist", "uniform", "--n", "4", "--k", "2",
                                 "--count", "3", "--out", str(tmp_path / "z.inst")]),
    ("good.json", lambda tmp_path: ["check-good", "--matrix", _matrix_and_instances(tmp_path)[0],
                                    "--out", str(tmp_path / "good.json")]),
    ("report/report.csv", _report_argv),
    ("report/advantage_vs_bound.csv", _report_argv),
], ids=["sample-matrix-out", "sample-matrix-csv", "sample-dist-out", "check-good-out",
        "report-csv", "report-sidecar-csv"])
def test_failed_replace_keeps_the_old_output(target, build, tmp_path, capsys, monkeypatch):
    # Every output goes through a temporary file and os.replace; when the
    # replace fails the command exits 2 and the old file keeps its bytes.
    argv = build(tmp_path)
    path = tmp_path / target
    path.write_bytes(b"old bytes")
    replace = os.replace

    def refuse(src, dst):
        if Path(dst) == path:
            raise OSError("replace refused")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert path.read_bytes() == b"old bytes"
    assert not path.with_name(path.name + ".tmp").exists()


def _leftovers(tmp_path):
    return sorted(p.name for p in tmp_path.rglob("*") if p.suffix in (".tmp", ".old"))


@pytest.mark.parametrize("existing", [True, False], ids=["old-files", "no-files"])
@pytest.mark.parametrize("refused, earlier, build", [
    ("u.csv", ["v.mat"],
     lambda tmp_path: ["sample-matrix", "--n", "4", "--out", str(tmp_path / "v.mat"),
                       "--csv", str(tmp_path / "u.csv")]),
    ("report/report.md", ["report/report.csv", "report/advantage_vs_bound.csv"],
     _report_argv),
    ("corpus/corpus.jsonl", ["corpus/tree_0000.json", "corpus/tree_0001.json"],
     lambda tmp_path: ["tree-corpus", "--n", "4", "--d", "2", "--count", "2",
                       "--out-dir", str(tmp_path / "corpus")]),
], ids=["sample-matrix", "report", "tree-corpus"])
def test_failed_later_replace_keeps_the_whole_set_old(refused, earlier, build, existing,
                                                      tmp_path, capsys, monkeypatch):
    # A command's files are one set: when the replace of its last file
    # fails, the files replaced before it get their old bytes back, or are
    # removed if they did not exist.
    argv = build(tmp_path)
    targets = [tmp_path / name for name in earlier + [refused]]
    if existing:
        for path in targets:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(b"old " + path.name.encode())
    replace = os.replace

    def refuse(src, dst):
        if Path(dst) == targets[-1]:
            raise OSError("replace refused")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    for path in targets:
        if existing:
            assert path.read_bytes() == b"old " + path.name.encode()
        else:
            assert not path.exists()
    assert _leftovers(tmp_path) == []
    # Without the refusal the whole set is written and nothing else is left.
    monkeypatch.undo()
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert all(path.read_bytes() != b"old " + path.name.encode() for path in targets)
    assert _leftovers(tmp_path) == []


def test_file_set_replaces_nothing_when_its_block_fails(tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("old a")
    with pytest.raises(RuntimeError):
        with file_set() as stage:
            atomic_write(stage(first), "new a")
            stage(second).write_text("new b")
            raise RuntimeError("stop")
    assert first.read_text() == "old a" and not second.exists()
    assert _leftovers(tmp_path) == []
    with file_set() as stage:
        atomic_write(stage(first), "new a")
        stage(second).write_text("new b")
        assert first.read_text() == "old a"  # staged until the block is left
    assert (first.read_text(), second.read_text()) == ("new a", "new b")
    assert _leftovers(tmp_path) == []


@pytest.mark.parametrize("existing", [True, False], ids=["old-file", "no-file"])
@pytest.mark.parametrize("second", ["u.mat", "./u.mat", "sub/../u.mat"])
def test_a_file_named_twice_in_one_set_is_refused(second, existing, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "u.mat"
    if existing:
        target.write_bytes(b"old bytes")
    code, stdout, err = run(["sample-matrix", "--n", "4", "--out", "u.mat", "--csv", second],
                            capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: output {Path(second)} names a file already written by this command\n"
    assert target.read_bytes() == b"old bytes" if existing else not target.exists()
    assert _leftovers(tmp_path) == []


def test_qsim_simulates_each_instance_once(tmp_path, capsys, monkeypatch):
    # Each instance is simulated once, in chunk_spans blocks, and the verdicts
    # of all blocks are one draw from one generator over the whole file.
    from rorrlab import qsim, util

    matrix, inst, one = tmp_path / "u.mat", tmp_path / "z.inst", tmp_path / "one.inst"
    ortho.save_matrix(matrix, ortho.sample_haar(8, seed=1))
    batch = dist.sample_uniform_batch(3, 8, 50, seed=0)
    rorrelation.save_instance_batch(inst, batch)
    rorrelation.save_instance_batch(one, batch[:1])
    rows = []
    simulate = qsim.simulate_batch
    monkeypatch.setattr(qsim, "simulate_batch",
                        lambda u, block: rows.append(len(block)) or simulate(u, block))
    monkeypatch.setattr(util, "MC_CHUNK", 7 * 3 * 8)
    argv = ["qsim", "--matrix", str(matrix), "--repetitions", "9", "--seed", "4", "--instances"]
    code, stdout, _ = run(argv + [str(inst)], capsys)
    assert code == 0 and rows == [7] * 7 + [1]
    monkeypatch.undo()
    u = ortho.load_matrix(matrix)
    prob = qsim.simulate_batch(u, batch)[0]
    successes = derive_rng(4, "amplify", 8, 3, 9).binomial(9, np.clip(prob, 0.0, 1.0))
    verdicts = ["accept" if s > 9 * qsim.amplification_threshold(3) else "reject"
                for s in successes]
    assert [json.loads(line)["verdict"] for line in stdout.splitlines()] == verdicts
    assert {"accept", "reject"} <= set(verdicts)
    # A one-instance file gets amplified_solver's verdict at the same seed,
    # which is the first of the whole file's.
    decision = qsim.amplified_solver(u, batch[0], 9, 4)
    code, stdout, _ = run(argv + [str(one)], capsys)
    assert code == 0
    assert json.loads(stdout)["verdict"] == verdicts[0] == ("accept" if decision.accept
                                                            else "reject")


@pytest.mark.parametrize("command", ["rorrelate", "classify", "qsim"])
def test_instance_commands_print_the_same_lines_across_block_splits(
        command, tmp_path, capsys, monkeypatch):
    # Haar entries round, so without the row floor of rorrelation.check_batch
    # the last bits of phi and p_accept would follow the block sizes. qsim
    # draws its verdicts from one stream in instance order, whatever the blocks.
    from rorrlab import util

    matrix, inst = tmp_path / "u.mat", tmp_path / "z.inst"
    ortho.save_matrix(matrix, ortho.sample_haar(64, seed=3))
    assert main(["sample-dist", "--dist", "uniform", "--n", "64", "--k", "3", "--count", "301",
                 "--seed", "2", "--out", str(inst)]) == 0
    argv = [command, "--matrix", str(matrix), "--instances", str(inst)]
    if command == "qsim":
        argv += ["--repetitions", "1", "--seed", "5"]
    capsys.readouterr()
    outputs = []
    # One block of 301 rows; blocks of 100, 100, 100 and 1; 60 blocks of 5
    # rows and one of 1; and 301 blocks of one row, at 256 and at 1.
    for chunk in (util.MC_CHUNK, 100 * 3 * 64, 1000, 256, 1):
        monkeypatch.setattr(util, "MC_CHUNK", chunk)
        code, stdout, err = run(argv, capsys)
        assert (code, err) == (0, "")
        outputs.append(stdout)
    assert outputs[0].count("\n") == 301 and outputs == outputs[:1] * 5
    if command == "qsim":
        assert '"verdict": "accept"' in outputs[0] and '"verdict": "reject"' in outputs[0]


@pytest.mark.parametrize("command", ["rorrelate", "classify", "qsim"])
def test_an_instance_file_with_no_instances_prints_no_line(command, tmp_path, capsys):
    matrix, inst = tmp_path / "u.mat", tmp_path / "z.inst"
    ortho.save_matrix(matrix, ortho.sample_haar(4, seed=1))
    inst.write_bytes(rorrelation.INSTANCE_MAGIC + struct.pack("<IIHHI", 2, 4, 0, 0, 0))
    out = tmp_path / "lines.jsonl"
    code, stdout, err = run([command, "--matrix", str(matrix), "--instances", str(inst),
                             "--out", str(out)], capsys)
    assert (code, stdout, err, out.read_text()) == (0, "", "", "")


def test_a_refused_block_prints_no_line(tmp_path, capsys, monkeypatch):
    from rorrlab import util

    matrix, inst = tmp_path / "u.mat", tmp_path / "z.inst"
    ortho.save_matrix(matrix, ortho.sample_haar(4, seed=1))
    rorrelation.save_instance_batch(inst, dist.sample_uniform_batch(2, 4, 3, seed=0))
    score = rorrelation.phi_batch
    calls = []

    def phi_batch(u, batch):
        calls.append(len(batch))
        if len(calls) == 2:
            raise ValueError("second block refused")
        return score(u, batch)

    monkeypatch.setattr(util, "MC_CHUNK", 1)
    monkeypatch.setattr(rorrelation, "phi_batch", phi_batch)
    code, stdout, err = run(["rorrelate", "--matrix", str(matrix), "--instances", str(inst)],
                            capsys)
    assert (code, stdout, err) == (2, "", "error: second block refused\n")
    assert calls == [1, 1]


def test_rorrelate_reads_instances_before_matrix(tmp_path, capsys):
    path = tmp_path / "short.inst"
    path.write_bytes(b"RORI\x03\x00")
    code, stdout, err = run(["rorrelate", "--matrix", str(tmp_path / "absent.mat"),
                             "--instances", str(path)], capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "short.inst" in err


@pytest.mark.parametrize("doc", [
    {},
    [1],
    {"checks": {}},
    {"checks": [{"name": "goodness", "passed": 1, "details": {}}]},
    {"checks": [{"name": "level_bounds", "passed": True, "details": {}}]},
    {"checks": [{"name": "expected_phi", "passed": True,
                 "details": {"monte_carlo": [{"k": 2, "estimate": "0.5", "exact": 0.5,
                                              "passed": True}]}}]},
    {"checks": [{"name": "distinguishing_sanity", "passed": True,
                 "details": {"envelope": [{"advantage": 0.1, "bound": 0.2}]}}]},
    {"checks": [{"name": "level_bounds", "passed": True,
                 "details": {"max_binom_ratio": math.nan, "max_level1_ratio": 0.5,
                             "max_level_ell_ratio": 0.5}}]},
    {"checks": [{"name": "distinguishing_sanity", "passed": True,
                 "details": {"envelope": [{"tree": "t", "n": 8, "passed": True,
                                           "advantage": 0.1, "bound": math.inf}]}}]},
], ids=["empty-object", "list", "checks-not-a-list", "passed-not-bool", "missing-ratio",
        "estimate-is-text", "envelope-row-short", "ratio-is-nan", "bound-is-infinite"])
def test_report_refuses_malformed_manifest(doc, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, stdout, err = run(["report", str(manifest), "--out-dir", str(out_dir)], capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert not out_dir.exists()


def test_tree_corpus_refuses_depth_over_leaf_budget(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, stdout, err = run(["tree-corpus", "--n", "30", "--d", "25", "--count", "1",
                             "--out-dir", str(out_dir)], capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert not out_dir.exists()


@pytest.mark.parametrize("overrides, key", [
    ({"goodness_pairs": 0}, "goodness_pairs"),
    ({"tail_trials": True}, "tail_trials"),
    ({"moment_sets": 2.0}, "moment_sets"),
    ({"uniform_var_samples": 1}, "uniform_var_samples"),
    ({"seed": "7"}, "seed"),
    ({"nope": 1}, "nope"),
    ({"moment_mc_samples": 3}, "moment_mc_samples"),
    ({"sign_corr_samples": 1}, "sign_corr_samples"),
    ({"mc_mean_samples": 1}, "mc_mean_samples"),
])
def test_verify_config_refuses_bad_fields(overrides, key):
    with pytest.raises(ValueError, match=key):
        VerifyConfig.reduced().with_overrides(overrides)


def test_mean_and_stderr_needs_two_samples():
    # One sample has no standard error; an infinite one would pass any 4-sigma test.
    for values in ([], [0.5]):
        with pytest.raises(ValueError, match="at least two samples"):
            mean_and_stderr(np.array(values))
    assert mean_and_stderr(np.array([1.0, 3.0])) == (2.0, 1.0)


@pytest.mark.parametrize("kind", ["pm1", "01", "float"])
@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 127, 128, 129, 1000, 65_537, 10**6])
def test_mean_and_stderr_equals_numpy(kind, n):
    # numpy's mean and std(ddof=1) / sqrt(n), with the same pairwise sums in
    # the same order, on a float copy; the input is left as it was.
    rng = np.random.default_rng([n, len(kind)])
    if kind == "float":
        values = 3.0 * rng.standard_normal(n) + 0.7
    else:
        values = rng.integers(0, 2, size=n).astype(np.int8)
        if kind == "pm1":
            values = 2 * values - 1
    before = values.copy()
    floats = values.astype(float)
    assert mean_and_stderr(values) == (float(floats.mean()),
                                       float(floats.std(ddof=1) / np.sqrt(n)))
    assert np.array_equal(values, before)


def test_mean_and_stderr_takes_8_bytes_per_sample():
    # One float work array; a float copy and numpy's deviation array took 16.
    values = (2 * np.random.default_rng(3).integers(0, 2, size=10**6) - 1).astype(np.int8)
    tracemalloc.start()
    try:
        mean_and_stderr(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * values.size

"""Fuzzed loaders: malformed files and JSON end in ValueError, nothing else.

Each loader gets random input, prefixes and bit flips of a valid file (or
randomly shaped JSON documents), and may either refuse with ValueError or
return an object that passes its own invariants.
"""
import hashlib
import json
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import leaf_paths, reference_json
from rorrlab import boolfn, dtree, ortho, rorrelation, verify
from rorrlab.cli import main

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of a valid matrix file (N=4) and instance file (k=3, N=4)."""
    work = tmp_path_factory.mktemp("valid")
    u = ortho.sample_haar(4, seed=3)
    ortho.save_matrix(work / "u.mat", u)
    rng = np.random.default_rng(0)
    instances = [rorrelation.RorrelationInstance(k=3, vectors=2 * rng.integers(0, 2, (3, 4)) - 1)
                 for _ in range(2)]
    rorrelation.save_instances(work / "z.inst", instances, matrix_path="u.mat",
                               matrix_hash="ab")
    return (work / "u.mat").read_bytes(), (work / "z.inst").read_bytes()


def _flip(blob: bytes, bits: list[int]) -> bytes:
    out = bytearray(blob)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _mutations(valid: bytes, magic: bytes):
    return st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda tail: magic + tail),
        st.integers(0, len(valid) - 1).map(lambda cut: valid[:cut]),
        st.lists(st.integers(0, 8 * len(valid) - 1), min_size=1, max_size=3)
        .map(lambda bits: _flip(valid, bits)),
    )


def _load_or_none(loader, path):
    try:
        return loader(path)
    except ValueError:
        return None


@FUZZ
@given(data=st.data())
def test_load_matrix_refuses_only_with_value_error(data, valid_files, tmp_path):
    path = tmp_path / "fuzz.mat"
    path.write_bytes(data.draw(_mutations(valid_files[0], ortho.MATRIX_MAGIC)))
    u = _load_or_none(ortho.load_matrix, path)
    if u is not None:
        assert u.n >= 1 and u.orthogonality_error() <= ortho.ORTHOGONALITY_TOL


@FUZZ
@given(data=st.data())
def test_load_instances_refuses_only_with_value_error(data, valid_files, tmp_path):
    path = tmp_path / "fuzz.inst"
    path.write_bytes(data.draw(_mutations(valid_files[1], rorrelation.INSTANCE_MAGIC)))
    loaded = _load_or_none(rorrelation.load_instances, path)
    batch = _load_or_none(rorrelation.load_instance_batch, path)
    # The batch loader refuses the same files, and load_instances is its rows.
    assert (loaded is None) == (batch is None)
    if loaded is not None:
        for inst in loaded[0]:
            assert inst.k >= 2 and inst.n >= 1 and np.all(np.abs(inst.vectors) == 1)
        assert batch[0].dtype == np.int8 and batch[0].ndim == 3
        assert batch[0].shape[1] >= 2 and batch[0].shape[2] >= 1
        assert np.all(np.abs(batch[0]) == 1) and batch[1:] == loaded[1:]
        assert [inst.vectors.tolist() for inst in loaded[0]] == batch[0].tolist()


# Scalars that are right, wrong or out of range for every field of the formats.
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.integers(),
                     st.floats(), st.text(max_size=3))
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
_shallow_tree_docs = st.fixed_dictionaries({}, optional={
    "n": _scalars,
    "root": _scalars,
    "nodes": st.one_of(_scalars, st.lists(st.one_of(_scalars, st.fixed_dictionaries(
        {}, optional={key: _scalars for key in ("q", "lo", "hi", "out")})), max_size=8)),
})


@st.composite
def _caterpillars(draw):
    """A path of hundreds of queries, each with a leaf on a drawn side (a
    decision list when the leaf is always the minus child), then maybe
    one defect: a repeated variable, a loop back up, a short n, a bad bit."""
    depth = draw(st.integers(100, 600))
    order = draw(st.permutations(range(depth)))
    leaf_side = draw(st.sampled_from(["lo", "hi", "mixed"]))
    nodes = []
    for i, var in enumerate(order):
        side = leaf_side if leaf_side != "mixed" else draw(st.sampled_from(["lo", "hi"]))
        other = "hi" if side == "lo" else "lo"
        nodes.append({"q": var, side: 2 * i + 1, other: 2 * i + 2, "out": None})
        nodes.append({"q": None, "lo": None, "hi": None, "out": i % 2})
    nodes.append({"q": None, "lo": None, "hi": None, "out": 1})
    doc = {"n": depth, "root": 0, "nodes": nodes}
    at = 2 * draw(st.integers(1, depth - 1))
    defect = draw(st.sampled_from(["none", "repeat", "loop", "short", "bit"]))
    if defect == "repeat":
        nodes[at]["q"] = nodes[0]["q"]
    elif defect == "loop":
        nodes[at]["lo"] = nodes[at]["hi"] = draw(st.integers(0, at // 2)) * 2
    elif defect == "short":
        doc["n"] = depth - 1
    elif defect == "bit":
        nodes[at + 1]["out"] = 2
    return doc


# One query and two leaves over a variable count at, near or far above MAX_FILE_VARS.
_wide_trees = st.builds(
    lambda n, q: {"n": n, "nodes": [{"q": q, "lo": 1, "hi": 2}, {"out": 0}, {"out": 1}]},
    st.sampled_from([boolfn.MAX_FILE_VARS + d for d in (-1, 0, 1)] + [2**63, 10**30]),
    st.sampled_from([0, boolfn.MAX_FILE_VARS - 1, boolfn.MAX_FILE_VARS, 10**29 - 1]))
_tree_docs = st.one_of(_shallow_tree_docs, _caterpillars(), _wide_trees)


@FUZZ
@given(doc=st.one_of(_json_values, _tree_docs))
def test_tree_from_json_refuses_only_with_value_error(doc):
    tree = _load_or_none(dtree.tree_from_json, json.dumps(doc))
    if tree is None:
        return
    assert tree.n <= boolfn.MAX_FILE_VARS
    if 1 <= tree.n <= 8:
        assert set(np.unique(tree.truth_table())) <= {0, 1}
        dtree.sparse_fourier(tree)
    elif tree.depth >= 100:
        assert 0.0 <= dtree.acceptance_probability(tree) <= 1.0
        # A caterpillar: one internal node per layer, each reached once.
        assert len(dtree.next_var_coefficients(tree)) == tree.depth
        assert len(leaf_paths(tree)) == tree.depth + 1
        with pytest.raises(ValueError, match="too deep"):
            dtree.sparse_fourier(tree)
    else:
        spec = dtree.sparse_fourier(tree)
        assert boolfn.spectrum_to_json(spec) == reference_json(spec)


_report_row_docs = st.fixed_dictionaries({}, optional={key: _scalars for key in (
    "k", "n", "tree", "estimate", "exact", "advantage", "bound", "passed")})
_details_docs = st.fixed_dictionaries({}, optional={
    **{key: _scalars for key in ("empirical_variance", "target", "empirical_passed",
                                 "max_binom_ratio", "max_level1_ratio",
                                 "max_level_ell_ratio")},
    **{key: st.one_of(_scalars, st.lists(st.one_of(_scalars, _report_row_docs), max_size=3))
       for key in ("monte_carlo", "envelope")},
})
_manifest_docs = st.fixed_dictionaries({}, optional={
    "checks": st.one_of(_scalars, st.lists(st.one_of(_scalars, st.fixed_dictionaries({}, optional={
        "name": st.one_of(_scalars, st.sampled_from(sorted(verify.CHECK_NAMES))),
        "passed": _scalars,
        "details": st.one_of(_scalars, _details_docs),
    })), max_size=4)),
})


@FUZZ
@given(doc=st.one_of(_json_values, _manifest_docs))
def test_manifest_from_json_refuses_only_with_value_error(doc):
    # As `rorrlab report` reads a manifest: its shape, then the tabulated fields.
    rows = _load_or_none(lambda text: verify.report_rows(verify.manifest_from_json(text)),
                         json.dumps(doc))
    if rows is not None:
        for row in rows:
            # report formats both with :.6g; abs() <= max, as math.isfinite
            # raises OverflowError on integers too large for a float.
            assert all(type(row[key]) in (int, float) and abs(row[key]) <= sys.float_info.max
                       for key in ("measured", "reference"))


_csv_lines = st.lists(st.sampled_from(["1", "-1", " 1", "0", "2", "300", "x", "", "1,-1",
                                       '"1', "\x00", "1e0"]), max_size=10)


@FUZZ
@given(blob=st.one_of(st.binary(max_size=64),
                      _csv_lines.map(lambda lines: "\n".join(lines).encode())))
def test_read_truth_table_csv_refuses_only_with_value_error(blob, tmp_path):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(blob)
    table = _load_or_none(boolfn.read_truth_table_csv, path)
    if table is not None:
        assert table.size & (table.size - 1) == 0 and np.all(np.abs(table) == 1)


def test_tree_child_ids_must_lie_in_the_arena():
    leaf = dtree.Node(output=1)
    for child in (-1, 2):
        with pytest.raises(ValueError, match="outside the arena"):
            dtree.DecisionTree(1, [dtree.Node(query_var=1, child_minus=child, child_plus=1),
                                   leaf])
    with pytest.raises(ValueError, match="root"):
        dtree.DecisionTree(1, [leaf], root=1)


def test_orthogonal_matrix_rejects_non_finite_entries():
    for value in (np.nan, np.inf):
        entries = np.eye(3)
        entries[1, 2] = value
        with pytest.raises(ValueError, match="not orthogonal"):
            ortho.OrthogonalMatrix(n=3, entries=entries)


def test_instance_sign_bytes_must_be_bits(valid_files, tmp_path):
    # 128 * 2 - 1 wraps to -1 in int8, so a flipped top bit once read as a sign.
    blob = bytearray(valid_files[1])
    blob[-1] |= 0x80
    path = tmp_path / "flipped.inst"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="sign bytes"):
        rorrelation.load_instances(path)


def test_instances_are_scored_only_against_the_matrix_they_were_drawn_for(
        tmp_path, capsys, monkeypatch):
    # Chain instances store the sha256 of their matrix file; uniform ones
    # store none and are never hashed against --matrix.
    a, b, copy = (str(tmp_path / name) for name in ("a.mat", "b.mat", "copy.mat"))
    chain, flat = str(tmp_path / "chain.inst"), str(tmp_path / "flat.inst")
    for argv in (["sample-matrix", "--n", "8", "--seed", "0", "--out", a],
                 ["sample-matrix", "--n", "8", "--seed", "1", "--out", b],
                 ["sample-dist", "--dist", "duk", "--matrix", a, "--k", "3", "--count", "4",
                  "--out", chain],
                 ["sample-dist", "--dist", "uniform", "--n", "8", "--k", "2", "--count", "4",
                  "--out", flat]):
        assert main(argv) == 0
    (tmp_path / "copy.mat").write_bytes((tmp_path / "a.mat").read_bytes())
    digest = hashlib.sha256((tmp_path / "a.mat").read_bytes()).hexdigest()
    capsys.readouterr()
    for command in ("rorrelate", "classify", "qsim"):
        for matrix in (a, copy):  # the hash is of the bytes, not the path
            assert main([command, "--matrix", matrix, "--instances", chain]) == 0
            assert capsys.readouterr().out.count("\n") == 4
        assert main([command, "--matrix", b, "--instances", chain]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {b}: not the matrix file of sha256 {digest}\n"
    monkeypatch.setattr(ortho.hashlib, "sha256", lambda blob: pytest.fail("hashed --matrix"))
    assert main(["rorrelate", "--matrix", b, "--instances", flat]) == 0


@pytest.mark.parametrize("k", [0, 1])
def test_empty_instance_file_needs_two_folds(k, tmp_path):
    # An empty file never builds a RorrelationInstance, so the header alone
    # must refuse k < 2.
    path = tmp_path / "short-k.inst"
    path.write_bytes(rorrelation.INSTANCE_MAGIC + struct.pack("<IIHHI", k, 4, 0, 0, 0))
    with pytest.raises(ValueError, match="fold count k must be at least 2"):
        rorrelation.load_instances(path)

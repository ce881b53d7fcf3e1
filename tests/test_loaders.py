"""Fuzzed loaders: malformed files and JSON end in ValueError, nothing else.

Each loader gets random input, prefixes and bit flips of a valid file (or
randomly shaped JSON documents), and may either refuse with ValueError or
return an object that passes its own invariants.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rorrlab import boolfn, dtree, ortho, rorrelation

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
    if loaded is not None:
        for inst in loaded[0]:
            assert inst.k >= 2 and inst.n >= 1 and np.all(np.abs(inst.vectors) == 1)


# Scalars that are right, wrong or out of range for every field of the formats.
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.integers(),
                     st.floats(), st.text(max_size=3))
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
_tree_docs = st.fixed_dictionaries({}, optional={
    "n": _scalars,
    "root": _scalars,
    "nodes": st.one_of(_scalars, st.lists(st.one_of(_scalars, st.fixed_dictionaries(
        {}, optional={key: _scalars for key in ("q", "lo", "hi", "out")})), max_size=8)),
})
_spectrum_docs = st.fixed_dictionaries({}, optional={
    "n": _scalars,
    "coefficients": st.one_of(_scalars, st.lists(st.one_of(_scalars, st.fixed_dictionaries(
        {}, optional={"S": st.one_of(_scalars, st.lists(_scalars, max_size=3)),
                      "coeff": _scalars})), max_size=6)),
})


@FUZZ
@given(doc=st.one_of(_json_values, _tree_docs))
def test_tree_from_json_refuses_only_with_value_error(doc):
    tree = _load_or_none(dtree.tree_from_json, json.dumps(doc))
    if tree is not None and 1 <= tree.n <= 8:
        assert set(np.unique(tree.truth_table())) <= {0, 1}
        dtree.sparse_fourier(tree)


@FUZZ
@given(doc=st.one_of(_json_values, _spectrum_docs))
def test_spectrum_from_json_refuses_only_with_value_error(doc):
    spec = _load_or_none(boolfn.spectrum_from_json, json.dumps(doc))
    if spec is not None:
        assert all(np.isfinite(c) for c in spec.coeffs.values())


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

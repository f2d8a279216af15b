"""JSON round-trips and the command line surface.

The CLI is driven in-process through main(argv); exit codes follow the
documented contract: 0 clean, 1 failed invariant, 2 unusable input.
"""

import contextlib
import copy
import functools
import io
import json
import os
import runpy
import signal
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corrlab.acceptance import k0_of_corr
from corrlab.algebra import StarHom, _traced_mult, make_algebra
from corrlab.bicategory import equivalence_inverse, gamma_of_hom
from corrlab.cli import main
from corrlab.errors import CorrLabError, ParseError, SchemaError, ShapeMismatch
from corrlab.extension import NCorrOracle, extend_bar_G, gamma_functor
from corrlab.generators import (
    embedding_hom,
    random_algebra,
    random_chain,
    random_correspondence,
    random_equivalence,
    random_simplex,
    random_unital_hom,
)
from corrlab.linalg import frob
from corrlab.modules import (
    corr_close,
    identity_corr,
    iso_distance,
    make_correspondence,
    make_iso,
    make_module,
    tensor_corrs,
)
from corrlab.nerve import (
    HornSpec,
    face,
    fill_inner_horn,
    gamma_simplex,
    identity_iso,
    make_simplex,
    simplex_close,
    structural_hash,
    validate_simplex,
)
from corrlab.serialize import (
    _Sink,
    _json_text,
    _lists,
    algebra_from_json,
    algebra_to_json,
    corr_to_json,
    hom_from_json,
    hom_to_json,
    horn_to_json,
    iso_to_json,
    load_value,
    matrix_from_json,
    matrix_to_json,
    module_to_json,
    simplex_to_json,
    value_to_json,
)
from corrlab.subdivision import subdivision_functor
from reference import dump_value


# ---------------------------------------------------------------------------
# serialization


def redump(tmp_path_factory, value):
    """Dump value, load it back and return the loaded value.  Every schema
    is byte-stable: dumping the loaded value must write the same text."""
    d = tmp_path_factory.mktemp("roundtrip")
    path = d / "value.json"
    dump_value(value, path)
    back = load_value(path)
    dump_value(back, d / "again.json")
    assert (d / "again.json").read_bytes() == path.read_bytes()
    return back


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=25)
@given(seed=SEEDS, size=st.integers(1, 3))
def test_algebra_roundtrip(tmp_path_factory, seed, size):
    rng = np.random.default_rng(seed)
    a = random_algebra(rng, max_blocks=size, max_size=size)
    back = redump(tmp_path_factory, a)
    assert back is a


def test_an_algebra_label_is_v1_schema_only():
    """A label must be a string and its value is ignored: the one algebra
    of the blocks comes back, and "" is written, as every v1 writer did."""
    a = algebra_from_json({"blocks": [2, 1], "label": "A"})
    assert a is make_algebra((2, 1))
    assert algebra_to_json(a) == {"blocks": [2, 1], "label": ""}
    with pytest.raises(SchemaError, match=r"algebra\.label: expected a string"):
        algebra_from_json({"blocks": [2, 1], "label": 1})


def test_parsing_returns_the_one_algebra_and_module(tmp_path_factory):
    """Equal algebras and modules are one object, so a parsed simplex has
    the very algebras and modules of the simplex that was written."""
    s = random_simplex(np.random.default_rng(12), 2, twist=True, max_mult=1)
    back = redump(tmp_path_factory, s)
    assert all(x is y for x, y in zip(back.algebras, s.algebras))
    assert all(back.edges[k].module is e.module for k, e in s.edges.items())
    assert redump(tmp_path_factory, s.edges[(0, 1)].module) is s.edges[(0, 1)].module


@settings(max_examples=25)
@given(seed=SEEDS, size=st.integers(1, 2))
def test_hom_roundtrip(tmp_path_factory, seed, size):
    rng = np.random.default_rng(seed)
    phi = random_unital_hom(random_algebra(rng, max_blocks=size, max_size=size), rng)
    back = redump(tmp_path_factory, phi)
    assert back.src == phi.src and back.dst == phi.dst
    assert frob(back.matrix - phi.matrix) < 1e-12
    assert np.array_equal(back.mult_matrix, phi.mult_matrix)


@settings(max_examples=25)
@given(seed=SEEDS, size=st.integers(1, 2), max_mult=st.integers(1, 2))
def test_corr_roundtrip(tmp_path_factory, seed, size, max_mult):
    rng = np.random.default_rng(seed)
    a = random_algebra(rng, max_blocks=size, max_size=size)
    b = random_algebra(rng, max_blocks=size, max_size=size)
    corr = random_correspondence(a, b, rng, max_mult=max_mult)
    assert corr_close(redump(tmp_path_factory, corr), corr, 1e-12)


@settings(max_examples=25)
@given(seed=SEEDS, size=st.integers(1, 2))
def test_iso_roundtrip(tmp_path_factory, seed, size):
    rng = np.random.default_rng(seed)
    b = random_algebra(rng, max_blocks=size, max_size=size)
    e = random_equivalence(b, rng)
    w = identity_iso(e)
    assert iso_distance(redump(tmp_path_factory, w), w) < 1e-12


@settings(max_examples=15)
@given(seed=SEEDS, n=st.integers(2, 3), twist=st.booleans())
def test_simplex_and_horn_roundtrip(tmp_path_factory, seed, n, twist):
    """Byte-stable: a cell is written as its dense matrix and read back from
    the first of the n_k copies of each block, which the load checks the
    others against."""
    rng = np.random.default_rng(seed)
    s = random_simplex(rng, n, twist=twist, max_mult=1)
    back = redump(tmp_path_factory, s)
    assert simplex_close(back, s)
    validate_simplex(back)

    horn = HornSpec(n, 1, {j: face(s, j) for j in range(n + 1) if j != 1})
    hback = redump(tmp_path_factory, horn)
    assert hback.n == n and hback.k == 1
    assert simplex_close(hback.faces[0], horn.faces[0])


# more nesting than the JSON parser's recursion allows, and a label that is
# not UTF-8
DEEP_JSON = b"[" * 100_000
NOT_UTF8 = b'{"blocks": [2, 1], "label": "\xff\xfe"}'


def test_parse_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_value(missing)
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ParseError, match="line"):
        load_value(empty)
    bad = tmp_path / "bad.json"
    bad.write_text('{"blocks": [2, 1],')
    with pytest.raises(ParseError):
        load_value(bad)
    deep = tmp_path / "deep.json"
    deep.write_bytes(DEEP_JSON)
    with pytest.raises(ParseError, match="nested too deeply"):
        load_value(deep)
    latin = tmp_path / "latin.json"
    latin.write_bytes(NOT_UTF8)
    with pytest.raises(ParseError, match="codec"):
        load_value(latin)


@pytest.mark.parametrize("text", [DEEP_JSON, NOT_UTF8], ids=["deep", "not-utf8"])
def test_cli_unparsable_text_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "x.json"
    path.write_bytes(text)
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in out + err


def test_schema_errors(tmp_path):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"rows": 3}))
    with pytest.raises(SchemaError):
        load_value(p)
    p2 = tmp_path / "half.json"
    p2.write_text(json.dumps({"src": {"blocks": [2]}, "dst": {"blocks": [2]}}))
    with pytest.raises(SchemaError):
        load_value(p2)
    p3 = tmp_path / "list.json"
    p3.write_text(json.dumps([{"blocks": [2]}]))
    with pytest.raises(SchemaError, match="expected a JSON object, got list"):
        load_value(p3)
    with pytest.raises(SchemaError, match="no JSON schema for object"):
        value_to_json(object())


# ---------------------------------------------------------------------------
# CLI


def test_cli_make_and_validate(tmp_path, capsys):
    apath = str(tmp_path / "a.json")
    assert main(["make", "algebra", "--blocks", "2,1", "--out", apath]) == 0
    assert load_value(apath).blocks == (2, 1)
    assert main(["validate", apath]) == 0
    out = capsys.readouterr().out
    assert "all invariants pass" in out

    spath = str(tmp_path / "s.json")
    assert main(["make", "simplex", "--n", "2", "--twist", "--out", spath]) == 0
    assert main(["validate", spath]) == 0
    # flag placement before the subcommand is accepted too, and takes effect
    assert main(["--seed", "7", "make", "simplex", "--out", spath]) == 0
    assert main(["--eps", "1e-9", "validate", spath]) == 0
    after = tmp_path / "after.json"
    assert main(["make", "simplex", "--seed", "7", "--out", str(after)]) == 0
    assert after.read_text() == (tmp_path / "s.json").read_text()


def test_cli_make_hom_and_gamma(tmp_path, capsys):
    apath = str(tmp_path / "a.json")
    hpath = str(tmp_path / "h.json")
    cpath = str(tmp_path / "c.json")
    assert main(["make", "algebra", "--blocks", "2", "--out", apath]) == 0
    assert main(["make", "hom", "--src", apath, "--out", hpath]) == 0
    capsys.readouterr()
    assert main(["validate", hpath]) == 0
    out = capsys.readouterr().out
    assert "star-preserving: ok (residual" in out
    assert "multiplicative: ok (residual" in out
    assert "unital: True" in out
    assert main(["gamma", "--hom", hpath, "--out", cpath]) == 0
    assert main(["validate", cpath]) == 0
    capsys.readouterr()


def huge_trace_hom() -> bytes:
    """``make hom --seed 1`` with matrix[0][0] set to 2**70: a trace no
    integer multiplicity can hold."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["make", "hom", "--seed", "1"])
    doc = json.loads(out.getvalue())
    doc["matrix"][0][0] = 2**70
    return json.dumps(doc).encode()


HUGE_TRACE_HOM = huge_trace_hom()


def test_cli_validate_rejects_a_trace_beyond_its_block(tmp_path, capsys):
    """Refused before the cast to int64, which would warn and make up
    multiplicities."""
    path = tmp_path / "hom.json"
    path.write_bytes(HUGE_TRACE_HOM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "not a rank in its block" in captured.err
    assert "unital:" not in captured.out


@pytest.mark.parametrize("kind", ["corr", "simplex"])
def test_cli_validate_rejects_a_left_action_trace_beyond_its_block(tmp_path, capsys, kind):
    """The unchecked parse of a left action, alone or as a simplex edge,
    traces its multiplicities as the hom parse does, and refuses the same
    corruption."""
    code, out, _ = run_cli(["make", kind, "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    corr = doc if kind == "corr" else doc["edges"][0]["corr"]
    corr["left_action"]["matrix"][0][0] = 2**70
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", str(path)]) == 1
    assert "not a rank in its block" in capsys.readouterr().err


def test_cli_validate_flags_non_multiplicative_hom(tmp_path, capsys):
    phi = random_unital_hom(random_algebra(np.random.default_rng(3)), np.random.default_rng(4))
    path = tmp_path / "doubled.json"
    doubled = 2.0 * phi.matrix
    dump_value(StarHom(phi.src, phi.dst, doubled, _traced_mult(phi.src, phi.dst, doubled)), path)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "star-preserving: ok" in out
    assert "multiplicative: FAIL (residual" in out


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), 10**400], ids=["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize("command", ["validate", "gamma"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, entry, command):
    phi = random_unital_hom(random_algebra(np.random.default_rng(3)), np.random.default_rng(4))
    doc = hom_to_json(phi)
    doc["matrix"][0][0] = entry  # json writes NaN, Infinity and all 401 digits
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(doc))
    argv = ["validate", str(path)] if command == "validate" else ["gamma", "--hom", str(path)]
    assert main(argv) == 2
    assert "star_hom.matrix[0]" in capsys.readouterr().err


GOOD_ENTRIES = [[1, 0.5], [-2.0, 3], [0, -0.0], [2**60, 1e-300]]
PAIR = r"expected an \[re, im\] pair"


@pytest.mark.parametrize(
    "k, entry, message",
    [
        (2, [1, 2, 3], PAIR),
        (3, [1], PAIR),
        (1, 1.0, PAIR),
        (1, {"re": 1, "im": 0}, PAIR),
        (1, [1, "0"], PAIR),
        (2, [None, 0], PAIR),
        (2, [0, False], PAIR),
        (3, [1, -(10**400)], "number too large for a float"),
        (1, [float("-inf"), 0], "expected finite numbers"),
    ],
    ids=["triple", "single", "bare-number", "object", "string", "null", "bool", "huge-int", "-inf"],
)
def test_matrix_from_json_names_the_first_bad_entry(k, entry, message):
    data = [*GOOD_ENTRIES[:k], entry, *GOOD_ENTRIES[k + 1 :]]
    with pytest.raises(SchemaError, match=rf"m\[{k}\]: {message}"):
        matrix_from_json(data, (2, 2), "m")
    with pytest.raises(SchemaError, match=r"m: expected a list of \[re, im\] pairs"):
        matrix_from_json(dict(enumerate(data)), (2, 2), "m")
    with pytest.raises(SchemaError, match="m: expected 4 entries for shape 2x2, got 5"):
        matrix_from_json(data + [[0, 0]], (2, 2), "m")


def test_matrix_from_json_reads_json_numbers_exactly():
    data = json.loads(json.dumps(GOOD_ENTRIES))
    got = matrix_from_json(data, (2, 2))
    want = np.array([complex(re, im) for re, im in data]).reshape(2, 2)
    assert got.tobytes() == want.tobytes()
    assert matrix_from_json([], (0, 3)).shape == (0, 3)


def _set_bool(seq, key):
    """Replace seq[key] by the JSON boolean of the same integer value where
    that is 0 or 1, so only the type is wrong."""
    seq[key] = bool(seq[key]) if seq[key] in (0, 1) else True


# (case, schema, edit, location named in the error); JSON true and false are
# not numbers
BOOLEAN_CASES = [
    ("blocks", "algebra", lambda d: _set_bool(d["blocks"], 0), "algebra.blocks"),
    ("matrix-entry", "star_hom", lambda d: _set_bool(d["matrix"][0], 1), "star_hom.matrix[0]"),
    ("module-mult", "module", lambda d: _set_bool(d["mult"], 0), "module.mult"),
    ("corr-mult", "correspondence", lambda d: _set_bool(d["mult"], 0), "correspondence.mult"),
    ("edge-index", "ncorr_simplex", lambda d: _set_bool(d["edges"][0], "i"), "ncorr_simplex.edges[0].i"),
    ("cell-index", "ncorr_simplex", lambda d: _set_bool(d["cells"][0], "i"), "ncorr_simplex.cells[0].i"),
    ("horn-n", "horn1", lambda d: _set_bool(d, "n"), "horn: n and k"),
    ("horn-k", "horn2", lambda d: _set_bool(d, "k"), "horn: n and k"),
    ("face-index", "horn2", lambda d: _set_bool(d["faces"][0], "j"), "horn.faces[0].j"),
]


@pytest.mark.parametrize("case,schema,edit,where", BOOLEAN_CASES, ids=[c[0] for c in BOOLEAN_CASES])
def test_cli_rejects_json_booleans_as_numbers(tmp_path, capsys, case, schema, edit, where):
    s = random_simplex(np.random.default_rng(9), 2, max_mult=1)
    edge = s.edges[(0, 1)]
    docs = {
        "algebra": algebra_to_json(s.algebras[0]),
        "star_hom": hom_to_json(edge.lam),
        "module": module_to_json(edge.module),
        "correspondence": corr_to_json(edge),
        "ncorr_simplex": simplex_to_json(s),
        "horn1": horn_to_json(HornSpec(1, 1, {0: face(face(s, 2), 0)})),
        "horn2": horn_to_json(HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)})),
    }
    doc = docs[schema]
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert where in capsys.readouterr().err


# (document, exit code, location named in the error): a blocks or mult list
# may describe at most MAX_PARSED_DIM = 256 dimensions, sum of squares
CAP_CASES = [
    ({"blocks": [16]}, 0, None),
    ({"blocks": [16, 1]}, 2, "algebra.blocks"),
    ({"blocks": [10**9]}, 2, "algebra.blocks"),
    ({"base": {"blocks": [2]}, "mult": [10**9]}, 2, "module.mult"),
    ({"src": {"blocks": [1]}, "dst": {"blocks": [2]}, "mult": [10**9], "left_action": {}},
     2, "correspondence.mult"),
    ({"algebras": [{"blocks": [1]}, {"blocks": [10**9]}], "edges": [], "cells": []},
     2, "ncorr_simplex.algebras[1].blocks"),
]


@pytest.mark.parametrize("doc,code,where", CAP_CASES)
def test_cli_caps_dimensions_before_building(tmp_path, capsys, doc, code, where):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == code
    if where:
        assert f"{where}: describes more than 256 dimensions" in capsys.readouterr().err


@pytest.mark.parametrize("blocks,code", [("16", 0), ("16,1", 2), ("3000000", 2)])
def test_cli_make_algebra_caps_blocks(tmp_path, capsys, blocks, code):
    out = str(tmp_path / "a.json")
    assert main(["make", "algebra", "--blocks", blocks, "--out", out]) == code
    if code:
        assert "describes more than 256 dimensions" in capsys.readouterr().err
    else:
        assert load_value(out).blocks == (16,)


def test_cli_make_algebra_has_no_label_option(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["make", "algebra", "--blocks", "2,1", "--label", "A"])
    assert exit_.value.code == 2
    assert "--label" in capsys.readouterr().err


def test_cli_make_algebra_rejects_non_integer_blocks(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["make", "algebra", "--blocks", "2,x"])
    assert exit_.value.code == 2
    assert "--blocks" in capsys.readouterr().err


def test_cli_simplex_dimension_cap(tmp_path, capsys):
    assert main(["make", "simplex", "--n", "5", "--out", str(tmp_path / "x.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_validate_flags_broken_simplex(tmp_path, capsys):
    rng = np.random.default_rng(5)
    s = random_simplex(rng, 3, max_mult=1)
    cells = dict(s.cells)
    c = cells[(0, 1, 2)]
    cells[(0, 1, 2)] = make_iso(c.src, c.dst, [-u for u in c.blocks])
    bad = make_simplex(list(s.algebras), dict(s.edges), cells, validate=False)
    path = tmp_path / "bad.json"
    dump_value(bad, path)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "pentagon: FAIL" in out


@pytest.mark.parametrize("kind", ["simplex", "horn"])
def test_cli_validate_flags_an_edge_that_is_not_a_star_hom(tmp_path, capsys, kind):
    # a lone edge has no pentagon, so only the edge check can catch it
    from test_nerve import conjugated_edge

    e = conjugated_edge(1.0)
    s = make_simplex([e.src, e.dst], {(0, 1): e}, {}, validate=False)
    path = tmp_path / "bad.json"
    dump_value(s if kind == "simplex" else HornSpec(2, 2, {0: s, 1: s}), path)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "edge (0, 1) left action is a star-hom: FAIL" in out
    assert "all invariants pass" not in out


@pytest.mark.parametrize("key", [(0, 1, 2), (0, 1, 3)])
def test_cli_validate_flags_nan_cell(tmp_path, capsys, monkeypatch, key):
    # JSON cannot carry NaN (exit 2), so the cell's matrix is swapped in as
    # it is read, below the parse: validate's checks then see the NaN
    import corrlab.serialize
    from test_nerve import nan_cell_simplex

    bad = nan_cell_simplex(key, "last")
    path = tmp_path / "s.json"
    dump_value(bad, path)  # the NaN is written as NaN, which the parse refuses
    doc = json.loads(path.read_text(), parse_constant=lambda c: 0.0)
    path.write_text(json.dumps(doc))
    where = f"ncorr_simplex.cells[{sorted(bad.cells).index(key)}].unitary"
    real = corrlab.serialize.matrix_from_json

    def nan_cell(data, shape, where_=None):
        return bad.cells[key].dense() if where_ == where else real(data, shape, where_)

    monkeypatch.setattr(corrlab.serialize, "matrix_from_json", nan_cell)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"cell {key} unitary: FAIL (residual nan)" in out
    assert "pentagon: ok" not in out


def test_cli_morita(tmp_path, capsys):
    rng = np.random.default_rng(6)
    e = random_equivalence(random_algebra(rng, max_blocks=2, max_size=2), rng)
    epath = tmp_path / "e.json"
    dump_value(e, epath)
    wpath = tmp_path / "w.json"
    assert main(["morita", "--module", str(epath), "--out", str(wpath)]) == 0
    doc = json.loads(wpath.read_text())
    assert set(doc) == {"inverse", "counit_left", "counit_right"}
    capsys.readouterr()
    # a non-equivalence is a validation failure, not a crash
    from corrlab.algebra import make_algebra
    from corrlab.bicategory import gamma_of_hom

    doubled = gamma_of_hom(
        embedding_hom(make_algebra((1,)), make_algebra((2,)), np.array([[2]]), rng)
    )
    cpath = tmp_path / "c.json"
    dump_value(doubled, cpath)
    assert main(["morita", "--module", str(cpath)]) == 1


def test_cli_fill_inner_and_outer(tmp_path, capsys):
    rng = np.random.default_rng(7)
    s = random_simplex(rng, 2, max_mult=1)
    horn = HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)})
    hpath = tmp_path / "horn.json"
    dump_value(horn, hpath)
    fpath = tmp_path / "filled.json"
    assert main(["fill", "--horn", str(hpath), "--out", str(fpath)]) == 0
    filled = load_value(fpath)
    assert corr_close(filled.edges[(0, 1)], s.edges[(0, 1)])
    assert main(["validate", str(fpath)]) == 0
    capsys.readouterr()

    # special outer horn with an equivalence tail
    chain = random_chain(rng, 1, max_mult=1)
    tail = chain[-1].dst
    chain.append(embedding_hom(tail, tail, np.eye(tail.nblocks, dtype=np.int64), rng))
    s2 = gamma_simplex(chain, validate=False)
    horn2 = HornSpec(2, 2, {0: face(s2, 0), 1: face(s2, 1)})
    h2path = tmp_path / "outer.json"
    dump_value(horn2, h2path)
    assert main(["fill", "--horn", str(h2path), "--out", str(fpath)]) == 0
    assert main(["validate", str(fpath)]) == 0
    capsys.readouterr()


def test_cli_fill_refuses_a_special_4_horn_whose_last_edge_is_no_equivalence(tmp_path):
    """The fill tests a special horn's last edge in every dimension: a
    4-horn whose last edge is Γ of C -> M_2, x -> diag(x, x) exits 1."""
    c = make_algebra((1,))
    ident = embedding_hom(c, c, [[1]])
    s = gamma_simplex([ident] * 3 + [embedding_hom(c, make_algebra((2,)), [[2]])])
    hpath = tmp_path / "horn.json"
    dump_value(HornSpec(4, 4, {j: face(s, j) for j in range(4)}), hpath)
    code, out, err = run_cli(["fill", "--horn", str(hpath)])
    assert (code, out) == (1, "") and "not a permutation" in err


@pytest.mark.parametrize("n", [0, 1])
def test_cli_fill_rejects_a_final_vertex_horn_below_dimension_2(tmp_path, capsys, n):
    s = random_simplex(np.random.default_rng(7), 1, max_blocks=1, max_size=2, max_mult=1)
    horn = HornSpec(1, 1, {0: face(s, 0)}) if n == 1 else HornSpec(0, 0, {})
    hpath = tmp_path / "horn.json"
    dump_value(horn, hpath)
    assert main(["fill", "--horn", str(hpath)]) == 1
    assert "special outer horn below dimension 2" in capsys.readouterr().err


def _set_face_j(doc, j):
    doc["faces"][1]["j"] = j


# (case, edit of a (2, 1)-horn file, message): a structural fault of the horn
# itself, like one of its edge or cell indices, is a schema error
HORN_SHAPE_CASES = [
    ("face-j-7", lambda d, s: _set_face_j(d, 7), "horn needs faces [0, 2], got [0, 7]"),
    ("face-j-negative", lambda d, s: _set_face_j(d, -1), "horn needs faces [0, 2], got [-1, 0]"),
    ("n-9", lambda d, s: d.update(n=9), "horn needs faces"),
    ("k-5", lambda d, s: d.update(k=5), "horn index 5 out of range for n=2"),
    (
        "face-dimension",
        lambda d, s: d["faces"][1].update(simplex=simplex_to_json(s)),
        "face 2 has dimension 2, expected 1",
    ),
]


def _swap_first(doc, part, a, b):
    rec = doc[part][0]
    rec[a], rec[b] = rec[b], rec[a]


# (case, edit of a 2-simplex file, message): a record out of order or a
# missing one, and a left action whose ends are not the correspondence's
SIMPLEX_SHAPE_CASES = [
    ("edge-order", lambda d: _swap_first(d, "edges", "i", "j"), "ncorr_simplex.edges[0]: needs i < j"),
    ("edge-missing", lambda d: d["edges"].pop(0), "ncorr_simplex.edges: missing [(0, 1)]"),
    ("cell-order", lambda d: _swap_first(d, "cells", "j", "k"), "ncorr_simplex.cells[0]: needs i < j < k"),
    ("cell-missing", lambda d: d["cells"].clear(), "ncorr_simplex.cells: missing [(0, 1, 2)]"),
    (
        "action-src",
        lambda d: d["edges"][0]["corr"]["left_action"].update(src={"blocks": [5]}),
        "edges[0].corr.left_action.src: does not match the correspondence source",
    ),
    (
        "action-dst",
        lambda d: d["edges"][0]["corr"]["left_action"].update(dst={"blocks": [5]}),
        "edges[0].corr.left_action.dst: does not match the compacts of the module",
    ),
]


@pytest.mark.parametrize("command", ["subdivide", "validate"])
@pytest.mark.parametrize(
    "case,edit,message", SIMPLEX_SHAPE_CASES, ids=[c[0] for c in SIMPLEX_SHAPE_CASES]
)
def test_cli_simplex_with_a_structural_fault_exits_2(tmp_path, command, case, edit, message):
    s = random_simplex(np.random.default_rng(9), 2, max_mult=1)
    doc = simplex_to_json(s)
    assert [(e["i"], e["j"]) for e in doc["edges"]][0] == (0, 1)
    edit(doc)
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(doc))
    argv = ["subdivide", "--simplex", str(path)] if command == "subdivide" else ["validate", str(path)]
    code, out, err = run_cli(argv)
    assert code == 2 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["fill", "validate"])
@pytest.mark.parametrize(
    "case,edit,message", HORN_SHAPE_CASES, ids=[c[0] for c in HORN_SHAPE_CASES]
)
def test_cli_horn_with_a_structural_fault_exits_2(tmp_path, capsys, command, case, edit, message):
    s = random_simplex(np.random.default_rng(9), 2, max_mult=1)
    doc = horn_to_json(HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)}))
    edit(doc, s)
    path = tmp_path / "horn.json"
    path.write_text(json.dumps(doc))
    argv = ["fill", "--horn", str(path)] if command == "fill" else ["validate", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horn: ") and message in err


def test_cli_works_at_dimension_4(tmp_path, capsys):
    # the seed draws a small 4-simplex at the generator's default sizes
    spath = str(tmp_path / "s4.json")
    assert main(["make", "simplex", "--n", "4", "--seed", "2", "--out", spath]) == 0
    s = load_value(spath)
    assert s.n == 4
    assert main(["subdivide", "--simplex", spath, "--out", str(tmp_path / "sd.json")]) == 0
    assert len(json.loads((tmp_path / "sd.json").read_text())["vertices"]) == 31
    opath = tmp_path / "k0.json"
    argv = ["extend", "--simplex", spath, "--functor", "k0", "--target", "k0nerve"]
    assert main(argv + ["--out", str(opath)]) == 0
    got = {(e["i"], e["j"]): e["matrix"] for e in json.loads(opath.read_text())["edges"]}
    assert got == {key: k0_of_corr(e).tolist() for key, e in s.edges.items()}
    capsys.readouterr()


@pytest.mark.parametrize("command", ["subdivide", "extend-k0"])
def test_cli_refuses_dimension_5_before_building(tmp_path, capsys, monkeypatch, command):
    from corrlab import subdivision

    path = str(tmp_path / "s5.json")
    dump_value(random_simplex(np.random.default_rng(1), 5, max_blocks=1, max_size=1, max_mult=1), path)
    built = []
    monkeypatch.setattr(subdivision, "module_E_S", lambda *args: built.append(args))
    argv = ["subdivide", "--simplex", path]
    if command == "extend-k0":
        argv = ["extend", "--simplex", path, "--functor", "k0", "--target", "k0nerve"]
    assert main(argv) == 2
    assert "exceeds the supported bound 4" in capsys.readouterr().err
    assert built == []


def test_cli_subdivide(tmp_path, capsys):
    spath = str(tmp_path / "s.json")
    opath = str(tmp_path / "sd.json")
    assert main(["make", "simplex", "--n", "2", "--out", spath]) == 0
    assert main(["subdivide", "--simplex", spath, "--out", opath]) == 0
    doc = json.loads((tmp_path / "sd.json").read_text())
    assert len(doc["vertices"]) == 7
    assert len(doc["homs"]) == sum(
        1
        for a in doc["vertices"]
        for b in doc["vertices"]
        if set(tuple(a)) <= set(tuple(b))
    )
    # every written hom reads back to the bits of the hom it was written from;
    # validate's sink keeps the checks' results rather than raising, as the
    # unchecked read did
    sd = subdivision_functor(load_value(spath))
    for rec in doc["homs"]:
        back = hom_from_json(rec["hom"], _sink=_Sink([]))
        assert back.matrix.tobytes() == sd.hom(rec["s"], rec["t"]).matrix.tobytes()
    assert main(["subdivide", "--simplex", spath, "--n", "3"]) == 2
    capsys.readouterr()


def test_cli_extend_k0_with_trace(tmp_path, capsys):
    spath = str(tmp_path / "s.json")
    tpath = tmp_path / "trace.json"
    opath = str(tmp_path / "k0.json")
    assert main(["make", "simplex", "--n", "2", "--out", spath]) == 0
    assert (
        main(
            [
                "extend",
                "--simplex",
                spath,
                "--functor",
                "k0",
                "--target",
                "k0nerve",
                "--trace",
                str(tpath),
                "--out",
                opath,
            ]
        )
        == 0
    )
    trace = json.loads(tpath.read_text())
    shape = [(tuple(e["horn"]), e["kind"]) for e in trace["fills"]]
    assert shape == [((3, 2), "inner")] * 3 + [((3, 3), "special")]
    doc = json.loads((tmp_path / "k0.json").read_text())
    assert set(doc) == {"ranks", "edges"}
    capsys.readouterr()


# the trace files of ``make simplex --n 2 --seed 3`` (with --twist for k0)
EXTEND_TRACE = (
    '{"simplex_dim": 2, "fills": ['
    '{"chain": "(0, 1, {0,1}, {0,1,2})", "horn": [3, 2], "kind": "inner", "guided": false}, '
    '{"chain": "(0, 2, {0,2}, {0,1,2})", "horn": [3, 2], "kind": "inner", "guided": false}, '
    '{"chain": "(1, 2, {1,2}, {0,1,2})", "horn": [3, 2], "kind": "inner", "guided": false}, '
    '{"chain": "(0, 1, 2, {0,1,2})", "horn": [3, 3], "kind": "special", "guided": false}]}\n'
)


@pytest.mark.parametrize(
    "functor, target, twist",
    [("k0", "k0nerve", ["--twist"]), ("gamma", "ncorr", [])],
)
def test_cli_extend_trace_file_is_byte_stable(tmp_path, functor, target, twist):
    """ext.trace is written as the engine keeps it: its horn tuples print as
    lists, and the keys keep their order."""
    spath, tpath = str(tmp_path / "s.json"), tmp_path / "trace.json"
    assert run_cli(["make", "simplex", "--n", "2", "--seed", "3", "--out", spath, *twist])[0] == 0
    argv = ["extend", "--simplex", spath, "--functor", functor, "--target", target]
    assert run_cli(argv + ["--trace", str(tpath), "--out", str(tmp_path / "top.json")])[0] == 0
    assert tpath.read_bytes() == EXTEND_TRACE.encode()


def test_cli_extend_gamma_guided(tmp_path, capsys):
    rng = np.random.default_rng(8)
    sig = gamma_simplex(random_chain(rng, 2, max_mult=1))
    spath = tmp_path / "g.json"
    dump_value(sig, spath)
    opath = tmp_path / "out.json"
    assert (
        main(
            [
                "extend",
                "--simplex",
                str(spath),
                "--functor",
                "gamma",
                "--target",
                "ncorr",
                "--guided",
                "--out",
                str(opath),
            ]
        )
        == 0
    )
    back = load_value(opath)
    assert simplex_close(back, sig)
    capsys.readouterr()
    # mismatched functor and target is a usage error
    assert (
        main(["extend", "--simplex", str(spath), "--functor", "k0", "--target", "ncorr"])
        == 2
    )


def _public_docs(command, path):
    """The document a command writes, built independently of the CLI from
    the public list writers."""
    if command == "make":
        return simplex_to_json(random_simplex(np.random.default_rng(7), 2, twist=True, max_mult=1))
    value = load_value(path)
    if command == "gamma":
        return corr_to_json(gamma_of_hom(value))
    if command == "morita":
        w = equivalence_inverse(value)
        return {
            "inverse": corr_to_json(w.inverse),
            "counit_left": iso_to_json(w.counit_left),
            "counit_right": iso_to_json(w.counit_right),
        }
    if command == "fill":
        return simplex_to_json(fill_inner_horn(value))
    if command == "subdivide":
        sd = subdivision_functor(value)
        return {
            "vertices": [list(a) for a in sd.subsets],
            "algebras": [algebra_to_json(sd.algebra(a)) for a in sd.subsets],
            "homs": [
                {"s": list(a), "t": list(b), "hom": hom_to_json(sd.hom(a, b))}
                for a in sd.subsets
                for b in sd.subsets
                if set(a) <= set(b)
            ],
        }
    ext = extend_bar_G(value, gamma_functor(), NCorrOracle(), {})
    return simplex_to_json(ext.top())


DIFF_CASES = [
    ("make", ["--seed", "7", "make", "simplex", "--n", "2", "--twist"]),
    ("gamma", ["gamma", "--hom", "{path}"]),
    ("morita", ["morita", "--module", "{path}"]),
    ("fill", ["fill", "--horn", "{path}"]),
    ("subdivide", ["subdivide", "--simplex", "{path}"]),
    ("extend", ["extend", "--simplex", "{path}", "--functor", "gamma", "--target", "ncorr", "--guided"]),
]


@pytest.mark.parametrize("command,argv", DIFF_CASES, ids=[c[0] for c in DIFF_CASES])
def test_cli_output_is_json_dumps_of_the_public_documents(tmp_path, capsys, command, argv):
    """Every output the CLI writes is byte for byte json.dumps of the same
    value's public list documents, on stdout and through --out."""
    rng = np.random.default_rng(11)
    s = random_simplex(rng, 2, twist=True, max_mult=1)
    inputs = {
        "gamma": random_unital_hom(random_algebra(rng, max_blocks=2, max_size=2), rng),
        "morita": random_equivalence(random_algebra(rng, max_blocks=2, max_size=2), rng),
        "fill": HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)}),
        "subdivide": s,
        "extend": gamma_simplex(random_chain(rng, 2, max_mult=1)),
    }
    path = tmp_path / "in.json"
    if command in inputs:
        dump_value(inputs[command], path)
    argv = [a.format(path=path) for a in argv]
    want = json.dumps(_public_docs(command, path)) + "\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == want


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_cli_unwritable_output_path_is_a_usage_error(tmp_path, capsys, flag, target):
    spath = str(tmp_path / "s.json")
    assert main(["make", "simplex", "--n", "2", "--out", spath]) == 0
    bad = str(tmp_path if target == "directory" else tmp_path / "missing" / "x.json")
    if flag == "--out":
        argv = ["make", "algebra", "--blocks", "2", "--out", bad]
    else:
        argv = ["extend", "--simplex", spath, "--functor", "k0", "--target", "k0nerve", "--trace", bad]
    assert main(argv) == 2
    assert f"error: {bad}: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def oversized_simplex(tmp_path_factory):
    """A 3-simplex within the parse cap, A_3 = M_16 and every edge into
    vertex 3 of multiplicity 16: its subdivision algebras reach M_64, and
    its dense connecting homs would take 1.4 GiB."""
    one, big = make_algebra((1,)), make_algebra((16,))
    chain = [
        embedding_hom(one, one, np.array([[1]])),
        embedding_hom(one, one, np.array([[1]])),
        embedding_hom(one, big, np.array([[16]])),
    ]
    path = tmp_path_factory.mktemp("oversized") / "s.json"
    dump_value(gamma_simplex(chain), path)
    return str(path)


@pytest.mark.parametrize("command", ["subdivide", "extend-k0"])
def test_cli_bounds_the_subdivision_before_building(oversized_simplex, capsys, monkeypatch, command):
    from corrlab import subdivision

    built = []
    # the builders of the prefix homs, from which every other hom is cut
    monkeypatch.setattr(subdivision, "_isometries", lambda *args: built.append(args))
    monkeypatch.setattr(subdivision, "identity_hom", lambda *args: built.append(args))
    argv = ["subdivide", "--simplex", oversized_simplex]
    if command == "extend-k0":
        argv = ["extend", "--simplex", oversized_simplex, "--functor", "k0", "--target", "k0nerve"]
    assert main(argv) == 2
    assert "connecting homs would take 1445 MiB, over the bound of 512 MiB" in capsys.readouterr().err
    assert built == []


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 2
    assert main(["validate"]) == 2
    capsys.readouterr()


def run_cli(argv, seconds=None):
    """(exit code, stdout, stderr) of one in-process run: main's return
    value, or the code argparse exits with on a usage error.  Any other
    exception escapes, as it would print a traceback.  ``seconds`` arms an
    alarm, so a run that hangs fails instead of stalling the suite."""

    def hang(signum, frame):
        raise TimeoutError(f"corrlab {argv} still running after {seconds} s")

    out, err = io.StringIO(), io.StringIO()
    old = signal.signal(signal.SIGALRM, hang)
    try:
        if seconds:
            signal.alarm(seconds)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["make", "hom", "--max-mult", "0"],
        ["make", "hom", "--max-mult", "-1"],
        ["make", "simplex", "--n", "2", "--max-mult", "0"],
        ["make", "corr", "--max-mult", "0"],
        ["make", "simplex", "--n", "0"],
        ["make", "simplex", "--n", "-1"],
        ["make", "algebra", "--blocks", "0"],
        ["make", "algebra", "--blocks", "-1"],
        ["make", "algebra", "--blocks", "2,0"],
    ],
)
def test_cli_make_refuses_sizes_below_one(argv):
    """--max-mult 0 made the generators redraw an all-zero column forever
    and -1 crashed in numpy; --n 0 and -1 failed deep in the build; a block
    size below 1 was refused by the algebra, as a validation error (1)."""
    code, out, err = run_cli(argv, seconds=5)
    assert code == 2 and out == ""
    assert "must be finite and > 0" in err


def test_generators_refuse_max_mult_below_one():
    rng = np.random.default_rng(0)
    a = make_algebra((2, 1))
    for max_mult in (0, -1):
        with pytest.raises(ShapeMismatch):
            random_unital_hom(a, rng, max_mult=max_mult)
        with pytest.raises(ShapeMismatch):
            random_correspondence(a, a, rng, max_mult=max_mult)
        with pytest.raises(ShapeMismatch):
            random_simplex(rng, 2, max_mult=max_mult)


def test_cli_make_corr_passes_max_mult_through():
    """The default of 1 is the generator's default, so the output is what it
    was before the flag reached the generator."""
    texts = []
    for max_mult in (1, 2):
        rng = np.random.default_rng(5)
        src, dst = random_algebra(rng), random_algebra(rng)
        corr = random_correspondence(src, dst, rng, max_mult=max_mult)
        code, out, _ = run_cli(["make", "corr", "--seed", "5", "--max-mult", str(max_mult)])
        assert code == 0 and out == _json_text(corr_to_json(corr)) + "\n"
        texts.append(out)
    assert run_cli(["make", "corr", "--seed", "5"])[1] == texts[0] != texts[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["make", "simplex", "--n", "3", "--max-mult", "2", "--seed", "1"],
        ["make", "hom", "--max-mult", "40"],
        ["make", "corr", "--max-mult", "40"],
    ],
)
def test_cli_make_refuses_what_a_load_would_refuse(tmp_path, argv):
    """make simplex --n 3 --max-mult 2 --seed 1 drew algebras of dimension
    320 and 3,328, and took about 15 s and 1.9 GB to write a file that
    validate refuses.  The generators now raise the loader's
    DimensionTooLarge, with its exit code, as soon as the sizes are drawn."""
    path = tmp_path / "x.json"
    code, out, err = run_cli(argv + ["--out", str(path)], seconds=5)
    assert code == 2 and out == "" and not path.exists()
    assert "exceeds 256 dimensions" in err
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"blocks": [16, 1]}))
    assert run_cli(["validate", str(big)])[0] == code


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 42])
def test_cli_make_size_guard_draws_nothing(seed):
    """Under the bound, make writes what the generators draw without it:
    the guard reads sizes already drawn and takes nothing from the rng."""

    def made(*argv):
        code, out, _ = run_cli(["make", *argv, "--seed", str(seed)], seconds=20)
        assert code == 0
        return out

    def text(doc):
        return _json_text(doc) + "\n"

    rng = np.random.default_rng(seed)
    assert made("simplex") == text(simplex_to_json(random_simplex(rng, 2, max_mult=1)))
    rng = np.random.default_rng(seed)
    sigma = random_simplex(rng, 3, twist=True, max_mult=1)
    assert made("simplex", "--n", "3", "--twist") == text(simplex_to_json(sigma))
    rng = np.random.default_rng(seed)
    phi = random_unital_hom(random_algebra(rng), rng, max_mult=1)
    assert made("hom") == text(hom_to_json(phi))


def bad_edge_files(tmp_path, a, good, bad):
    """Files holding the left action ``bad`` of A -> M_2 on C^{2 x 1} where
    the *-hom ``good`` was: a correspondence file, edge (1, 2) of the
    2-simplex (id_A, good, id_A (x) good) and the edge of face 0 of its
    (2, 1)-horn.  Where ``bad`` has the traced multiplicities of ``good``,
    the simplex is valid but for that edge: its product with edge (0, 1)
    reads only the multiplicities, so the cell still starts there."""
    module = make_module(make_algebra((1,)), (2,))
    e12 = make_correspondence(a, module, good)
    e02 = tensor_corrs(identity_corr(a), e12).corr
    s = make_simplex([a, a, e12.dst], {(0, 1): identity_corr(a), (1, 2): e12, (0, 2): e02},
                     {(0, 1, 2): identity_iso(e02)})
    docs = {
        "corr": value_to_json(e12),
        "simplex": value_to_json(s),
        "horn": value_to_json(HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)})),
    }
    [edge] = [e["corr"] for e in docs["simplex"]["edges"] if (e["i"], e["j"]) == (1, 2)]
    [face0] = [f["simplex"] for f in docs["horn"]["faces"] if f["j"] == 0]
    for corr in (docs["corr"], edge, face0["edges"][0]["corr"]):
        corr["left_action"]["matrix"] = matrix_to_json(bad)
    paths = {kind: tmp_path / f"{kind}.json" for kind in docs}
    for kind, doc in docs.items():
        paths[kind].write_text(json.dumps(doc))
    return paths


def test_cli_refuses_a_left_action_of_the_wrong_rank(tmp_path):
    """lambda(e^(j)_11) = diag(1/2, 1/2) on C (+) C (test_modules.half_action:
    traces 1, rank 2) in place of e^(j)_11 -> e_jj.  The tensor frame no
    longer checks its ranks; the per-edge action check of validate and the
    checking load of every other command refuse such an action instead,
    with exit 1 and no traceback."""
    from test_modules import half_action

    a, _, half = half_action()
    good = np.zeros((4, 2), dtype=complex)
    good[0, 0] = good[3, 1] = 1.0
    paths = bad_edge_files(tmp_path, a, good, half)
    for kind, path in paths.items():
        code, out, err = run_cli(["validate", str(path)])
        assert code == 1 and "left action is a star-hom: FAIL" in out, kind
        assert "all invariants pass" not in out
    loads = [
        ["fill", "--horn", str(paths["horn"])],
        ["subdivide", "--simplex", str(paths["simplex"])],
        ["extend", "--simplex", str(paths["simplex"]), "--functor", "k0", "--target", "k0nerve"],
        ["extend", "--simplex", str(paths["simplex"]), "--functor", "gamma", "--target", "ncorr"],
    ]
    for argv in loads:
        code, out, err = run_cli(argv)
        assert code == 1 and out == "" and err.startswith("validation error: fails"), argv


def test_cli_refuses_a_negative_trace_before_any_product(tmp_path):
    """Traces (2, 1, -1) on C (+) C (+) C sum to a unital action, but -1 is
    no rank: the unchecked parse refuses it (exit 1) before the simplex
    parse builds a product on it, whose frame takes the traces as ranks."""
    a = make_algebra((1, 1, 1))
    good = np.zeros((4, 3), dtype=complex)
    good[0, 0] = good[3, 1] = 1.0  # traces (1, 1, 0)
    bad = np.zeros((4, 3), dtype=complex)
    bad[0, 0] = bad[3, 0] = bad[0, 1] = 1.0
    bad[3, 2] = -1.0
    for kind, path in bad_edge_files(tmp_path, a, good, bad).items():
        code, out, err = run_cli(["validate", str(path)])
        assert code == 1 and "not a rank in its block" in err, kind


def noisy_simplex(path):
    """Write random_simplex(default_rng(3), 3, max_blocks=2, max_size=2,
    max_mult=1) to path with 1e-8 N(0, 1) (default_rng(0)) added to the real
    part of every left-action entry: its edges are correspondences within
    1e-6, not within 1e-9; return the clean simplex."""
    s = random_simplex(np.random.default_rng(3), 3, max_blocks=2, max_size=2, max_mult=1)
    doc = value_to_json(s)
    rng = np.random.default_rng(0)
    for edge in doc["edges"]:
        for entry in edge["corr"]["left_action"]["matrix"]:
            entry[0] += 1e-8 * rng.standard_normal()
    path.write_text(json.dumps(doc))
    return s


def test_cli_eps_reaches_every_command_on_a_noisy_simplex(tmp_path):
    """--eps is the one tolerance: the frames that subdivide and extend
    build take their ranks from the traced multiplicities, so a file that
    validates at --eps 1e-6 subdivides and extends there too, to the clean
    simplex's K0 integers; at the default eps all three refuse it at the
    checks, with the messages those checks give."""
    path = tmp_path / "noisy.json"
    s = noisy_simplex(path)
    argvs = {
        "validate": ["validate", str(path)],
        "subdivide": ["subdivide", "--simplex", str(path)],
        "extend": ["extend", "--simplex", str(path), "--functor", "k0", "--target", "k0nerve"],
    }
    for name, argv in argvs.items():
        code, out, err = run_cli(["--eps", "1e-6"] + argv)
        assert (code, err) == (0, ""), name
    got = {(e["i"], e["j"]): e["matrix"] for e in json.loads(out)["edges"]}
    assert got == {key: k0_of_corr(e).tolist() for key, e in s.edges.items()}
    refusal = "fails v_a P = v_a in source block 1, unit a = 0"
    for name, argv in argvs.items():
        code, out, err = run_cli(argv)
        if name == "validate":  # a FAIL line per edge the load would refuse
            assert code == 1 and err == "", name
            first = next(line for line in out.splitlines() if ": FAIL" in line)
            assert first.startswith("edge (0, 1) left action is a star-hom: FAIL (" + refusal)
        else:
            assert code == 1 and out == "" and err.startswith("validation error: " + refusal), name


def noisy_horn(path, seed, k, j):
    """Write the (3, k)-horn of random_simplex(default_rng(seed), 3,
    max_blocks=2, max_size=2, max_mult=1) to path with 1e-8 N(0, 1)
    (default_rng(0)) added to the real part of every left-action entry of
    face j's edges: the faces agree within 1e-6, not within 1e-9."""
    s = random_simplex(np.random.default_rng(seed), 3, max_blocks=2, max_size=2, max_mult=1)
    doc = value_to_json(HornSpec(3, k, {i: face(s, i) for i in range(4) if i != k}))
    rng = np.random.default_rng(0)
    rec = next(f for f in doc["faces"] if f["j"] == j)
    for edge in rec["simplex"]["edges"]:
        for entry in edge["corr"]["left_action"]["matrix"]:
            entry[0] += 1e-8 * rng.standard_normal()
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_cli_eps_reaches_fill_on_a_horn_whose_faces_disagree(tmp_path, seed, k):
    """--eps is the one tolerance of a fill: a horn whose faces disagree by
    about 1e-8 validates and fills at --eps 1e-6, whichever face carries the
    noise, since every endpoint the fill checks (the merge, the solved
    cell, the pentagon's factors) is checked at that eps.  At the default
    eps fill refuses it at load, with the load's message, and validate
    prints that message in its first FAIL line."""
    for j in (x for x in range(4) if x != k):
        path = tmp_path / f"horn-{j}.json"
        noisy_horn(path, seed, k, j)
        with pytest.raises(CorrLabError) as refused:
            load_value(path)
        for argv in (["validate", str(path)], ["fill", "--horn", str(path)]):
            code, out, err = run_cli(["--eps", "1e-6"] + argv)
            assert (code, err) == (0, ""), (j, argv[0])
            code, out, err = run_cli(argv)
            if argv[0] == "fill":
                assert (code, out, err) == (1, "", f"validation error: {refused.value}\n"), j
            else:
                assert (code, err) == (1, ""), j
                first = next(line for line in out.splitlines() if ": FAIL" in line)
                assert f"FAIL ({refused.value})" in first, j


def test_cli_refuses_a_simplex_whose_algebras_are_swapped(tmp_path):
    """A 1-simplex file whose ``algebras`` list is reversed parses (its edge
    record names its own endpoints), and the simplex check refuses it:
    validate with a FAIL line after its edge checks, subdivide and extend at
    load."""
    s = random_simplex(np.random.default_rng(2), 1, max_blocks=2, max_size=2, max_mult=1)
    assert s.algebras[0] != s.algebras[1]
    doc = value_to_json(s)
    doc["algebras"].reverse()
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    argvs = [
        ["validate", str(path)],
        ["subdivide", "--simplex", str(path)],
        ["extend", "--simplex", str(path), "--functor", "k0", "--target", "k0nerve"],
        ["extend", "--simplex", str(path), "--functor", "gamma", "--target", "ncorr"],
    ]
    for argv in argvs:
        code, out, err = run_cli(argv)
        if argv[0] == "validate":
            assert (code, err) == (1, "")
            assert out.splitlines() == [
                "parsed: NCorrSimplex",
                "edge (0, 1) left action is a star-hom: ok",
                "simplex: FAIL (edge (0, 1) endpoints disagree)",
                "validation failed",
            ]
        else:
            assert (code, err) == (1, "validation error: edge (0, 1) endpoints disagree\n"), argv[0]
            assert out == "", argv[0]


def test_cli_validate_reports_every_face_of_a_horn_after_a_failing_one(tmp_path):
    """A horn whose face 0 fails its simplex check still has face 1 checked
    and printed; validate then fails with exit 1 and nothing on stderr."""
    s = random_simplex(np.random.default_rng(2), 2, max_blocks=2, max_size=2, max_mult=1)
    assert s.algebras[1] != s.algebras[2]
    doc = value_to_json(HornSpec(2, 2, {0: face(s, 0), 1: face(s, 1)}))
    doc["faces"][0]["simplex"]["algebras"].reverse()
    path = tmp_path / "horn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "parsed: HornSpec",
        "face 0:",
        "edge (0, 1) left action is a star-hom: ok",
        "simplex: FAIL (edge (0, 1) endpoints disagree)",
        "face 1:",
        "edge (0, 1) left action is a star-hom: ok",
        "pentagon: ok (residual 0.000e+00)",
        "validation failed",
    ]


def _horn_doc(s):
    return value_to_json(HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)}))


@pytest.mark.parametrize(
    "part,doc_of,error",
    [
        ("edges", value_to_json, "ncorr_simplex.edges[3]: repeats (0, 1)"),
        ("cells", value_to_json, "ncorr_simplex.cells[1]: repeats (0, 1, 2)"),
        ("faces", _horn_doc, "horn.faces[2]: repeats face 0"),
    ],
    ids=["edge", "cell", "face"],
)
def test_cli_refuses_a_repeated_record(tmp_path, part, doc_of, error):
    """A simplex file that lists an edge or a cell twice, or a horn file that
    lists a face twice, is refused where the repeat stands (exit 2); the
    last record used to win silently."""
    s = random_simplex(np.random.default_rng(9), 2, max_mult=1)
    doc = doc_of(s)
    doc[part].append(copy.deepcopy(doc[part][0]))
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc))
    load = ["fill", "--horn"] if part == "faces" else ["subdivide", "--simplex"]
    for argv in (["validate", str(path)], load + [str(path)]):
        assert run_cli(argv) == (2, "", f"error: {error}\n"), argv[0]


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-400"])
def test_cli_refuses_an_eps_that_is_not_finite_and_positive(tmp_path, eps):
    """--eps inf passed validate's star-hom checks and then failed a rank
    check; --eps -1 ran the sweeps into numpy RuntimeWarnings."""
    path = str(tmp_path / "s.json")
    assert run_cli(["make", "simplex", "--out", path])[0] == 0
    for argv in (
        [f"--eps={eps}", "validate", path],
        ["validate", path, f"--eps={eps}"],
        [f"--eps={eps}", "selftest", "--suite", "gamma-mult"],
    ):
        code, out, err = run_cli(argv, seconds=5)
        assert code == 2 and out == "", argv
        assert "argument --eps" in err
    assert run_cli(["--eps=1e-6", "validate", path])[0] == 0


def test_cli_selftest_single_suite(tmp_path, capsys):
    rpath = tmp_path / "report.json"
    assert main(["selftest", "--suite", "csd-combinatorics", "--out", str(rpath)]) == 0
    doc = json.loads(rpath.read_text())
    assert doc["ok"] is True
    assert [s["suite"] for s in doc["suites"]] == ["csd-combinatorics"]
    err = capsys.readouterr().err
    assert "csd-combinatorics" in err


@pytest.mark.parametrize("order", ["C", "F"])
@settings(max_examples=30)
@given(drawn=hnp.arrays(
    complex,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
    elements=st.complex_numbers(allow_nan=True, allow_infinity=True),
))
def test_matrix_to_json_matches_the_entry_loop(order, drawn):
    """matrix_to_json prints the text the per-entry loop printed, and the
    text writer prints exactly that text: signed zeros, real input, both
    memory layouts, non-finite and subnormal entries, the exponent edges of
    float repr, an empty matrix and a drawn one included."""
    rng = np.random.default_rng(8)
    m = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    m[0, 0], m[1, 1], m[2, 2] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)
    m[3] = [complex(np.nan, np.inf), complex(-np.inf, 5e-324), complex(1e16, 1e-5)]
    m[4, 0] = complex(-1e16, -1e-5)
    for x in (m, m.real, m[:, ::2], np.zeros((0, 4)), drawn):
        x = np.array(x, order=order)
        old = [[float(z.real), float(z.imag)] for z in np.asarray(x, dtype=complex).ravel(order="C")]
        text = json.dumps(matrix_to_json(x))
        assert text == json.dumps(old)
        assert _json_text(x) == text
        assert _json_text({"matrix": x}) == json.dumps({"matrix": matrix_to_json(x)})


# mostly (+0.0, +0.0), so that runs of zeros lead, trail and fill arrays
_SPECIAL = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.nan, -np.inf), complex(np.inf, 5e-324)]
_ENTRIES = st.one_of(
    st.just(0j), st.just(0j), st.sampled_from(_SPECIAL),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=60)
@given(drawn=st.lists(st.tuples(
    hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
               elements=_ENTRIES),
    st.booleans(),
    st.sampled_from("CF"),
), max_size=6))
@example(drawn=[(np.zeros((0, 2)), False, "C"), (np.zeros((2, 2)), True, "F"),
                (np.array([[0, -0.0], [0, 1]]), True, "C"), (np.zeros((1, 3)), False, "F"),
                (np.array([[np.nan, 0], [0, 0]], dtype=complex), False, "F"),
                (np.zeros((0, 0)), False, "C")])
def test_the_text_writer_writes_a_document_of_several_arrays(drawn):
    """Several arrays in one document, their entries printed once per
    document: empty and all-zero arrays, zeros leading, trailing and
    between arrays, signed zeros, non-finite and subnormal entries, real
    and Fortran-ordered input."""
    arrays = [np.array(x.real if real else x, order=order) for x, real, order in drawn]
    doc = {"m": arrays, "k": 2, "s": ["x", {"m": arrays[:1]}]}
    assert _json_text(doc) == json.dumps(_lists(doc))


@pytest.fixture(scope="module")
def subdivide_doc(tmp_path_factory):
    """The document ``subdivide`` writes for a twisted 3-simplex."""
    from corrlab import cli

    path = str(tmp_path_factory.mktemp("sd") / "s.json")
    dump_value(random_simplex(np.random.default_rng(7), 3, twist=True, max_mult=1), path)
    docs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit", lambda doc, out: docs.append(doc))
        assert main(["subdivide", "--simplex", path]) == 0
    return docs[0]


def test_the_text_writer_writes_a_subdivide_document(subdivide_doc):
    assert _json_text(subdivide_doc) == json.dumps(_lists(subdivide_doc))


def test_the_text_writer_peaks_within_two_and_a_half_times_its_text(subdivide_doc):
    """Runs of zeros are shared strings, so the writer holds little beyond
    the text it returns."""
    tracemalloc.start()
    try:
        text = _json_text(subdivide_doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), (peak, len(text))


def test_an_out_file_is_written_without_a_copy_of_its_text(tmp_path, monkeypatch):
    """--out encodes its text a slice at a time, so writing 8 MiB holds about
    two slices beyond the text (a whole copy before), and the file is the
    text and a newline, byte for byte."""
    from corrlab import cli

    text = "[0.0, 0.0], " * ((8 << 20) // 12) + "[-0.0, 1e-300]"
    monkeypatch.setattr(cli, "_json_text", lambda doc: text)
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._write(path, None)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert extra <= 3 * cli._WRITE_SLICE < len(text) / 2, (extra, len(text))
    assert path.read_bytes() == (text + "\n").encode()


def test_cli_finds_its_command_per_call(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; the handler is looked up on
    every call, so one rebound between two calls is the one that runs."""
    from corrlab import cli

    apath = str(tmp_path / "a.json")
    assert main(["make", "algebra", "--blocks", "2", "--out", apath]) == 0
    assert main(["validate", apath]) == 0
    seen = []

    def patched(args):
        seen.append(args.path)
        return 1

    monkeypatch.setattr(cli, "cmd_validate", patched)
    assert main(["validate", apath]) == 1
    assert seen == [apath]
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# a bounded fuzzer: mutated files never escape the exit-code contract


@functools.cache
def fuzz_bases():
    """Valid algebra, hom, correspondence, simplex and horn documents."""
    rng = np.random.default_rng(11)
    a = random_algebra(rng, max_blocks=2, max_size=2)
    b = random_algebra(rng, max_blocks=2, max_size=2)
    s = random_simplex(rng, 2, twist=True, max_mult=1)
    horn = HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)})
    values = [a, random_unital_hom(a, rng), random_correspondence(a, b, rng), s, horn]
    return [json.loads(_json_text(value_to_json(v))) for v in values]


def paths(doc, prefix=()):
    """Every path to a value inside doc, as a tuple of keys and indices."""
    out = [prefix]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out += paths(value, prefix + (key,))
    return out


REPLACEMENTS = [True, False, float("nan"), 2**70, "x", [], {}]


@st.composite
def mutated_files(draw):
    """A valid document with one key dropped or one value replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(fuzz_bases())))
    path = draw(st.sampled_from(paths(doc)[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return json.dumps(doc).encode()


FUZZ_ARGV = [
    ["validate"],
    ["gamma", "--hom"],
    ["morita", "--module"],
    ["fill", "--horn"],
    ["subdivide", "--simplex"],
    ["extend", "--functor", "k0", "--target", "k0nerve", "--simplex"],
]


@settings(max_examples=500)
@given(text=mutated_files())
@example(text=DEEP_JSON)
@example(text=NOT_UTF8)
@example(text=HUGE_TRACE_HOM)
def test_cli_exit_code_contract_on_mutated_files(text):
    """Each command returns 0, 1 or 2 on a mutated file and raises nothing."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.json")
        with open(path, "wb") as f:
            f.write(text)
        for argv in FUZZ_ARGV:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + [path])
            assert code in (0, 1, 2), (argv, code)


# ---------------------------------------------------------------------------
# a bounded fuzzer: flag values never escape the exit-code contract


@functools.cache
def fuzz_simplex_file():
    """One small valid simplex file, written once per process."""
    path = os.path.join(tempfile.mkdtemp(), "s.json")
    assert run_cli(["make", "simplex", "--out", path])[0] == 0
    return path


EPS_TEXT = st.floats().map(repr)  # finite, +-inf, NaN, zero and negative values


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["algebra", "hom", "corr", "simplex", "validate"]),
    eps=st.one_of(st.none(), EPS_TEXT),
    max_mult=st.integers(-1, 2),
    n=st.sampled_from([-1, 0, 1, 2, 3, 5]),
    blocks=st.one_of(st.none(), st.text(max_size=4)),
)
def test_cli_exit_code_contract_on_flag_values(kind, eps, max_mult, n, blocks):
    """Each run returns 0, 1 or 2 within its alarm and prints no traceback."""
    argv = [] if eps is None else [f"--eps={eps}"]
    if kind == "validate":
        argv += ["validate", fuzz_simplex_file()]
    else:
        argv += ["make", kind, f"--max-mult={max_mult}", f"--n={n}"]
        argv += [] if blocks is None else [f"--blocks={blocks}"]
    code, _, _ = run_cli(argv, seconds=5)
    assert code in (0, 1, 2), argv


def test_the_text_writer_refuses_a_leaf_json_cannot_write_and_lengthens_its_mark():
    """Array leaves are spliced in at a mark string; a document whose own
    strings hold the mark gets a longer one, and a leaf that is neither
    JSON nor an array is refused as json.dumps refuses it."""
    doc = {"s": "\0", "t": ["\0\0", "x\0"], "m": np.eye(2, dtype=complex)}
    assert _json_text(doc) == json.dumps({**doc, "m": matrix_to_json(doc["m"])})
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        _json_text({"s": {1}})


def test_cli_validates_a_module_and_an_iso_file(tmp_path):
    e = random_correspondence(make_algebra((2, 1)), make_algebra((1, 2)), np.random.default_rng(3))
    mpath, ipath = tmp_path / "m.json", tmp_path / "u.json"
    dump_value(e.module, mpath)
    dump_value(identity_iso(e), ipath)
    code, out, _ = run_cli(["validate", str(mpath)])
    assert code == 0 and out == "parsed: HilbertModule\nmodule shape: ok\nall invariants pass\n"
    code, out, _ = run_cli(["validate", str(ipath)])
    assert code == 0 and out.splitlines() == [
        "parsed: CorrIso",
        "src left action is a star-hom: ok",
        "dst left action is a star-hom: ok",
        "right-linear: ok (residual 0.000e+00)",
        "unitary: ok (residual 0.000e+00)",
        "intertwining: ok (residual 0.000e+00)",
        "all invariants pass",
    ]


CORNER_OF_M2 = [[1, 0]] + [[0, 0]] * 3  # C into M_2 as E_00: not unital


@pytest.mark.parametrize(
    "doc,commands,message",
    [
        ({"base": {"blocks": [2, 1]}, "mult": [1]}, [["validate"]], "one multiplicity per base block required"),
        ({"base": {"blocks": [2]}, "mult": [-1]}, [["validate"]], "multiplicities must be >= 0, got (-1,)"),
        (
            {"src": {"blocks": [1]}, "dst": {"blocks": [1]}, "mult": [2],
             "left_action": {"src": {"blocks": [1]}, "dst": {"blocks": [2]}, "matrix": CORNER_OF_M2}},
            [["validate"], ["morita", "--module"]],
            "left action must be unital on the compacts",
        ),
        (
            {"src": {"blocks": [1]}, "dst": {"blocks": [2]}, "matrix": [[0, 0]] * 4},
            [["gamma", "--hom"]],
            "the zero homomorphism has no correspondence",
        ),
    ],
    ids=["module-length", "module-negative", "action-not-unital", "zero-hom"],
)
def test_cli_refuses_a_module_an_action_or_a_hom_with_no_correspondence(tmp_path, doc, commands, message):
    """A multiplicity list off the base, a left action that does not fill
    the module (parsed unchecked by validate, checked by morita), and the
    zero hom, which has no correspondence, are validation failures (exit 1)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in commands:
        assert run_cli(command + [str(path)]) == (1, "", f"validation error: {message}\n"), command


def test_validate_checks_a_correspondence_by_its_left_action(tmp_path):
    """A correspondence has one check line, its left action's.  An action
    that is not unital is refused as the file parses (Correspondence), so no
    unital line could print FAIL: C into M_2 as E_00 exits 1 with only the
    refusal on stderr ([action-not-unital] above), and C into M_2 as the
    unit prints the one line."""
    unit_of_m2 = [[1, 0], [0, 0], [0, 0], [1, 0]]
    doc = {"src": {"blocks": [1]}, "dst": {"blocks": [1]}, "mult": [2],
           "left_action": {"src": {"blocks": [1]}, "dst": {"blocks": [2]}, "matrix": unit_of_m2}}
    path = tmp_path / "corr.json"
    path.write_text(json.dumps(doc))
    report = "parsed: Correspondence\nleft action is a star-hom: ok\nall invariants pass\n"
    assert run_cli(["validate", str(path)]) == (0, report, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["make", "hom", "--src", "{simplex}"],
        ["make", "corr", "--src", "{simplex}"],
        ["make", "corr", "--dst", "{simplex}"],
        ["gamma", "--hom", "{algebra}"],
        ["morita", "--module", "{algebra}"],
        ["fill", "--horn", "{simplex}"],
        ["subdivide", "--simplex", "{algebra}"],
        ["extend", "--simplex", "{algebra}", "--functor", "k0", "--target", "k0nerve"],
    ],
)
def test_cli_refuses_a_file_of_the_wrong_kind(tmp_path, argv):
    paths = {"simplex": tmp_path / "s.json", "algebra": tmp_path / "a.json"}
    dump_value(random_simplex(np.random.default_rng(0), 1, max_mult=1), paths["simplex"])
    dump_value(make_algebra((2,)), paths["algebra"])
    argv = [x.format(**paths) for x in argv]
    path = next(x for x in argv if x.endswith(".json"))
    code, out, err = run_cli(argv)
    assert code == 2 and out == "" and err.startswith(f"error: {path}: expected a")


def test_cli_fill_refuses_an_initial_outer_horn(tmp_path):
    s = random_simplex(np.random.default_rng(9), 2, max_mult=1)
    path = tmp_path / "horn.json"
    dump_value(HornSpec(2, 0, {1: face(s, 1), 2: face(s, 2)}), path)
    assert run_cli(["fill", "--horn", str(path)]) == (
        2, "", "error: only inner horns and final-vertex outer horns can be filled\n"
    )


def test_cli_selftest_refuses_an_unknown_suite():
    code, out, err = run_cli(["selftest", "--suite", "csd-combinatorics", "--suite", "no-such-suite"])
    assert code == 2 and out == "" and err.startswith("error: unknown suite 'no-such-suite'")


@pytest.mark.filterwarnings("ignore:'corrlab.cli' found in sys.modules:RuntimeWarning")
def test_the_cli_module_runs_as_a_script(monkeypatch, capsys):
    """python -m corrlab.cli runs main on the command line and exits with its code."""
    monkeypatch.setattr(sys, "argv", ["corrlab", "make", "algebra", "--blocks", "2,1"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("corrlab.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert json.loads(capsys.readouterr().out) == {"blocks": [2, 1], "label": ""}

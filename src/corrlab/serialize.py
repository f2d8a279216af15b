"""JSON records for every constructible value.

One schema per value kind, recognised by its keys:

  algebra         {"blocks": [2, 1], "label": "A"}
  star_hom        {"src": algebra, "dst": algebra, "matrix": [[re, im], ...]}
  module          {"base": algebra, "mult": [3, 0]}
  correspondence  {"src": algebra, "dst": algebra, "mult": [...],
                   "left_action": star_hom}
  iso             {"src": correspondence, "dst": correspondence,
                   "unitary": [[re, im], ...]}
  ncorr_simplex   {"algebras": [...], "edges": [{"i", "j", "corr"}, ...],
                   "cells": [{"i", "j", "k", "unitary"}, ...]}
  horn            {"n": 3, "k": 2, "faces": [{"j", "simplex"}, ...]}

Complex numbers are [re, im] pairs.  Matrices are flat row-major lists of
such pairs; their shapes are implied by the endpoint records, so shapes are
checked, never stored.  Simplex records carry only the strict data (i < j
edges, i < j < k cells), which is all an NCorrSimplex stores: its identity
edges and unit cells are derived from the unitors.  The tensor-product
presentations are recomputed on parse, which is safe because that
construction is deterministic.

Each schema is written by one function, which builds the document with its
matrices as arrays; the public ``*_to_json`` and ``value_to_json`` return
that document with each matrix as ``matrix_to_json`` lists, and a public
writer of a schema with matrices keeps the function as ``.doc``.  Every JSON text corrlab writes (each
CLI output) comes from one writer, ``_json_text``, and is
byte-identical to ``json.dumps`` of the public list document.  The writer
leaves dicts, ints and strings to ``json.dumps`` and writes each matrix in
bulk: every distinct float bit pattern is printed once, by the json encoder
itself (so ``-0.0``, ``NaN`` and ``Infinity`` print as json prints them),
and the entries are joined in one pass.

Malformed JSON, including text that is not UTF-8 or is nested too deeply
for the parser, raises ParseError; structurally wrong documents (a horn
whose k, faces or face dimensions do not fit its n among them), numbers
that are not finite (NaN, Infinity, integers too large for a float), and
``true`` / ``false`` where a number is expected, raise SchemaError naming
the offending location.  A ``blocks`` or ``mult`` list that describes more
than MAX_PARSED_DIM dimensions raises DimensionTooLarge before anything is
built from it.  Numeric validation is left to the ordinary
constructors; with ``validate=False`` values are built unchecked, for a
caller that checks every invariant itself (``corrlab validate``), save
that a hom's or left action's multiplicities are read off its matrix as
traces, and a trace that is no rank in its block raises NotProjection.
"""
from __future__ import annotations

import functools
import json
from itertools import chain, combinations

import numpy as np

from .algebra import EPS, FdCstarAlgebra, StarHom, _traced_mult, make_algebra, make_star_hom
from .errors import DimensionTooLarge, ParseError, SchemaError, ShapeMismatch
from .modules import (
    CorrIso,
    Correspondence,
    HilbertModule,
    make_correspondence,
    make_iso,
    make_module,
    tensor_corrs,
)
from .nerve import HornSpec, NCorrSimplex, make_simplex

__all__ = [
    "algebra_to_json",
    "algebra_from_json",
    "hom_to_json",
    "hom_from_json",
    "module_to_json",
    "module_from_json",
    "corr_to_json",
    "corr_from_json",
    "iso_to_json",
    "iso_from_json",
    "simplex_to_json",
    "simplex_from_json",
    "horn_to_json",
    "horn_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "detect_schema",
    "value_to_json",
    "value_from_json",
    "load_value",
]


# Bound on sum(n^2) of a parsed ``blocks`` or ``mult`` list: an algebra [n]
# alone gives a simplex an identity hom whose dense view, built on first
# read, is eye(n^2).  The largest in the tests is 61 ([6, 5]), in the
# untrusted-io benchmark 8; 256 also admits the largest algebra of the
# blockscale chain at n = 3, [14, 4] (212).
MAX_PARSED_DIM = 256


def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(doc, key, where) -> list:
    """The list of integers at doc[key], within MAX_PARSED_DIM."""
    val = _need(doc, key, where)
    if not isinstance(val, list) or not all(_is_int(x) for x in val):
        raise SchemaError(f"{where}.{key}: expected a list of integers")
    if sum(x * x for x in val) > MAX_PARSED_DIM:
        raise DimensionTooLarge(
            f"{where}.{key}: describes more than {MAX_PARSED_DIM} dimensions"
        )
    return val


def _need(doc, key, where):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    return doc[key]


def matrix_to_json(m) -> list:
    return np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(-1, 2).tolist()


def _matrix_text(m) -> str:
    """``json.dumps(matrix_to_json(m))``, built from the distinct entries.

    Floats are told apart by their bits, so -0.0 and 0.0 print apart; each
    distinct one is printed once by the json encoder and scattered between
    the separators.  A sort and a search find the distinct bits and each
    entry's place among them (``np.unique`` with its inverse costs several
    times more on the small matrices the CLI writes).
    """
    bits = np.ascontiguousarray(m, dtype=complex).view(np.uint64).ravel()
    if not bits.size:
        return "[]"
    s = np.sort(bits)
    u = s[np.concatenate(([True], s[1:] != s[:-1]))]
    text = np.array(json.dumps(u.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    # "[[" re ", " im "], [" re ", " im ... "]]"
    parts = np.empty(2 * bits.size + 1, dtype=object)
    parts[0::2] = ", "
    parts[0::4] = "], ["
    parts[0], parts[-1] = "[[", "]]"
    parts[1::2] = text[np.searchsorted(u, bits)]
    return "".join(parts.tolist())


def _json_text(doc) -> str:
    """``json.dumps`` of ``doc`` with its array leaves as matrix_to_json
    lists, without building those lists.

    json.dumps writes the rest of the document with a mark string in place
    of each array, and the text is split at the marks.  Like a MIME
    boundary, the mark is lengthened until no string of the document
    reproduces it, that is until there is one mark per array.
    """
    mark = "\0"
    while True:
        arrays = []

        def leaf(x):
            if not isinstance(x, np.ndarray):
                raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
            arrays.append(x)
            return mark

        pieces = json.dumps(doc, default=leaf).split(json.dumps(mark))
        if len(pieces) == len(arrays) + 1:
            break
        mark += "\0"
    return "".join(chain.from_iterable(zip(pieces, map(_matrix_text, arrays)))) + pieces[-1]


def _lists(doc):
    """``doc`` with each array leaf as matrix_to_json lists; the writers
    build plain dicts and lists, so their exact types are tested."""
    kind = type(doc)
    if kind is dict:
        return {k: _lists(v) for k, v in doc.items()}
    if kind is list:
        return [_lists(v) for v in doc]
    if kind is np.ndarray:
        return matrix_to_json(doc)
    return doc


def _writer(doc):
    """The public writer of a schema whose document ``doc`` builds with
    array matrices: it returns plain lists, and keeps ``doc`` as ``.doc``
    for nested documents and the text writer."""

    @functools.wraps(doc)
    def to_json(value) -> dict:
        return _lists(doc(value))

    to_json.doc = doc
    return to_json


_NUMBER = {int, float}  # the types json gives numbers


def matrix_from_json(data, shape, where="matrix") -> np.ndarray:
    """A (rows x cols) complex matrix from a row-major list of [re, im]
    pairs of JSON numbers.  One pass checks the types, then numpy converts
    the whole list at once; each rejection names the first bad entry."""
    rows, cols = shape
    if not isinstance(data, list):
        raise SchemaError(f"{where}: expected a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise SchemaError(f"{where}: expected {rows * cols} entries for shape {rows}x{cols}, got {len(data)}")
    # exact types: true and false load as bool, a subclass of int
    bad = next(
        (
            p
            for p, e in enumerate(data)
            if type(e) is not list
            or len(e) != 2
            or type(e[0]) not in _NUMBER
            or type(e[1]) not in _NUMBER
        ),
        None,
    )
    if bad is not None:
        raise SchemaError(f"{where}[{bad}]: expected an [re, im] pair")
    try:
        out = np.array(data, dtype=np.float64).reshape(rows * cols, 2)
    except OverflowError:
        bad = next(p for p, entry in enumerate(data) if not _fits_float(entry))
        raise SchemaError(f"{where}[{bad}]: number too large for a float") from None
    out = out.view(complex).ravel()
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise SchemaError(f"{where}[{bad[0]}]: expected finite numbers, got {data[bad[0]]}")
    return out.reshape(rows, cols)


def _fits_float(entry) -> bool:
    try:
        float(entry[0]), float(entry[1])
    except OverflowError:
        return False
    return True


def algebra_to_json(a: FdCstarAlgebra) -> dict:
    return {"blocks": list(a.blocks), "label": a.label}


def algebra_from_json(doc, where="algebra") -> FdCstarAlgebra:
    blocks = _int_list(doc, "blocks", where)
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SchemaError(f"{where}.label: expected a string")
    return make_algebra(blocks, label)


@_writer
def hom_to_json(phi: StarHom) -> dict:
    return {
        "src": algebra_to_json(phi.src),
        "dst": algebra_to_json(phi.dst),
        "matrix": phi.matrix,
    }


def hom_from_json(doc, *, eps: float = EPS, validate: bool = True, where="star_hom") -> StarHom:
    src = algebra_from_json(_need(doc, "src", where), f"{where}.src")
    dst = algebra_from_json(_need(doc, "dst", where), f"{where}.dst")
    m = matrix_from_json(_need(doc, "matrix", where), (dst.dim, src.dim), f"{where}.matrix")
    if validate:
        return make_star_hom(src, dst, m, eps=eps)
    return StarHom(src, dst, m, _traced_mult(src, dst, m))


def module_to_json(mod: HilbertModule) -> dict:
    return {"base": algebra_to_json(mod.base), "mult": list(mod.mult)}


def module_from_json(doc, where="module") -> HilbertModule:
    base = algebra_from_json(_need(doc, "base", where), f"{where}.base")
    return make_module(base, _int_list(doc, "mult", where))


@_writer
def corr_to_json(c: Correspondence) -> dict:
    return {
        "src": algebra_to_json(c.src),
        "dst": algebra_to_json(c.dst),
        "mult": list(c.module.mult),
        "left_action": hom_to_json.doc(c.lam),
    }


def corr_from_json(doc, *, eps: float = EPS, validate: bool = True, where="correspondence") -> Correspondence:
    src = algebra_from_json(_need(doc, "src", where), f"{where}.src")
    dst = algebra_from_json(_need(doc, "dst", where), f"{where}.dst")
    module = make_module(dst, _int_list(doc, "mult", where))
    la = _need(doc, "left_action", where)
    la_src = algebra_from_json(_need(la, "src", f"{where}.left_action"), f"{where}.left_action.src")
    if la_src != src:
        raise SchemaError(f"{where}.left_action.src: does not match the correspondence source")
    la_dst = algebra_from_json(_need(la, "dst", f"{where}.left_action"), f"{where}.left_action.dst")
    if la_dst != module.compacts:
        raise SchemaError(f"{where}.left_action.dst: does not match the compacts of the module")
    m = matrix_from_json(
        _need(la, "matrix", f"{where}.left_action"),
        (module.compacts.dim, src.dim),
        f"{where}.left_action.matrix",
    )
    if validate:
        return make_correspondence(src, module, m, eps=eps)
    lam = StarHom(src, module.compacts, m, _traced_mult(src, module.compacts, m))
    return Correspondence(src, module, lam)


@_writer
def iso_to_json(u: CorrIso) -> dict:
    return {
        "src": corr_to_json.doc(u.src),
        "dst": corr_to_json.doc(u.dst),
        "unitary": u.dense(),
    }


def iso_from_json(doc, *, eps: float = EPS, validate: bool = True, where="iso") -> CorrIso:
    src = corr_from_json(_need(doc, "src", where), eps=eps, validate=validate, where=f"{where}.src")
    dst = corr_from_json(_need(doc, "dst", where), eps=eps, validate=validate, where=f"{where}.dst")
    m = matrix_from_json(
        _need(doc, "unitary", where), (dst.module.dim, src.module.dim), f"{where}.unitary"
    )
    return make_iso(src, dst, m, eps=eps)


@_writer
def simplex_to_json(s: NCorrSimplex) -> dict:
    edges = [{"i": i, "j": j, "corr": corr_to_json.doc(e)} for (i, j), e in sorted(s.edges.items())]
    cells = [
        {"i": i, "j": j, "k": k, "unitary": u.dense()}
        for (i, j, k), u in sorted(s.cells.items())
    ]
    return {
        "algebras": [algebra_to_json(a) for a in s.algebras],
        "edges": edges,
        "cells": cells,
    }


def simplex_from_json(doc, *, eps: float = EPS, validate: bool = True, where="ncorr_simplex") -> NCorrSimplex:
    algs = _need(doc, "algebras", where)
    if not isinstance(algs, list) or not algs:
        raise SchemaError(f"{where}.algebras: expected a nonempty list")
    algebras = [algebra_from_json(a, f"{where}.algebras[{i}]") for i, a in enumerate(algs)]
    n = len(algebras) - 1

    edges = {}
    for p, rec in enumerate(_ensure_list(doc, "edges", where)):
        here = f"{where}.edges[{p}]"
        i, j = _index_pair(rec, ("i", "j"), n, here, edges)
        if i >= j:
            raise SchemaError(f"{here}: needs i < j")
        edges[(i, j)] = corr_from_json(
            _need(rec, "corr", here), eps=eps, validate=validate, where=f"{here}.corr"
        )
    missing = [t for t in combinations(range(n + 1), 2) if t not in edges]
    if missing:
        raise SchemaError(f"{where}.edges: missing {missing}")

    cells = {}
    for p, rec in enumerate(_ensure_list(doc, "cells", where)):
        here = f"{where}.cells[{p}]"
        i, j, k = _index_pair(rec, ("i", "j", "k"), n, here, cells)
        if not i < j < k:
            raise SchemaError(f"{here}: needs i < j < k")
        # the cell source is the tensor product of the two edges, whose
        # deterministic coordinates are the ones the unitary was written in
        tp = tensor_corrs(edges[(i, j)], edges[(j, k)])
        target = edges[(i, k)]
        m = matrix_from_json(
            _need(rec, "unitary", here),
            (target.module.dim, tp.corr.module.dim),
            f"{here}.unitary",
        )
        cells[(i, j, k)] = make_iso(tp.corr, target, m, eps=eps)
    missing = [t for t in combinations(range(n + 1), 3) if t not in cells]
    if missing:
        raise SchemaError(f"{where}.cells: missing {missing}")

    return make_simplex(algebras, edges, cells, eps=eps, validate=validate)


@_writer
def horn_to_json(h: HornSpec) -> dict:
    return {
        "n": h.n,
        "k": h.k,
        "faces": [{"j": j, "simplex": simplex_to_json.doc(f)} for j, f in sorted(h.faces.items())],
    }


def horn_from_json(doc, *, eps: float = EPS, validate: bool = True, where="horn") -> HornSpec:
    n = _need(doc, "n", where)
    k = _need(doc, "k", where)
    if not _is_int(n) or not _is_int(k):
        raise SchemaError(f"{where}: n and k must be integers")
    faces = {}
    for p, rec in enumerate(_ensure_list(doc, "faces", where)):
        here = f"{where}.faces[{p}]"
        j = _need(rec, "j", here)
        if not _is_int(j):
            raise SchemaError(f"{here}.j: expected an integer")
        if j in faces:
            raise SchemaError(f"{here}: repeats face {j}")
        faces[j] = simplex_from_json(
            _need(rec, "simplex", here), eps=eps, validate=validate, where=f"{here}.simplex"
        )
    try:  # a k, face set or face dimension that does not fit n is a structural fault
        return HornSpec(n, k, faces)
    except ShapeMismatch as err:
        raise SchemaError(f"{where}: {err}") from None


def _ensure_list(doc, key, where):
    val = _need(doc, key, where)
    if not isinstance(val, list):
        raise SchemaError(f"{where}.{key}: expected a list")
    return val


def _index_pair(rec, keys, n, where, seen):
    out = []
    for key in keys:
        v = _need(rec, key, where)
        if not _is_int(v) or not (0 <= v <= n):
            raise SchemaError(f"{where}.{key}: expected an index in [0, {n}]")
        out.append(v)
    if tuple(out) in seen:
        raise SchemaError(f"{where}: repeats {tuple(out)}")
    return tuple(out)


_SCHEMA_KEYS = (
    ("algebras", "ncorr_simplex"),
    ("faces", "horn"),
    ("unitary", "iso"),
    ("left_action", "correspondence"),
    ("matrix", "star_hom"),
    ("base", "module"),
    ("blocks", "algebra"),
)


def detect_schema(doc) -> str:
    """Name the schema a parsed document matches, by its distinguishing key."""
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    for key, name in _SCHEMA_KEYS:
        if key in doc:
            return name
    raise SchemaError(f"no schema matches keys {sorted(doc)}")


# the document of each value kind, matrices as arrays
_TO_DOC = (
    (NCorrSimplex, simplex_to_json.doc),
    (HornSpec, horn_to_json.doc),
    (CorrIso, iso_to_json.doc),
    (Correspondence, corr_to_json.doc),
    (StarHom, hom_to_json.doc),
    (HilbertModule, module_to_json),
    (FdCstarAlgebra, algebra_to_json),
)

_FROM_JSON = {
    "algebra": lambda doc, eps, validate: algebra_from_json(doc),
    "star_hom": lambda doc, eps, validate: hom_from_json(doc, eps=eps, validate=validate),
    "module": lambda doc, eps, validate: module_from_json(doc),
    "correspondence": lambda doc, eps, validate: corr_from_json(doc, eps=eps, validate=validate),
    "iso": lambda doc, eps, validate: iso_from_json(doc, eps=eps, validate=validate),
    "ncorr_simplex": lambda doc, eps, validate: simplex_from_json(doc, eps=eps, validate=validate),
    "horn": lambda doc, eps, validate: horn_from_json(doc, eps=eps, validate=validate),
}


def _value_doc(obj) -> dict:
    for cls, doc in _TO_DOC:
        if isinstance(obj, cls):
            return doc(obj)
    raise SchemaError(f"no JSON schema for {type(obj).__name__}")


def value_to_json(obj) -> dict:
    return _lists(_value_doc(obj))


def value_from_json(doc, *, eps: float = EPS, validate: bool = True):
    return _FROM_JSON[detect_schema(doc)](doc, eps, validate)


def load_value(path, *, eps: float = EPS, validate: bool = True):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e
    except RecursionError as e:
        raise ParseError(f"{path}: JSON nested too deeply") from e
    return value_from_json(doc, eps=eps, validate=validate)

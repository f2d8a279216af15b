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

Malformed JSON raises ParseError; structurally wrong documents, numbers
that are not finite (NaN, Infinity, integers too large for a float), and
``true`` / ``false`` where a number is expected, raise SchemaError naming
the offending location.  A ``blocks`` or ``mult`` list that describes more
than MAX_PARSED_DIM dimensions raises DimensionTooLarge before anything is
built from it.  Numeric validation is left to the ordinary
constructors; with ``validate=False`` values are built unchecked, for a
caller that checks every invariant itself (``corrlab validate``).
"""
from __future__ import annotations

import json
from itertools import combinations

import numpy as np

from .algebra import EPS, FdCstarAlgebra, StarHom, make_algebra, make_star_hom
from .errors import DimensionTooLarge, ParseError, SchemaError
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
    "dump_value",
    "load_value",
]


# Bound on sum(n^2) of a parsed ``blocks`` or ``mult`` list: an algebra [n]
# alone makes a simplex build the dense identity eye(n^2).  The largest in
# the tests is 61 ([6, 5]), in the untrusted-io benchmark 8; 256 also admits
# the largest algebra of the blockscale chain at n = 3, [14, 4] (212).
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


def matrix_from_json(data, shape, where="matrix") -> np.ndarray:
    rows, cols = shape
    if not isinstance(data, list):
        raise SchemaError(f"{where}: expected a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise SchemaError(f"{where}: expected {rows * cols} entries for shape {rows}x{cols}, got {len(data)}")
    out = np.empty(rows * cols, dtype=complex)
    for p, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(_is_int(x) or isinstance(x, float) for x in entry)
        ):
            raise SchemaError(f"{where}[{p}]: expected an [re, im] pair")
        try:
            out[p] = complex(entry[0], entry[1])
        except OverflowError:
            raise SchemaError(f"{where}[{p}]: number too large for a float") from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise SchemaError(f"{where}[{bad[0]}]: expected finite numbers, got {data[bad[0]]}")
    return out.reshape(rows, cols)


def algebra_to_json(a: FdCstarAlgebra) -> dict:
    return {"blocks": list(a.blocks), "label": a.label}


def algebra_from_json(doc, where="algebra") -> FdCstarAlgebra:
    blocks = _int_list(doc, "blocks", where)
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SchemaError(f"{where}.label: expected a string")
    return make_algebra(blocks, label)


def hom_to_json(phi: StarHom) -> dict:
    return {
        "src": algebra_to_json(phi.src),
        "dst": algebra_to_json(phi.dst),
        "matrix": matrix_to_json(phi.matrix),
    }


def hom_from_json(doc, *, eps: float = EPS, validate: bool = True, where="star_hom") -> StarHom:
    src = algebra_from_json(_need(doc, "src", where), f"{where}.src")
    dst = algebra_from_json(_need(doc, "dst", where), f"{where}.dst")
    m = matrix_from_json(_need(doc, "matrix", where), (dst.dim, src.dim), f"{where}.matrix")
    return make_star_hom(src, dst, m, eps=eps) if validate else StarHom(src, dst, m)


def module_to_json(mod: HilbertModule) -> dict:
    return {"base": algebra_to_json(mod.base), "mult": list(mod.mult)}


def module_from_json(doc, where="module") -> HilbertModule:
    base = algebra_from_json(_need(doc, "base", where), f"{where}.base")
    return make_module(base, _int_list(doc, "mult", where))


def corr_to_json(c: Correspondence) -> dict:
    return {
        "src": algebra_to_json(c.src),
        "dst": algebra_to_json(c.dst),
        "mult": list(c.module.mult),
        "left_action": hom_to_json(c.lam),
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
    return Correspondence(src, module, StarHom(src, module.compacts, m))


def iso_to_json(u: CorrIso) -> dict:
    return {
        "src": corr_to_json(u.src),
        "dst": corr_to_json(u.dst),
        "unitary": matrix_to_json(u.dense()),
    }


def iso_from_json(doc, *, eps: float = EPS, validate: bool = True, where="iso") -> CorrIso:
    src = corr_from_json(_need(doc, "src", where), eps=eps, validate=validate, where=f"{where}.src")
    dst = corr_from_json(_need(doc, "dst", where), eps=eps, validate=validate, where=f"{where}.dst")
    m = matrix_from_json(
        _need(doc, "unitary", where), (dst.module.dim, src.module.dim), f"{where}.unitary"
    )
    return make_iso(src, dst, m, eps=eps)


def simplex_to_json(s: NCorrSimplex) -> dict:
    edges = [{"i": i, "j": j, "corr": corr_to_json(e)} for (i, j), e in sorted(s.edges.items())]
    cells = [
        {"i": i, "j": j, "k": k, "unitary": matrix_to_json(u.dense())}
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
        i, j = _index_pair(rec, ("i", "j"), n, here)
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
        i, j, k = _index_pair(rec, ("i", "j", "k"), n, here)
        if not i < j < k:
            raise SchemaError(f"{here}: needs i < j < k")
        # the cell source is the tensor product of the two edges, rebuilt here;
        # the presentation is deterministic so the coordinates agree with the
        # ones the unitary was written in
        tp = tensor_corrs(edges[(i, j)], edges[(j, k)], eps=eps)
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


def horn_to_json(h: HornSpec) -> dict:
    return {
        "n": h.n,
        "k": h.k,
        "faces": [{"j": j, "simplex": simplex_to_json(f)} for j, f in sorted(h.faces.items())],
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
        faces[j] = simplex_from_json(
            _need(rec, "simplex", here), eps=eps, validate=validate, where=f"{here}.simplex"
        )
    return HornSpec(n, k, faces)


def _ensure_list(doc, key, where):
    val = _need(doc, key, where)
    if not isinstance(val, list):
        raise SchemaError(f"{where}.{key}: expected a list")
    return val


def _index_pair(rec, keys, n, where):
    out = []
    for key in keys:
        v = _need(rec, key, where)
        if not _is_int(v) or not (0 <= v <= n):
            raise SchemaError(f"{where}.{key}: expected an index in [0, {n}]")
        out.append(v)
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


_TO_JSON = (
    (NCorrSimplex, simplex_to_json),
    (HornSpec, horn_to_json),
    (CorrIso, iso_to_json),
    (Correspondence, corr_to_json),
    (StarHom, hom_to_json),
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


def value_to_json(obj) -> dict:
    for cls, enc in _TO_JSON:
        if isinstance(obj, cls):
            return enc(obj)
    raise SchemaError(f"no JSON schema for {type(obj).__name__}")


def value_from_json(doc, *, eps: float = EPS, validate: bool = True):
    return _FROM_JSON[detect_schema(doc)](doc, eps, validate)


def dump_value(obj, path) -> None:
    with open(path, "w") as f:
        json.dump(value_to_json(obj), f)
        f.write("\n")


def load_value(path, *, eps: float = EPS, validate: bool = True):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e
    return value_from_json(doc, eps=eps, validate=validate)

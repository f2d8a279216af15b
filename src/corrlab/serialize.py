"""JSON records for every constructible value.

One schema per value kind, recognised by its keys:

  algebra         {"blocks": [2, 1], "label": ""}
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
writer of a schema with matrices keeps the function as ``.doc``.  Every
JSON text corrlab writes (each CLI output) comes from one writer,
``_json_text``, byte-identical to ``json.dumps`` of the public list
document.  It leaves dicts, ints and strings to ``json.dumps`` and scans
each matrix once, by the bits of its entries: each run of (+0.0, +0.0) is
written as repeated ``[0.0, 0.0], `` text, each distinct other entry of the
document is printed once, by the json encoder (so ``-0.0`` and ``NaN``
print as json prints them), and the document is joined once.

Malformed JSON, including text that is not UTF-8 or is nested too deeply
for the parser, raises ParseError; structurally wrong documents (a horn
whose k, faces or face dimensions do not fit its n among them), numbers
that are not finite (NaN, Infinity, integers too large for a float), and
``true`` / ``false`` where a number is expected, raise SchemaError naming
the offending location.  A ``blocks`` or ``mult`` list that describes more
than MAX_PARSED_DIM dimensions raises DimensionTooLarge before anything is
built from it.

Each reader makes the constructors' checks once, in their order, and hands
each result to a private sink: a load's raises the first error, ``corrlab
validate``'s keeps a line per check.  Either way the value is built from
the same data, and what cannot be built raises: the faults above, a trace
that is no rank (NotProjection), a non-unital left action, an intertwiner
whose endpoints or block shapes do not fit.
"""
from __future__ import annotations

import functools
import json
from itertools import combinations

import numpy as np

from .algebra import EPS, FdCstarAlgebra, StarHom, _hom_faults, _raise_first, _traced_mult, make_algebra
from .errors import DimensionTooLarge, ParseError, PentagonViolated, SchemaError, ShapeMismatch, ValidationError
from .modules import CorrIso, Correspondence, HilbertModule, _dense_iso, _iso_faults, make_module, tensor_corrs
from .nerve import HornSpec, NCorrSimplex, _check_uncovered

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
    # Kept: the nonzero entries and each array's last, which closes it.  With
    # the arrays laid end to end, each follows the zeros since the one before.
    where, entries, size = [np.empty(0, np.intp)], [np.empty((0, 2), np.uint64)], 0
    for a in arrays:
        bits = np.ascontiguousarray(a, dtype=complex).view(np.uint64).reshape(-1, 2)
        keep = bits[:, 0] | bits[:, 1]
        keep[-1:] = 1
        at = np.flatnonzero(keep)
        where.append(at + size)
        entries.append(bits[at])
        size += len(bits)
    count = np.array([w.size for w in where])  # count[0] = 0; an empty array keeps none
    end = np.cumsum(count)  # end[a]: entries kept before array a
    distinct, inv = np.unique(np.concatenate(entries).view("V16").ravel(), return_inverse=True)
    # a document with no entry gets the one text "[]", which nothing indexes
    pairs = json.dumps(distinct.view(np.float64).reshape(-1, 2).tolist())[2:-2].split("], [")
    table = np.array([f"[{p}]" for p in pairs], dtype=object)
    lengths, run = np.unique(np.diff(np.concatenate(where), prepend=-1) - 1, return_inverse=True)
    # array a opens at slot 2 end[a] + a; a kept entry follows its run
    tokens = np.empty(2 * end[-1] + len(pieces), dtype=object)
    slot = 2 * np.arange(end[-1]) + np.repeat(np.arange(1, len(pieces)), count[1:])
    tokens[slot] = np.array(["[0.0, 0.0], " * g for g in lengths.tolist()], dtype=object)[run]
    tokens[slot + 1] = (table + ", ")[inv]
    last = end[1:][count[1:] > 0] - 1
    tokens[slot[last] + 1] = (table + "]")[inv[last]]
    opens = [p + ("[" if c else "[]") for p, c in zip(pieces, count[1:])]
    tokens[2 * end + np.arange(len(pieces))] = opens + pieces[-1:]
    return "".join(tokens.tolist())


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


class _Sink:
    """Where a reader hands each check it makes, as (name, residual, error
    or None).  A load's, ``_LOAD``, has no ``lines``: the first error
    raises, where the checking constructors raise it.  ``corrlab
    validate``'s keeps a (text, error) per check, named under ``prefix``."""

    def __init__(self, lines=None, prefix=""):
        self.lines, self.prefix = lines, prefix

    def __call__(self, faults, label=None) -> None:
        """With a label, one line for all the checks: the first error, or ok."""
        if self.lines is None:
            _raise_first(faults)
        elif label is not None:
            err = next((e for _, _, e in faults if e is not None), None)
            self.note(_line(label, None, err), err)
        else:
            for name, residual, err in faults:
                self.note(_line(name, residual, err), err)

    def under(self, prefix: str) -> "_Sink":
        return _Sink(self.lines, self.prefix + prefix)

    def note(self, text: str, err=None) -> None:
        if self.lines is not None:
            self.lines.append((self.prefix + text, err))


_LOAD = _Sink()


def _line(name: str, residual, err) -> str:
    at = f" at {err.indices}" if isinstance(err, PentagonViolated) else ""
    tail = f" (residual {residual:.3e})" if residual is not None else "" if err is None else f" ({err})"
    return f"{name}: {'ok' if err is None else 'FAIL'}{at}{tail}"


def _simplex_faults(s: NCorrSimplex, eps: float):
    """validate_simplex's check as one result: the worst pentagon, or the error."""
    try:
        worst = _check_uncovered(s, (), eps)
    except PentagonViolated as err:
        yield "pentagon", err.residual, err
    except ValidationError as err:
        yield "simplex", None, err
    else:
        yield "pentagon", worst, None


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
    return {"blocks": list(a.blocks), "label": ""}


def algebra_from_json(doc, where="algebra") -> FdCstarAlgebra:
    """``label`` is v1 schema only: a string is required, its value ignored."""
    blocks = _int_list(doc, "blocks", where)
    if not isinstance(doc.get("label", ""), str):
        raise SchemaError(f"{where}.label: expected a string")
    return make_algebra(blocks)


@_writer
def hom_to_json(phi: StarHom) -> dict:
    return {
        "src": algebra_to_json(phi.src),
        "dst": algebra_to_json(phi.dst),
        "matrix": phi.matrix,
    }


def hom_from_json(doc, *, eps: float = EPS, where="star_hom", _sink=_LOAD) -> StarHom:
    src = algebra_from_json(_need(doc, "src", where), f"{where}.src")
    dst = algebra_from_json(_need(doc, "dst", where), f"{where}.dst")
    m = matrix_from_json(_need(doc, "matrix", where), (dst.dim, src.dim), f"{where}.matrix")
    _sink(_hom_faults(src, dst, m, eps))
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


def corr_from_json(doc, *, eps: float = EPS, where="correspondence", _sink=_LOAD) -> Correspondence:
    src = algebra_from_json(_need(doc, "src", where), f"{where}.src")
    dst = algebra_from_json(_need(doc, "dst", where), f"{where}.dst")
    module = make_module(dst, _int_list(doc, "mult", where))
    la, at = _need(doc, "left_action", where), f"{where}.left_action"
    if algebra_from_json(_need(la, "src", at), f"{at}.src") != src:
        raise SchemaError(f"{at}.src: does not match the correspondence source")
    if algebra_from_json(_need(la, "dst", at), f"{at}.dst") != module.compacts:
        raise SchemaError(f"{at}.dst: does not match the compacts of the module")
    m = matrix_from_json(_need(la, "matrix", at), (module.compacts.dim, src.dim), f"{at}.matrix")
    _sink(_hom_faults(src, module.compacts, m, eps), "left action is a star-hom")
    lam = StarHom(src, module.compacts, m, _traced_mult(src, module.compacts, m))
    return Correspondence(src, module, lam)


@_writer
def iso_to_json(u: CorrIso) -> dict:
    return {
        "src": corr_to_json.doc(u.src),
        "dst": corr_to_json.doc(u.dst),
        "unitary": u.dense(),
    }


def iso_from_json(doc, *, eps: float = EPS, where="iso", _sink=_LOAD) -> CorrIso:
    src = corr_from_json(_need(doc, "src", where), eps=eps, where=f"{where}.src", _sink=_sink.under("src "))
    dst = corr_from_json(_need(doc, "dst", where), eps=eps, where=f"{where}.dst", _sink=_sink.under("dst "))
    m = matrix_from_json(_need(doc, "unitary", where), (dst.module.dim, src.module.dim), f"{where}.unitary")
    u = _dense_iso(src, dst, m)
    _sink(_iso_faults(u, eps, m))
    return u


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


def simplex_from_json(doc, *, eps: float = EPS, where="ncorr_simplex", _sink=_LOAD) -> NCorrSimplex:
    since = len(_sink.lines or ())
    algs = _need(doc, "algebras", where)
    if not isinstance(algs, list) or not algs:
        raise SchemaError(f"{where}.algebras: expected a nonempty list")
    algebras = [algebra_from_json(a, f"{where}.algebras[{i}]") for i, a in enumerate(algs)]
    n = len(algebras) - 1

    edges = {}
    for p, rec in enumerate(_ensure_list(doc, "edges", where)):
        here = f"{where}.edges[{p}]"
        i, j = _index_pair(rec, ("i", "j"), n, here, edges)
        edges[(i, j)] = corr_from_json(
            _need(rec, "corr", here), eps=eps, where=f"{here}.corr", _sink=_sink.under(f"edge {(i, j)} ")
        )
    missing = [t for t in combinations(range(n + 1), 2) if t not in edges]
    if missing:
        raise SchemaError(f"{where}.edges: missing {missing}")

    cells = {}
    for p, rec in enumerate(_ensure_list(doc, "cells", where)):
        here = f"{where}.cells[{p}]"
        i, j, k = _index_pair(rec, ("i", "j", "k"), n, here, cells)
        # the cell source is the tensor product of the two edges, whose
        # deterministic coordinates are the ones the unitary was written in
        tp, target = tensor_corrs(edges[(i, j)], edges[(j, k)]).corr, edges[(i, k)]
        m = matrix_from_json(_need(rec, "unitary", here), (target.module.dim, tp.module.dim), f"{here}.unitary")
        cells[(i, j, k)] = u = _dense_iso(tp, target, m)
        _sink.under(f"cell {(i, j, k)} ")(_iso_faults(u, eps, m))
    missing = [t for t in combinations(range(n + 1), 3) if t not in cells]
    if missing:
        raise SchemaError(f"{where}.cells: missing {missing}")

    s = NCorrSimplex(algebras, edges, cells)
    # the simplex check rests on valid edges and cells (validate_simplex)
    if all(err is None for _, err in (_sink.lines or ())[since:]):
        _sink(_simplex_faults(s, eps))
    return s


@_writer
def horn_to_json(h: HornSpec) -> dict:
    return {
        "n": h.n,
        "k": h.k,
        "faces": [{"j": j, "simplex": simplex_to_json.doc(f)} for j, f in sorted(h.faces.items())],
    }


def horn_from_json(doc, *, eps: float = EPS, where="horn", _sink=_LOAD) -> HornSpec:
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
        _sink.note(f"face {j}:")
        faces[j] = simplex_from_json(_need(rec, "simplex", here), eps=eps, where=f"{here}.simplex", _sink=_sink)
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
    """The record's indices: integers in [0, n], strictly increasing, not
    already in seen."""
    out = []
    for key in keys:
        v = _need(rec, key, where)
        if not _is_int(v) or not (0 <= v <= n):
            raise SchemaError(f"{where}.{key}: expected an index in [0, {n}]")
        out.append(v)
    if tuple(out) in seen:
        raise SchemaError(f"{where}: repeats {tuple(out)}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise SchemaError(f"{where}: needs {' < '.join(keys)}")
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
    "algebra": lambda doc, **checks: algebra_from_json(doc),
    "star_hom": hom_from_json,
    "module": lambda doc, **checks: module_from_json(doc),
    "correspondence": corr_from_json,
    "iso": iso_from_json,
    "ncorr_simplex": simplex_from_json,
    "horn": horn_from_json,
}


def _value_doc(obj) -> dict:
    for cls, doc in _TO_DOC:
        if isinstance(obj, cls):
            return doc(obj)
    raise SchemaError(f"no JSON schema for {type(obj).__name__}")


def value_to_json(obj) -> dict:
    return _lists(_value_doc(obj))


def value_from_json(doc, *, eps: float = EPS, _sink=_LOAD):
    return _FROM_JSON[detect_schema(doc)](doc, eps=eps, _sink=_sink)


def load_value(path, *, eps: float = EPS, _sink=_LOAD):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e
    except RecursionError as e:
        raise ParseError(f"{path}: JSON nested too deeply") from e
    return value_from_json(doc, eps=eps, _sink=_sink)

"""Command-line front door.

Subcommands: validate, make, gamma, morita, fill, subdivide, extend,
selftest.  Flags --eps, --seed, --out and --trace are accepted both before
and after the subcommand.  Values travel as JSON files in the schemas of
the serialize module; everything is deterministic given (seed, eps, input
files).

Exit codes: 0 all checks passed, 1 a validation failed, 2 usage or parse
error, including an --out or --trace path that cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .acceptance import SUITES, report_json, run_suite
from .algebra import FdCstarAlgebra, StarHom, _mult_residual, _star_residual, make_star_hom
from .bicategory import equivalence_inverse, gamma_of_hom
from .errors import (
    CorrLabError,
    DimensionTooLarge,
    ParseError,
    PentagonViolated,
    SchemaError,
    ValidationError,
)
from .extension import K0Simplex, K0Oracle, NCorrOracle, extend_bar_G, gamma_functor, k0_functor
from .generators import (
    random_algebra,
    random_correspondence,
    random_simplex,
    random_unital_hom,
)
from .linalg import worst_of
from .modules import CorrIso, Correspondence, HilbertModule, _iso_residuals
from .nerve import HornSpec, NCorrSimplex, _check_uncovered, fill_inner_horn, fill_special_outer_horn
from .serialize import (
    MAX_PARSED_DIM,
    _json_text,
    corr_to_json,
    hom_to_json,
    iso_to_json,
    algebra_from_json,
    algebra_to_json,
    simplex_to_json,
    load_value,
)
from .subdivision import _nonempty_subsets, subdivision_functor


def _write(path, doc: dict) -> None:
    """Write doc's JSON text to path; a path that cannot be written is a
    usage error (exit 2)."""
    text = _json_text(doc)
    try:
        with open(path, "w") as f:
            f.write(text + "\n")
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e


def _emit(doc: dict, out) -> None:
    if out:
        _write(out, doc)
    else:
        print(_json_text(doc))


# ---------------------------------------------------------------------------
# validate: one line per invariant, residuals included


def _line(label: str, ok: bool, residual=None) -> bool:
    tail = "" if residual is None else f" (residual {residual:.3e})"
    print(f"{label}: {'ok' if ok else 'FAIL'}{tail}")
    return ok


def _hom_checks(phi: StarHom, eps: float) -> bool:
    r_star = _star_residual(phi.src, phi.dst, phi.matrix)
    ok = _line("star-preserving", r_star <= eps, r_star)
    r_mult, _ = _mult_residual(phi.src, phi.dst, phi.matrix)
    ok = _line("multiplicative", r_mult <= eps, r_mult) and ok
    print(f"unital: {phi.unital}")
    return ok


def _action_check(c: Correspondence, eps: float, label="left action is a star-hom") -> bool:
    try:
        make_star_hom(c.src, c.module.compacts, c.lam.matrix, eps=eps)
    except ValidationError as err:
        print(f"{label}: FAIL ({err})")
        return False
    return _line(label, True)


def _corr_checks(c: Correspondence, eps: float) -> bool:
    ok = _line("left action unital", c.lam.unital)
    return _action_check(c, eps) and ok


def _iso_checks(u: CorrIso, eps: float) -> bool:
    r1, r2, r3 = _iso_residuals(u)
    r = worst_of((r1, r2))
    ok = _line("unitary", r <= eps, r)
    return _line("intertwining", r3 <= eps, r3) and ok


def _simplex_checks(s: NCorrSimplex, eps: float) -> bool:
    # edges are parsed unchecked, and no pentagon sees a lone edge
    edges = sorted(s.edges.items())
    if not all([_action_check(e, eps, f"edge {key} left action is a star-hom") for key, e in edges]):
        return False
    try:
        worst = _check_uncovered(s, (), eps)
    except PentagonViolated as err:
        print(f"pentagon: FAIL at {err.indices} (residual {err.residual:.3e})")
        return False
    except ValidationError as err:
        print(f"simplex: FAIL ({err})")
        return False
    return _line("pentagon", True, worst)


def cmd_validate(args) -> int:
    value = load_value(args.path, eps=args.eps, validate=False)
    kind = type(value).__name__
    print(f"parsed: {kind}")
    if isinstance(value, FdCstarAlgebra):
        ok = _line("block shape", True)
    elif isinstance(value, StarHom):
        ok = _hom_checks(value, args.eps)
    elif isinstance(value, HilbertModule):
        ok = _line("module shape", True)
    elif isinstance(value, Correspondence):
        ok = _corr_checks(value, args.eps)
    elif isinstance(value, CorrIso):
        ok = _iso_checks(value, args.eps)
    elif isinstance(value, NCorrSimplex):
        ok = _simplex_checks(value, args.eps)
    elif isinstance(value, HornSpec):
        ok = True
        for j in sorted(value.faces):
            print(f"face {j}:")
            ok = _simplex_checks(value.faces[j], args.eps) and ok
    else:
        raise SchemaError(f"no checks for {kind}")
    print("all invariants pass" if ok else "validation failed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# construction commands


def cmd_make(args) -> int:
    rng = np.random.default_rng(args.seed)
    bound = dict(max_mult=args.max_mult, max_dim=MAX_PARSED_DIM)  # what a load would refuse
    if args.kind == "algebra":
        if args.blocks:
            a = algebra_from_json({"blocks": args.blocks, "label": args.label}, "--blocks")
        else:
            a = random_algebra(rng, label=args.label)
        _emit(algebra_to_json(a), args.out)
    elif args.kind == "hom":
        src = load_value(args.src, eps=args.eps) if args.src else random_algebra(rng)
        if not isinstance(src, FdCstarAlgebra):
            raise SchemaError("--src must be an algebra file")
        _emit(hom_to_json.doc(random_unital_hom(src, rng, **bound)), args.out)
    elif args.kind == "corr":
        src = load_value(args.src, eps=args.eps) if args.src else random_algebra(rng)
        dst = load_value(args.dst, eps=args.eps) if args.dst else random_algebra(rng)
        if not (isinstance(src, FdCstarAlgebra) and isinstance(dst, FdCstarAlgebra)):
            raise SchemaError("--src and --dst must be algebra files")
        corr = random_correspondence(src, dst, rng, **bound)
        _emit(corr_to_json.doc(corr), args.out)
    elif args.kind == "simplex":
        _nonempty_subsets(args.n)  # raises above the shared dimension bound
        s = random_simplex(rng, args.n, twist=args.twist, **bound)
        _emit(simplex_to_json.doc(s), args.out)
    return 0


def cmd_gamma(args) -> int:
    phi = load_value(args.hom, eps=args.eps)
    if not isinstance(phi, StarHom):
        raise SchemaError(f"{args.hom}: expected a star_hom file")
    _emit(corr_to_json.doc(gamma_of_hom(phi)), args.out)
    return 0


def cmd_morita(args) -> int:
    corr = load_value(args.module, eps=args.eps)
    if not isinstance(corr, Correspondence):
        raise SchemaError(f"{args.module}: expected a correspondence file")
    w = equivalence_inverse(corr, eps=args.eps)
    _emit(
        {
            "inverse": corr_to_json.doc(w.inverse),
            "counit_left": iso_to_json.doc(w.counit_left),
            "counit_right": iso_to_json.doc(w.counit_right),
        },
        args.out,
    )
    return 0


def cmd_fill(args) -> int:
    horn = load_value(args.horn, eps=args.eps)
    if not isinstance(horn, HornSpec):
        raise SchemaError(f"{args.horn}: expected a horn file")
    if horn.k == 0 < horn.n:
        raise SchemaError("only inner horns and final-vertex outer horns can be filled")
    fill = fill_special_outer_horn if horn.k == horn.n else fill_inner_horn
    _emit(simplex_to_json.doc(fill(horn, eps=args.eps)), args.out)
    return 0


def cmd_subdivide(args) -> int:
    s = load_value(args.simplex, eps=args.eps)
    if not isinstance(s, NCorrSimplex):
        raise SchemaError(f"{args.simplex}: expected an ncorr_simplex file")
    if args.n is not None and args.n != s.n:
        raise SchemaError(f"--n {args.n} does not match the simplex dimension {s.n}")
    sd = subdivision_functor(s, eps=args.eps)
    doc = {
        "vertices": [list(sub) for sub in sd.subsets],
        "algebras": [algebra_to_json(sd.algebra(sub)) for sub in sd.subsets],
        "homs": [
            {"s": list(a), "t": list(b), "hom": hom_to_json.doc(sd.hom(a, b))}
            for a in sd.subsets
            for b in sd.subsets
            if set(a) <= set(b)
        ],
    }
    _emit(doc, args.out)
    return 0


def _k0_to_json(s: K0Simplex) -> dict:
    return {
        "ranks": list(s.ranks),
        "edges": [
            {"i": i, "j": j, "matrix": s.edge(i, j).tolist()}
            for i in range(s.n + 1)
            for j in range(i + 1, s.n + 1)
        ],
    }


def cmd_extend(args) -> int:
    s = load_value(args.simplex, eps=args.eps)
    if not isinstance(s, NCorrSimplex):
        raise SchemaError(f"{args.simplex}: expected an ncorr_simplex file")
    pairs = {"k0": "k0nerve", "gamma": "ncorr"}
    if pairs[args.functor] != args.target:
        raise SchemaError(f"functor {args.functor} extends over target {pairs[args.functor]}")
    if args.functor == "k0":
        F, D = k0_functor(), K0Oracle()
    else:
        F, D = gamma_functor(), NCorrOracle()
    ext = extend_bar_G(s, F, D, {}, eps=args.eps)
    top = ext.top()
    if args.trace:
        _write(args.trace, {"simplex_dim": s.n, "fills": ext.trace})
    _emit(_k0_to_json(top) if isinstance(top, K0Simplex) else simplex_to_json.doc(top), args.out)
    return 0


def cmd_selftest(args) -> int:
    names = args.suite or list(SUITES)
    for name in names:
        if name not in SUITES:
            raise SchemaError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    reports = []
    for name in names:
        r = run_suite(name, seed=args.seed, eps=args.eps)
        reports.append(r)
        print(
            f"{name}: {'pass' if r.ok else 'FAIL'}"
            f" ({len(r.cases)} cases, worst residual {r.worst:.3e}, {r.seconds:.1f}s)",
            file=sys.stderr,
        )
    _emit(report_json(reports, seed=args.seed, eps=args.eps), args.out)
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# wiring


def _positive(kind):
    """An argparse type for a finite ``kind`` > 0: else a usage error (exit 2)."""

    def parse(text):
        x = kind(text)
        if not (np.isfinite(x) and x > 0):
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
        return x

    parse.__name__ = kind.__name__  # argparse's "invalid float value" names it
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; it names each command
    and holds no handler, so ``main`` finds ``cmd_<command>`` per call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eps", type=_positive(float), default=argparse.SUPPRESS,
                        help="residual tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="generator seed (default 42)")
    common.add_argument("--out", default=argparse.SUPPRESS, help="write JSON output here")
    common.add_argument("--trace", default=argparse.SUPPRESS, help="write a fill trace here")

    p = argparse.ArgumentParser(prog="corrlab", parents=[common],
                                description="correspondence nerve toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", parents=[common], help="check every invariant of a JSON file")
    v.add_argument("path", nargs="?", help="file to check")

    m = sub.add_parser("make", parents=[common], help="emit a seeded random value")
    m.add_argument("kind", choices=["algebra", "hom", "corr", "simplex"])
    m.add_argument("--blocks", type=lambda s: [_positive(int)(x) for x in s.split(",")],
                   help="algebra blocks, e.g. 2,1")
    m.add_argument("--label", default="")
    m.add_argument("--src", help="source algebra file (hom, corr)")
    m.add_argument("--dst", help="target algebra file (corr)")
    m.add_argument("--n", type=_positive(int), default=2, help="simplex dimension")
    m.add_argument("--twist", action="store_true", help="conjugate an edge off the chain image")
    m.add_argument("--max-mult", type=_positive(int), default=1, dest="max_mult")

    g = sub.add_parser("gamma", parents=[common], help="correspondence of a star-hom")
    g.add_argument("--hom", required=True)

    mo = sub.add_parser("morita", parents=[common], help="inverse and counits of an equivalence")
    mo.add_argument("--module", required=True, help="correspondence file")

    f = sub.add_parser("fill", parents=[common], help="fill a horn file")
    f.add_argument("--horn", required=True)

    sd = sub.add_parser("subdivide", parents=[common], help="vertex algebras and connecting homs")
    sd.add_argument("--simplex", required=True)
    sd.add_argument("--n", type=int, default=None, help="expected simplex dimension")

    e = sub.add_parser("extend", parents=[common], help="run the extension engine on a simplex")
    e.add_argument("--simplex", required=True)
    e.add_argument("--functor", choices=["k0", "gamma"], required=True)
    e.add_argument("--target", choices=["k0nerve", "ncorr"], required=True)
    e.add_argument("--guided", action="store_true",
                   help="accepted and ignored: a functor with a section always guides its run")

    st = sub.add_parser("selftest", parents=[common], help="run the acceptance sweeps")
    st.add_argument("--suite", action="append", help="run only this suite (repeatable)")
    return p


def main(argv=None) -> int:
    # the flag defaults start the namespace: every parser shares the flag
    # actions, so a default set on them would let the subcommand's parser
    # overwrite a flag given before the subcommand
    args = build_parser().parse_args(argv, argparse.Namespace(eps=1e-9, seed=42, out=None, trace=None))
    command = globals()[f"cmd_{args.command}"]  # a rebound cmd_* is the one that runs
    if args.command == "validate" and not args.path:
        print("validate: a file path is required", file=sys.stderr)
        return 2
    try:
        return command(args)
    except (ParseError, SchemaError, DimensionTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CorrLabError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Span recording around corrlab's public functions, installed from outside.

The library is treated as a black box: nothing under ``src/corrlab`` is
edited.  ``install`` replaces each listed function with a wrapper in every
``corrlab`` module namespace that binds it (``nerve``, ``bicategory`` and
``extension`` import ``tensor_corrs`` and ``compose_homs`` by name, so
patching the defining module alone would miss their calls), and wraps the
``CorrIso`` constructor and the extension oracles' fill methods on their
classes.

A span is (name, start, end, parent span, operation id).  Spans are kept in
flat arrays while the workload runs and written out once at the end.  A
span's duration leaves out the machine-speed probes (speed.py) that ran
inside it, and its self time is its duration minus its direct children's.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (layer, public name); spans and metrics are named layer.name
FUNCTIONS = [
    ("algebra", "make_star_hom"),
    ("algebra", "compose_homs"),
    ("algebra", "is_full_hom"),
    ("algebra", "hom_normal_form"),
    ("modules", "tensor_corrs"),
    ("modules", "CorrIso"),
    ("modules", "associator"),
    ("modules", "iso_distance"),
    ("bicategory", "gamma_of_hom"),
    ("bicategory", "u_of_corr"),
    ("bicategory", "equivalence_inverse"),
    ("bicategory", "gamma_multiplicativity"),
    ("nerve", "validate_simplex"),
    ("nerve", "pentagon_residual"),
    ("nerve", "gamma_simplex"),
    ("nerve", "make_simplex"),
    ("nerve", "fill_inner_horn"),
    ("nerve", "fill_special_outer_horn"),
    ("nerve", "structural_hash"),
    ("subdivision", "subdivision_functor"),
    ("subdivision", "module_E_S"),
    ("extension", "extend_bar_G"),
    ("extension", "fill_inner_horn"),
    ("extension", "fill_special_outer_horn"),
    ("extension", "guided_fill"),
    ("serialize", "load_value"),
    ("serialize", "value_from_json"),
    ("cli", "main"),
    ("cli", "validate"),
    ("cli", "fill"),
    ("cli", "subdivide"),
    ("cli", "extend"),
    ("generators", "random_simplex"),
    ("generators", "random_chain"),
    ("generators", "embedding_hom"),
    ("linalg", "orthonormal_range"),
    ("linalg", "gram_onb"),
    ("linalg", "frob"),
]

class Tracer:
    def __init__(self):
        self.ids: dict = {}
        self.names: list = []
        self.layers: list = []
        self.depth: list = []
        self.sid = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.outer = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.enabled = False
        self.counts = Counter()
        self.paused: list = []  # (innermost open span, seconds) of each probe

    def pause(self, seconds: float) -> None:
        """Record time spent in the speed probe inside the open span."""
        if not self.enabled:
            return
        i = self.stack[-1]
        # a probe landing while a span is being opened or closed is its parent's
        if i >= 0 and (i >= len(self.t0) or self.t1[i] != 0.0):
            i = self.parent[i]
        if i >= 0:
            self.paused.append((i, seconds))

    def _name_id(self, name: str, layer: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.depth.append(0)
        return nid

    def wrap(self, name: str, layer: str, fn, pre=None, post=None):
        """A wrapper recording one span per call of ``fn`` while enabled.

        Wrappers given the same name share it.  ``pre(args, kwargs)`` runs
        before the call and its value is handed to
        ``post(args, kwargs, result, value)`` after a normal return.
        """
        from corrlab.errors import CorrLabError

        nid = self._name_id(name, layer)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            idx = len(tr.t1)
            parent = tr.stack[-1]
            tr.sid.append(nid)
            tr.parent.append(parent)
            tr.op.append(tr.op_id)
            tr.outer.append(tr.depth[nid] == 0)
            tr.t1.append(0.0)
            tr.stack.append(idx)
            tr.depth[nid] += 1
            token = pre(args, kwargs) if pre else None
            tr.t0.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except CorrLabError:
                if parent < 0 or tr.layers[tr.sid[parent]] != layer:
                    tr.counts[f"{layer}.raised"] += 1
                raise
            finally:
                tr.t1[idx] = time.perf_counter()
                tr.depth[nid] -= 1
                tr.stack.pop()
            if post:
                post(args, kwargs, out, token)
            return out

        return traced

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Span columns; durations exclude probe time in the span or below."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        dur = np.frombuffer(self.t1, dtype=np.float64) - t0
        for i, seconds in self.paused:
            while i >= 0:
                dur[i] -= seconds
                i = parent[i]
        return (np.frombuffer(self.sid, dtype=np.int64), parent,
                np.frombuffer(self.op, dtype=np.int64),
                np.frombuffer(self.outer, dtype=np.int8).astype(bool), t0, dur)

    def layer_metrics(self) -> dict:
        """calls, inclusive and self seconds per span name, plus counters;
        a counter never incremented reads as absent.

        Inclusive time sums only the outermost span of a name, so a name
        that re-enters itself is not counted twice.
        """
        sid, parent, _, outer, _, dur = self.arrays()
        k = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(sid, minlength=k)
        incl = np.bincount(sid[outer], weights=dur[outer], minlength=k)
        selft = np.bincount(sid, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.incl_s"] = float(incl[i])
            out[f"{name}.self_s"] = float(selft[i])
        out.update(self.counts)
        memo_calls = self.counts["extension.memo_calls"]
        out["extension.memo_hit_ratio"] = (
            self.counts["extension.memo_hits"] / memo_calls if memo_calls else 0.0)
        return out

    def save(self, path: str) -> None:
        sid, parent, op, _, t0, dur = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), sid=sid, parent=parent,
                            op=op, start=t0, seconds=dur)


# ---------------------------------------------------------------------------
# hooks for the computed per-layer values


def _hom_bytes(tr):
    def post(args, kwargs, out, token):
        tr.counts["algebra.hom_bytes"] += out.matrix.nbytes
    return post


def _bytes_read(tr):
    def post(args, kwargs, out, token):
        path = args[0] if args else kwargs.get("path")
        tr.counts["serialize.bytes_read"] += os.path.getsize(path)
    return post


def _memo(tr):
    def memo_of(args, kwargs):
        memo = args[3] if len(args) > 3 else kwargs.get("memo")
        return memo

    def pre(args, kwargs):
        memo = memo_of(args, kwargs)
        return None if memo is None else len(memo)

    def post(args, kwargs, out, before):
        tr.counts["extension.memo_calls"] += 1
        memo = memo_of(args, kwargs)
        if before is not None and len(memo) == before:
            tr.counts["extension.memo_hits"] += 1
    return pre, post


def _exit_codes(tr):
    def post(args, kwargs, code, token):
        if code in (1, 2):
            tr.counts[f"cli.exit_{code}"] += 1
    return post


def _rebind(orig, new) -> None:
    """Point every corrlab module attribute bound to ``orig`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "corrlab" or modname.startswith("corrlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install() -> Tracer:
    """Wrap every function in FUNCTIONS; the tracer starts disabled."""
    import corrlab.acceptance  # noqa: F401  (make sure every module is loaded)
    import corrlab.cli  # noqa: F401
    from corrlab.extension import K0Oracle, NCorrOracle
    from corrlab.modules import CorrIso

    tr = Tracer()
    hooks = {
        "algebra.make_star_hom": (None, _hom_bytes(tr)),
        "algebra.compose_homs": (None, _hom_bytes(tr)),
        "serialize.load_value": (None, _bytes_read(tr)),
        "extension.extend_bar_G": _memo(tr),
        "cli.main": (None, _exit_codes(tr)),
    }
    cli_commands = {"validate": "cmd_validate", "fill": "cmd_fill",
                    "subdivide": "cmd_subdivide", "extend": "cmd_extend"}
    oracle_methods = ("fill_inner_horn", "fill_special_outer_horn", "guided_fill")
    for layer, fn in FUNCTIONS:
        name = f"{layer}.{fn}"
        pre, post = hooks.get(name, (None, None))
        if name == "modules.CorrIso":
            CorrIso.__init__ = tr.wrap(name, layer, CorrIso.__init__)
        elif layer == "extension" and fn in oracle_methods:
            # one span name per method, shared by both oracle classes
            for cls in (K0Oracle, NCorrOracle):
                setattr(cls, fn, tr.wrap(name, layer, vars(cls)[fn]))
        else:
            attr = cli_commands.get(fn, fn) if layer == "cli" else fn
            orig = getattr(sys.modules[f"corrlab.{layer}"], attr)
            _rebind(orig, tr.wrap(name, layer, orig, pre, post))
    return tr


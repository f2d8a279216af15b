"""Extending stable functors over subdivision chains and prisms."""

import ast
import contextlib
import dataclasses
import gc
import inspect
import itertools
import re
import textwrap
import weakref
from collections import Counter

import numpy as np
import pytest

from corrlab import extension, modules, nerve, subdivision
from corrlab.acceptance import conjugated_k0, k0_of_corr, random_unimodular
from corrlab.algebra import compose_homs, make_algebra
from corrlab.bicategory import u_of_corr
from corrlab.errors import (
    BoundaryMismatch,
    CompatibilityViolated,
    DimensionTooLarge,
    FunctorialityViolated,
    IncompatibleFaces,
    IndexOutOfRange,
    NotAnEquivalence,
    NotMonotone,
    OracleFillFailed,
    PentagonViolated,
    ShapeMismatch,
    Unfillable,
)
from corrlab.extension import (
    CstFunctor,
    CstHomotopy,
    K0Oracle,
    K0Simplex,
    NCorrOracle,
    bar_F,
    extend_bar_G,
    extend_relative,
    gamma_functor,
    k0_functor,
    k0_matrix,
)
from corrlab.generators import embedding_hom, random_chain, random_simplex
from corrlab.linalg import int_inverse
from corrlab.modules import CorrIso, make_iso
from corrlab.nerve import (
    HornSpec,
    NCorrSimplex,
    face,
    gamma_simplex,
    make_simplex,
    structural_hash,
    validate_simplex,
)
from corrlab.serialize import load_value
from corrlab.subdivision import AugChain, degeneracy, enumerate_csd, subdivision_functor
from test_serialize_cli import noisy_simplex
from test_subdivision import corrupt_isometries


def closure(sig):
    seen, out = set(), []

    def add(s):
        key = structural_hash(s)
        if key in seen:
            return
        seen.add(key)
        if s.n >= 1:
            for i in range(s.n + 1):
                add(face(s, i))
        out.append(s)

    add(sig)
    return out


M01 = np.array([[1, 1], [0, 1]], dtype=np.int64)
M12 = np.array([[2, 0], [1, 1]], dtype=np.int64)


@pytest.mark.parametrize("n", range(5))
def test_fill_targets_run_from_each_vertex_set_to_the_top(n):
    """Stage k fills, in (dimension, vertices, subsets) order, every chain
    of k + 1 distinct vertices whose subsets start at exactly those
    vertices and grow, strictly nested, up to the top; enumerated here from
    the definition, not from csd(n)."""
    top = tuple(range(n + 1))

    def runs(cur):
        if cur == top:
            return [(cur,)]
        bigger = (t for r in range(len(cur) + 1, n + 2) for t in itertools.combinations(top, r))
        return [(cur,) + tail for t in bigger if set(cur) < set(t) for tail in runs(t)]

    def stage(k):
        chains = [AugChain(vs, ss) for vs in itertools.combinations(top, k + 1) for ss in runs(vs)]
        return k, sorted(chains, key=lambda c: (c.dim, c.vertices, c.subsets))

    assert [(k, list(ts)) for k, ts in extension._fill_targets(n)] == [
        stage(k) for k in range(1, n + 1)
    ]


def test_k0_simplex_basics():
    s = K0Simplex((2, 2, 2), [M01, M12])
    assert s.n == 2
    assert np.array_equal(s.edge(0, 2), M12 @ M01)
    assert s.face(1) == K0Simplex((2, 2), [M12 @ M01])
    d = s.degeneracy(0)
    assert d.face(0) == s and d.face(1) == s
    assert np.array_equal(d.edge(0, 1), np.eye(2, dtype=np.int64))
    with pytest.raises(ShapeMismatch):
        K0Simplex((2, 3), [M01])


def test_k0_simplex_apply_map():
    s = K0Simplex((2, 2, 2), [M01, M12])
    sub = s.apply_map((0, 2))
    assert sub == K0Simplex((2, 2), [M12 @ M01])
    deg = s.apply_map((0, 0, 1, 2))
    assert deg == s.degeneracy(0)


def test_k0_faces_and_degeneracies_match_validated_simplices():
    """apply_map builds its result unchecked; each face and degeneracy of a
    3-simplex equals the checking constructor's simplex on the same data."""
    s = K0Simplex((2, 2, 2, 2), [M01, M12, M01.T.copy()])
    for t in [s.face(i) for i in range(4)] + [s.degeneracy(i) for i in range(4)]:
        checked = K0Simplex(t.ranks, t.steps)
        assert t == checked and t.n == checked.n and t.key == checked.key
        assert all(m.dtype == np.int64 and m.flags.c_contiguous for m in t.steps)


@pytest.mark.parametrize("step", [[[1.5]], [[2.0**70]], [[np.nan]]])
def test_k0_simplex_from_outside_needs_int64_steps(step):
    with pytest.raises(ShapeMismatch, match="not int64"):
        K0Simplex((1, 1), [step])
    assert K0Simplex((1, 1), [[[2.0]]]) == K0Simplex((1, 1), [[[2]]])


def test_a_k0_simplex_compares_by_equality_and_has_no_hash_rule():
    """A K0Simplex compares its ranks and steps with ==; structural_hash,
    whose keys are none of them, refuses it, a lone hom, a tuple, a scalar
    and any other type it has no rule for."""
    one, two = K0Simplex((1, 1), [[[1]]]), K0Simplex((1, 1), [[[2]]])
    assert one != two and one == K0Simplex((1, 1), [[[1]]])
    wide, tall = K0Simplex((2, 1), [np.zeros((1, 2))]), K0Simplex((1, 2), [np.zeros((2, 1))])
    assert wide != tall
    hom = embedding_hom(make_algebra((1,)), make_algebra((1,)), [[1]])
    for obj in (one, hom, object(), {"blocks": (1,)}, (1, None), (1, 2), "a", 3.0):
        with pytest.raises(TypeError, match="no rule"):
            structural_hash(obj)


def test_k0_oracle_fills():
    o = K0Oracle()
    e01 = K0Simplex((2, 2), [M01])
    e12 = K0Simplex((2, 2), [M12])
    filled = o.fill_inner_horn(HornSpec(2, 1, {0: e12, 2: e01}))
    assert np.array_equal(filled.edge(0, 2), M12 @ M01)

    perm = np.array([[0, 1], [1, 0]], dtype=np.int64)
    comp = K0Simplex((2, 2), [perm @ M01])
    last = K0Simplex((2, 2), [perm])
    out = o.fill_special_outer_horn(HornSpec(2, 2, {0: last, 1: comp}))
    assert np.array_equal(out.edge(0, 1), M01)
    # last edge must be invertible over the integers
    with pytest.raises(Unfillable):
        o.fill_special_outer_horn(
            HornSpec(2, 2, {0: K0Simplex((2, 2), [M01 + 1]), 1: comp})
        )


def unimodular_simplex(n, seed):
    """A K0 n-simplex of rank-2 vertices whose steps are invertible, so that
    moving any one entry of any edge changes every product through it."""
    rng = np.random.default_rng(seed)
    return K0Simplex((2,) * (n + 1), [random_unimodular(2, rng) for _ in range(n)])


def moved_step(f, a):
    """The simplex f with entry (0, 0) of its step a moved by one."""
    steps = [m.copy() for m in f.steps]
    steps[a][0, 0] += 1
    return K0Simplex(f.ranks, steps)


def test_k0_merge_rejects_a_rank_disagreement():
    s = K0Simplex((2, 2, 2, 2), [M01, M12, M01])
    wide = K0Simplex((2, 2, 3), [M12, np.ones((3, 2), dtype=np.int64)])
    o = K0Oracle()
    with pytest.raises(IncompatibleFaces, match="rank at vertex 3"):
        o.fill_inner_horn(HornSpec(3, 1, {0: wide, 2: s.face(2), 3: s.face(3)}))
    # a special horn whose edges disagree on their shared vertex
    with pytest.raises(IncompatibleFaces, match="rank at vertex 2"):
        o.fill_special_outer_horn(HornSpec(2, 2, {0: s.face(0).face(0), 1: wide.face(1)}))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k0_inner_horn_rejects_one_moved_step(k):
    s = unimodular_simplex(4, k)
    faces = {j: s.face(j) for j in range(5) if j != k}
    assert K0Oracle().fill_inner_horn(HornSpec(4, k, faces)) == s
    for j, f in faces.items():
        for a in range(3):
            with pytest.raises(IncompatibleFaces):
                K0Oracle().fill_inner_horn(HornSpec(4, k, {**faces, j: moved_step(f, a)}))


@pytest.mark.parametrize("n", [2, 3])
def test_k0_boundary_rejects_faces_that_do_not_compose(n):
    s = unimodular_simplex(n, 10 + n)
    faces = {j: s.face(j) for j in range(n + 1)}
    assert K0Oracle().fill_boundary(faces) == s
    for j, f in faces.items():
        for a in range(n - 1):
            with pytest.raises(IncompatibleFaces):
                K0Oracle().fill_boundary({**faces, j: moved_step(f, a)})


@pytest.mark.parametrize("seed", range(5))
def test_k0_matrix_functorial(seed):
    rng = np.random.default_rng(seed)
    phi, psi = random_chain(rng, 2, max_blocks=2, max_size=2, max_mult=1)
    assert np.array_equal(k0_matrix(phi), phi.mult_matrix.T)
    assert np.array_equal(
        k0_matrix(compose_homs(psi, phi)), k0_matrix(psi) @ k0_matrix(phi)
    )


@pytest.mark.parametrize("seed", range(6))
def test_bar_extension_computes_k0_of_edges(seed):
    rng = np.random.default_rng(seed + 50)
    n = 1 + seed % 2
    s = random_simplex(rng, n, twist=bool(seed % 2), max_blocks=2, max_size=2, max_mult=1)
    bar = bar_F(s, k0_functor(), K0Oracle(), {})
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            assert np.array_equal(bar.edge(i, j), k0_of_corr(s.edges[(i, j)]))
    # the leading edge goes through the integer inverse of the corner's class
    fact = u_of_corr(s.edges[(0, 1)])
    direct = int_inverse(k0_matrix(fact.i_hom)) @ k0_matrix(fact.j_hom)
    assert np.array_equal(bar.edge(0, 1), direct)


def test_fill_trace_for_a_2_simplex():
    rng = np.random.default_rng(42)
    s = random_simplex(rng, 2, max_blocks=2, max_size=2, max_mult=1)
    ext = extend_bar_G(s, k0_functor(), K0Oracle(), {})
    shape = [(tuple(e["horn"]), e["kind"]) for e in ext.trace]
    assert shape == [((3, 2), "inner")] * 3 + [((3, 3), "special")]
    assert all(set(e) == {"chain", "horn", "kind", "guided"} for e in ext.trace)


def test_extension_memoised_across_calls():
    rng = np.random.default_rng(7)
    s = random_simplex(rng, 1, max_blocks=2, max_size=2, max_mult=1)
    F, D, memo = k0_functor(), K0Oracle(), {}
    first = extend_bar_G(s, F, D, memo)
    again = extend_bar_G(s, F, D, memo)
    assert first is again
    fresh = extend_bar_G(s, F, D, {})
    assert fresh is not first and fresh.top() == first.top()


def test_extension_memo_keeps_its_functor_alive():
    # the memo is keyed on id(F); that id cannot be reused while an entry
    # holds F, because the entry's builder refers to it
    rng = np.random.default_rng(7)
    s = random_simplex(rng, 1, max_blocks=2, max_size=2, max_mult=1)
    F, memo = k0_functor(), {}
    ref = weakref.ref(F)
    extend_bar_G(s, F, K0Oracle(), memo)
    del F
    gc.collect()
    assert ref() is not None
    memo.clear()
    gc.collect()
    assert ref() is None


@contextlib.contextmanager
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("target", ["k0", "gamma"])
def test_dropping_the_memo_and_the_run_frees_the_run(target):
    """The memo keeps each run and no run keeps the memo, so with the cycle
    collector off, dropping both frees a finished run, its face runs too."""
    s = random_simplex(np.random.default_rng(5), 2, max_blocks=2, max_size=2, max_mult=1)
    F, D = (k0_functor(), K0Oracle()) if target == "k0" else (gamma_functor(), NCorrOracle())
    with no_cycle_collector():
        memo = {}
        ext = extend_bar_G(s, F, D, memo)
        refs = [weakref.ref(ext)] + [weakref.ref(c) for c in ext.children.values()]
        assert len(refs) > 1 and extend_bar_G(s, F, D, memo) is ext
        del memo, ext
        assert [r() for r in refs] == [None] * len(refs)


def test_extension_dimension_cap():
    rng = np.random.default_rng(3)
    s5 = random_simplex(rng, 5, max_blocks=1, max_size=2, max_mult=1)
    with pytest.raises(DimensionTooLarge):
        extend_bar_G(s5, k0_functor(), K0Oracle(), {})


@pytest.mark.parametrize("length", [1, 2])
def test_guided_extension_is_a_section(length):
    rng = np.random.default_rng(20 + length)
    homs = random_chain(rng, length, max_blocks=2, max_size=2, max_mult=1)
    arrows = list(homs)
    if length == 2:
        arrows.append(compose_homs(homs[1], homs[0]))
    F = gamma_functor(arrows)
    D = NCorrOracle()
    memo = {}
    for a in (homs[0].src, homs[0].dst):
        v = make_simplex([a], {}, {})
        assert structural_hash(bar_F(v, F, D, memo)) == structural_hash(v)
    sig = gamma_simplex(homs)
    bar = bar_F(sig, F, D, memo)
    assert structural_hash(bar) == structural_hash(sig)


def test_k0_extension_at_dimension_4_is_the_rank_matrix():
    s = random_simplex(np.random.default_rng(2), 4, twist=True, max_blocks=2, max_size=1, max_mult=1)
    top = bar_F(s, k0_functor(), K0Oracle(), {})
    assert top.n == 4
    for (i, j), e in s.edges.items():
        assert np.array_equal(top.edge(i, j), k0_of_corr(e))


def test_guided_extension_is_a_section_at_dimension_4(monkeypatch):
    # the functor has a section, so the run is guided and lands on sig
    homs = random_chain(np.random.default_rng(0), 4, max_blocks=1, max_size=1, max_mult=1)
    sig = gamma_simplex(homs)
    built = []
    init = NCorrSimplex.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(NCorrSimplex, "__init__", recording)
    ext = extend_bar_G(sig, gamma_functor(homs), NCorrOracle(), {})
    assert any(e["guided"] for e in ext.trace)
    assert structural_hash(ext.top()) == structural_hash(sig)
    # the fills skip what their faces cover, though shared edges may differ
    # from a face's copy in bits (nerve._check_uncovered): the full check
    # passes on every simplex the run built all the same
    assert max(s.n for s in built) >= 4
    for s in built:
        validate_simplex(s)


def test_gamma_extension_builds_each_tensor_product_once(monkeypatch):
    built, alive = Counter(), []

    class Counting(modules.TensorProduct):
        def __init__(self, left, right):
            alive.append((left, right))  # no id is reused while the run counts
            built[id(left), id(right)] += 1
            super().__init__(left, right)

    monkeypatch.setattr(modules, "TensorProduct", Counting)
    homs = random_chain(np.random.default_rng(1), 3, max_blocks=1, max_size=1)
    extend_bar_G(gamma_simplex(homs), gamma_functor(homs), NCorrOracle(), {})
    assert built and set(built.values()) == {1}


def relative_setup(rng, n, twist):
    sig = random_simplex(rng, n, twist=twist, max_blocks=2, max_size=2, max_mult=1)
    F0 = k0_functor()
    F1, P = conjugated_k0(rng)

    def eta(a, P=P):
        return K0Simplex((a.nblocks, a.nblocks), [P(a)])

    return sig, F0, F1, P, eta


@pytest.mark.parametrize("n,twist", [(1, False), (1, True), (2, False), (2, True), (3, False)])
def test_relative_extension_boundaries(n, twist):
    rng = np.random.default_rng(10 * n + twist)
    sig, F0, F1, P, eta = relative_setup(rng, n, twist)
    D = K0Oracle()
    rel = extend_relative(CstHomotopy(F0, F1, eta), [sig], D)
    memo = {}
    for s in closure(sig):
        assert rel.value(s, (0,) * (s.n + 1)) == bar_F(s, F0, D, memo)
        assert rel.value(s, (1,) * (s.n + 1)) == bar_F(s, F1, D, memo)
    # the prism diagonal composes the homotopy edge after the bar edge
    for s in closure(sig):
        if s.n != 1:
            continue
        diag = rel.value(s, (0, 1))
        want = P(s.algebras[1]) @ bar_F(s, F0, D, memo).edge(0, 1)
        assert np.array_equal(diag.edge(0, 1), want)


def identity_eta(a):
    return K0Simplex((a.nblocks, a.nblocks), [np.eye(a.nblocks, dtype=np.int64)])


def test_relative_extension_identity_homotopy():
    rng = np.random.default_rng(77)
    sig = random_simplex(rng, 1, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()
    rel = extend_relative(CstHomotopy(F, F, identity_eta), [sig], K0Oracle())
    bar = bar_F(sig, F, K0Oracle(), {})
    assert rel.value(sig, (0, 0)) == bar
    assert rel.value(sig, (1, 1)) == bar
    assert np.array_equal(rel.value(sig, (0, 1)).edge(0, 1), bar.edge(0, 1))


def non_natural_eta(rng):
    mats = {}

    def eta(a):
        key = structural_hash(a)
        if key not in mats:
            # a fresh random unimodular for each object; almost surely
            # incompatible with every nonidentity arrow
            m = np.eye(a.nblocks, dtype=np.int64)
            for _ in range(4):
                i, j = rng.integers(0, a.nblocks, 2)
                if i != j:
                    m[i] += int(rng.integers(1, 3)) * m[j]
            mats[key] = m
        return K0Simplex((a.nblocks, a.nblocks), [mats[key]])

    return eta


def test_relative_extension_rejects_non_natural_data():
    rng = np.random.default_rng(88)
    sig = random_simplex(rng, 1, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()
    with pytest.raises(BoundaryMismatch):
        extend_relative(CstHomotopy(F, F, non_natural_eta(rng)), [sig], K0Oracle())


def test_relative_extension_rejects_non_natural_data_at_dimension_3():
    rng = np.random.default_rng(89)
    sig = random_simplex(rng, 3, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()
    with pytest.raises(BoundaryMismatch):
        extend_relative(CstHomotopy(F, F, non_natural_eta(rng)), [sig], K0Oracle())


def test_relative_extension_caps():
    rng = np.random.default_rng(6)
    F = k0_functor()
    s5 = random_simplex(rng, 5, max_blocks=1, max_size=2, max_mult=1)
    with pytest.raises(DimensionTooLarge):
        extend_relative(CstHomotopy(F, F, lambda a: None), [s5], K0Oracle())


def test_relative_extension_refuses_a_non_homotopy_before_walking_the_family(monkeypatch):
    """A non-CstHomotopy raises before any face of the family is hashed."""
    sig = random_simplex(np.random.default_rng(9), 2, max_blocks=2, max_size=2, max_mult=1)
    calls = []

    def counted(*args, real=extension.structural_hash):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(extension, "structural_hash", counted)
    with pytest.raises(ShapeMismatch, match="CstHomotopy"):
        extend_relative(object(), [sig], K0Oracle())
    assert calls == []


def test_relative_extension_unknown_simplex():
    rng = np.random.default_rng(9)
    sig = random_simplex(rng, 1, max_blocks=2, max_size=2, max_mult=1)
    other = random_simplex(rng, 1, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()
    rel = extend_relative(CstHomotopy(F, F, identity_eta), [sig], K0Oracle())
    with pytest.raises(BoundaryMismatch):
        rel.value(other, (0, 0))


@pytest.mark.parametrize(
    "alpha,w",
    [((1, 0), (0, 0)), ((0, 5), (0, 0)), ((-1, 0), (0, 0)), ((0, 5), (0, 1)), ((1, 0), (0, 1))],
)
def test_relative_extension_rejects_a_bad_vertex_map(alpha, w):
    rng = np.random.default_rng(77)
    sig = random_simplex(rng, 1, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()
    rel = extend_relative(CstHomotopy(F, F, identity_eta), [sig], K0Oracle())
    with pytest.raises(NotMonotone):
        rel.value(sig, w, alpha)


# -- the engine's remaining checks ---------------------------------------------


def negated_k0():
    """K-theory, except that every two-hom chain negates its last step.

    The corruption is consistent: each such value is a valid K0 simplex,
    horns built from it still fill, and the corner edges stay invertible.
    Only the face check on each functor value, made where ``value`` builds
    it, compares a chain's value with its faces' values.
    """
    base = k0_functor()

    def chain(homs, composites=None, **kw):
        s = base.chain(homs, **kw)
        return negate_last_step(s) if len(homs) == 2 else s

    return CstFunctor(base.vertex, chain)


def test_face_sweep_rejects_a_corrupted_chain_value():
    rng = np.random.default_rng(5)
    s = random_simplex(rng, 2, max_blocks=2, max_size=2, max_mult=1)
    with pytest.raises(CompatibilityViolated, match="face .* disagrees with its value"):
        extend_bar_G(s, negated_k0(), K0Oracle(), {})


def negate_cell(s):
    """The 2-simplex s with its cell multiplied by -1: still valid, not s."""
    u = s.cell(0, 1, 2)
    minus_u = make_iso(u.src, u.dst, [-b for b in u.blocks])
    return make_simplex(s.algebras, s.edges, {(0, 1, 2): minus_u})


class WrongFaceOracle(NCorrOracle):
    """Fills one tetrahedron horn of a child run after negating the cell of
    one of its faces, so the fill it returns carries a face the horn did
    not give.  Child runs are told apart by their top algebra."""

    def __init__(self, parent_top):
        super().__init__()
        self.parent_top = parent_top
        self.swapped = 0

    def fill_inner_horn(self, horn, **kw):
        if self.swapped or horn.n != 3 or horn.faces[0].algebras[-1] == self.parent_top:
            return super().fill_inner_horn(horn, **kw)
        self.swapped += 1
        faces = dict(horn.faces)
        j = min(faces)
        faces[j] = negate_cell(faces[j])
        return super().fill_inner_horn(HornSpec(horn.n, horn.k, faces), **kw)


def test_fill_check_rejects_a_wrong_face_in_a_child_run():
    rng = np.random.default_rng(4)
    s = random_simplex(rng, 3, max_blocks=2, max_size=2, max_mult=1)
    top = subdivision_functor(s).algebra((0, 1, 2, 3))
    children = [subdivision_functor(face(s, i)).algebra((0, 1, 2)) for i in range(4)]
    assert top not in children
    D = WrongFaceOracle(top)
    with pytest.raises(OracleFillFailed, match="oracle changed face"):
        extend_bar_G(s, gamma_functor(), D, {})
    assert D.swapped == 1


TARGETS = {"k0": (k0_functor, K0Oracle), "ncorr": (gamma_functor, NCorrOracle)}
SMALL = [(1, 0), (1, 1), (2, 0), (2, 1)]


def small_simplex(n, seed):
    rng = np.random.default_rng(30 + 2 * n + seed)
    return random_simplex(rng, n, twist=bool(seed), max_blocks=2, max_size=2, max_mult=1)


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("n,seed", SMALL)
def test_degenerate_chain_values_are_degeneracies(n, seed, target):
    functor, oracle = TARGETS[target]
    D = oracle()
    ext = extend_bar_G(small_simplex(n, seed), functor(), D, {})
    for d, chains in enumerate_csd(n).items():
        for c in chains:
            for i in range(d + 1):
                assert D.equal(ext.value(degeneracy(c, i)), D.degeneracy(ext.value(c), i))


class CountDegeneracies:
    degeneracies = 0

    def degeneracy(self, s, i):
        self.degeneracies += 1
        return super().degeneracy(s, i)


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("n,seed", SMALL)
def test_extension_takes_no_degeneracies(n, seed, target):
    functor, oracle = TARGETS[target]
    D = type("Counting", (CountDegeneracies, oracle), {})()
    extend_bar_G(small_simplex(n, seed), functor(), D, {})
    assert D.degeneracies == 0


# -- each value is checked where it is made -----------------------------------


def negate_last_step(s):
    """The K0 simplex s with its last step negated, and so every edge into
    its last vertex: still a simplex, and not s when that step is nonzero."""
    return K0Simplex(s.ranks, s.steps[:-1] + (-s.steps[-1],))


def k0_corrupting(bad=None, seen=None):
    """K-theory, except that the chain of homs keyed ``bad`` gets its last
    step negated; every chain's key goes into ``seen``."""
    base = k0_functor()

    def chain(homs, composites=None, **kw):
        s = base.chain(homs, **kw)
        key = tuple((h.src.blocks, h.dst.blocks, h.matrix.tobytes()) for h in homs)
        if seen is not None:
            seen[key] = None
        return negate_last_step(s) if key == bad else s

    return CstFunctor(base.vertex, chain)


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 0)])
def test_every_corrupted_functor_value_is_rejected(n, seed):
    """A value that is wrong in any one chain fails the run, and fails it
    where a value is made and compared with its faces, not at a later fill
    (``OracleFillFailed``) that happens to use it."""
    sig = small_simplex(n, seed)
    seen = {}
    extend_bar_G(sig, k0_corrupting(seen=seen), K0Oracle(), {})
    assert seen
    for key in seen:
        with pytest.raises(CompatibilityViolated, match="disagrees with its value"):
            extend_bar_G(sig, k0_corrupting(bad=key), K0Oracle(), {})


@pytest.mark.parametrize("d,want", [(1, 0), (2, 0), (3, 1), (4, 0)])
def test_a_gamma_chain_value_computes_only_the_pentagons_no_face_covers(d, want, monkeypatch):
    """The engine compares a chain value with all of its faces' values, so
    Gamma's ``chain`` computes only the pentagon on all d + 1 vertices."""
    homs = random_chain(np.random.default_rng(90 + d), d, max_blocks=1, max_size=1)
    calls = []
    real = nerve.pentagon_residual

    def counting(simplex, *quad, **kw):
        calls.append(quad)
        return real(simplex, *quad, **kw)

    monkeypatch.setattr(nerve, "pentagon_residual", counting)
    gamma_functor().chain(homs)
    assert len(calls) == want


def twisting_gamma_simplex(dim):
    """gamma_simplex, except that the first simplex of dimension ``dim`` has
    its cell (0, 1, 2) multiplied by i before any check: still a valid
    CorrIso, but not Gamma's value."""
    twisted = []

    def wrapped(homs, *, validate=True, **kw):
        s = gamma_simplex(homs, validate=False, **kw)
        if s.n == dim and not twisted:
            s = twisted_cell(s, 1j)
            twisted.append(s)
        return validate_simplex(s) if validate else s

    return wrapped, twisted


@pytest.mark.parametrize(
    "dim,error", [(2, CompatibilityViolated), (3, PentagonViolated), (4, CompatibilityViolated)]
)
def test_every_twisted_gamma_chain_value_is_rejected(dim, error, monkeypatch):
    """The Gamma analogue of the test above.  At dimension 3 the value's one
    uncovered pentagon fails; at 2 and 4 no pentagon of the value is
    computed, and the comparison of a value with its faces' values rejects
    it.  A 3-simplex makes no chain value above dimension 3, so dimension 4
    runs on a 4-simplex of algebras C."""
    wrapped, twisted = twisting_gamma_simplex(dim)
    monkeypatch.setattr(extension, "gamma_simplex", wrapped)
    if dim < 4:
        sig = small_simplex(3, 0)
    else:
        sig = random_simplex(np.random.default_rng(34), 4, max_blocks=1, max_size=1, max_mult=1)
    with pytest.raises(error):
        extend_bar_G(sig, gamma_functor(), NCorrOracle(), {})
    assert twisted


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_full_support_chain_is_made_by_the_run(n, target):
    """A full-support chain is checked where its value is made, so the run
    must make every one; lower-support chains are made by the face runs."""
    functor, oracle = TARGETS[target]
    ext = extend_bar_G(small_simplex(n, 0), functor(), oracle(), {})
    full = frozenset(range(n + 1))
    for chains in enumerate_csd(n).values():
        for c in chains:
            if frozenset(c.subsets[-1] if c.subsets else c.vertices) == full:
                assert c in ext.vals


def test_a_failing_certificate_fails_the_special_fill():
    """A corner's image is certified invertible by the special fill itself.
    K-theory with every step zeroed is a consistent functor (each composite
    is still the product of its steps), but it sends the corner to a zero
    matrix: the fill's test of its last edge fails and refuses the run."""
    base = k0_functor()

    def chain(homs, composites=None, **kw):
        s = base.chain(homs, **kw)
        return K0Simplex(s.ranks, [0 * m for m in s.steps])

    sig = small_simplex(1, 0)
    assert not chain([subdivision_functor(sig).hom((1,), (0, 1))]).steps[0].any()
    with pytest.raises(OracleFillFailed, match=r"horn \(2,2\) at .*: last edge is not invertible"):
        extend_bar_G(sig, CstFunctor(base.vertex, chain), K0Oracle())


class MovedBoundaryOracle(K0Oracle):
    """Assembles each prism's last cell, then negates the edges into its last
    vertex, so the cell no longer carries the boundary it was given."""

    def fill_boundary(self, faces, **kw):
        return negate_last_step(super().fill_boundary(faces, **kw))


def test_prism_cell_check_rejects_a_moved_boundary():
    sig = random_simplex(np.random.default_rng(77), 1, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()
    with pytest.raises(CompatibilityViolated, match="face .* of prism cell"):
        extend_relative(CstHomotopy(F, F, identity_eta), [sig], MovedBoundaryOracle())


# -- one subdivision per top-level run -----------------------------------------


@pytest.mark.parametrize("pair", [((0,), (0, 1)), ((1,), (1, 2)), ((0,), (0, 2))])
def test_a_corrupted_face_hom_is_still_rejected(monkeypatch, pair):
    """Child runs restrict the parent's subdivision unchecked; the Bratteli
    data of a face hom, cut from a prefix hom whose entry in the cut moved
    by 1e-6, is caught by the top-level run's check.  f_(1),(12) is cut from
    f_(01),(012)'s unitor summand, which a prefix triple reads from n = 3 on
    (test_subdivision's UNITOR_CUTS_N2 says why not at n = 2)."""
    n = 3 if pair == ((1,), (1, 2)) else 2
    s = random_simplex(np.random.default_rng(21), n, max_mult=1)
    corrupt_isometries(monkeypatch, pair)
    with pytest.raises(FunctorialityViolated):
        extend_bar_G(s, k0_functor(), K0Oracle(), {})


def test_a_k0_run_builds_the_prefix_homs_only(monkeypatch):
    """K0 reads multiplicities only: a run at n = 3 builds the Bratteli data
    of the 6 prefix homs f_ab, a < b, through _isometries, and cuts the data
    of no other connecting hom, its children's included."""
    calls, real = [], subdivision._isometries

    def counting(sigma, data_s, data_t):
        calls.append((data_s.subset, data_t.subset))
        return real(sigma, data_s, data_t)

    monkeypatch.setattr(subdivision, "_isometries", counting)
    ext = extend_bar_G(small_simplex(3, 1), k0_functor(), K0Oracle(), {})
    prefixes = [tuple(range(m + 1)) for m in range(4)]
    assert calls == [(p, q) for a, p in enumerate(prefixes) for q in prefixes[a + 1 :]]
    cut = [f for (s, t), f in ext.sd.homs.items() if s not in prefixes or t not in prefixes]
    assert len(cut) == 65 - 10
    assert not any("_ws" in vars(f) or "matrix" in vars(f) for f in cut)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_one_subdivision_per_top_level_run(monkeypatch, target):
    calls = []

    def counting(sigma, **kw):
        calls.append(sigma.n)
        return subdivision_functor(sigma, **kw)

    monkeypatch.setattr(extension, "subdivision_functor", counting)
    functor, oracle = TARGETS[target]
    F, D, memo = functor(), oracle(), {}
    s = small_simplex(2, 1)
    ext = extend_bar_G(s, F, D, memo)
    assert calls == [2]
    # memo hits, the second on a face the run extended for itself
    assert extend_bar_G(s, F, D, memo) is ext
    assert extend_bar_G(face(s, 0), F, D, memo) is ext.children[(1, 2)]
    assert calls == [2]
    extend_bar_G(s, F, D, {})
    assert calls == [2, 2]


def test_a_run_with_another_functor_restricts_the_subdivision_left_in_the_memo(monkeypatch):
    """The memo's ("sd", eps, hash) entries are not tied to a functor: a
    later run over a face, with a second functor instance, restricts the
    subdivision the first run left there, as the two ends of
    extend_relative do."""
    calls = []

    def counting(sigma, **kw):
        calls.append(sigma.n)
        return subdivision_functor(sigma, **kw)

    monkeypatch.setattr(extension, "subdivision_functor", counting)
    D, memo = K0Oracle(), {}
    s = small_simplex(2, 1)
    extend_bar_G(s, k0_functor(), D, memo)
    assert calls == [2]
    top = extend_bar_G(face(s, 0), k0_functor(), D, memo).top()
    assert calls == [2]
    assert top == bar_F(face(s, 0), k0_functor(), D, {})


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_a_shared_memo_never_returns_a_run_checked_at_another_eps(tmp_path, target):
    """eps belongs to the run alone and keys the memo.  The noisy simplex's
    face homs compose within 1e-6, not within 1e-9: a run at 1e-6 succeeds
    with a default-built functor and oracle, and a run at 1e-9 on the same
    memo checks anew and refuses it, as a fresh run does."""
    noisy_simplex(tmp_path / "noisy.json")
    s = load_value(tmp_path / "noisy.json", eps=1e-6)
    functor, oracle = TARGETS[target]
    F, D, memo = functor(), oracle(), {}
    extend_bar_G(s, F, D, memo, eps=1e-6)
    for run_memo in (memo, {}):
        with pytest.raises(FunctorialityViolated, match="residual 2.370e-09"):
            extend_bar_G(s, F, D, run_memo, eps=1e-9)


# -- every guard of the engine and its targets, reached ------------------------


def test_qc_oracle_is_a_protocol_with_no_behaviour():
    """QCOracle is abstract: its seven methods are docstrings only, it cannot
    be built, and neither can an oracle that leaves one of them out."""
    methods = {"face", "degeneracy", "equal", "fill_inner_horn", "fill_special_outer_horn",
               "fill_boundary", "guided_fill"}
    assert extension.QCOracle.__abstractmethods__ == methods
    for name in methods:
        body = ast.parse(textwrap.dedent(inspect.getsource(getattr(extension.QCOracle, name))))
        assert [type(x) for x in body.body[0].body] == [ast.Expr], name
    with pytest.raises(TypeError):
        extension.QCOracle()

    class NoGuide(extension.QCOracle):
        face = degeneracy = equal = fill_inner_horn = K0Oracle.face
        fill_special_outer_horn = fill_boundary = K0Oracle.face

    with pytest.raises(TypeError, match="guided_fill"):
        NoGuide()


@pytest.mark.parametrize(
    "ranks,steps,message",
    [
        ((), [], "bad rank vector"),
        ((-1,), [], "bad rank vector"),
        ((2, 2), [], "2 ranks need 1 steps"),
        ((2.7,), (), "ranks must be integers"),
    ],
)
def test_k0_simplex_refuses_what_is_not_a_spine(ranks, steps, message):
    with pytest.raises(ShapeMismatch, match=message):
        K0Simplex(ranks, steps)


def test_k0_simplex_edges_equality_and_repr():
    s = K0Simplex((2, 2, 2), [M01, M12])
    with pytest.raises(IndexOutOfRange, match=r"edge \(0,3\) out of range"):
        s.edge(0, 3)
    assert s != "not a simplex" and s.__eq__(object()) is NotImplemented
    assert repr(s) == "K0Simplex(n=2, ranks=(2, 2, 2))"


def test_k0_oracle_refuses_a_boundary_below_dimension_2():
    v = K0Simplex((2,), ())
    with pytest.raises(Unfillable, match="below dimension 2"):
        K0Oracle().fill_boundary({0: v, 1: v})


def test_k0_guided_fill_is_the_boundary_the_proposal_completes():
    """K0 fills are unique, so the guided fill is the special fill when the
    proposal is that fill's missing face, and any other proposal is refused
    as a face that disagrees.  Like the special fill it refuses an inner
    horn.  Both invert the horn's last edge themselves."""
    o = K0Oracle()
    s = K0Simplex((2, 2, 2), [M12, M01])  # the last step is unimodular
    special = HornSpec(2, 2, {0: s.face(0), 1: s.face(1)})
    assert o.guided_fill(special, s.face(2)) == s
    with pytest.raises(Unfillable, match="not a special outer horn"):
        o.guided_fill(HornSpec(2, 1, {0: s.face(0), 2: s.face(2)}), s.face(1))
    assert o.fill_special_outer_horn(special) == s
    with pytest.raises(IncompatibleFaces, match="disagrees with the simplex the other faces make"):
        o.guided_fill(special, K0Simplex((2, 2), [M01]))
    assert list(inspect.signature(K0Oracle.guided_fill).parameters) == ["self", "horn", "proposal", "eps"]


def no_equivalence_tail(n):
    """Two n-simplices whose last edge is no equivalence: Γ of n - 1
    identities of C and then C -> M_2, x -> diag(x, x); and the K0 simplex
    of n - 1 identity steps and then [[0]]."""
    c = make_algebra((1,))
    ident, double = embedding_hom(c, c, [[1]]), embedding_hom(c, make_algebra((2,)), [[2]])
    k0 = K0Simplex((1,) * (n + 1), [[[1]]] * (n - 1) + [[[0]]])
    return gamma_simplex([ident] * (n - 1) + [double]), k0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_special_fill_refuses_a_last_edge_that_is_no_equivalence(n):
    """A special horn fills only when its last edge is an equivalence, and
    each fill tests that edge itself, in both targets and every dimension,
    whether it is asked for the fill or given the missing face as a
    proposal."""
    gamma, k0 = no_equivalence_tail(n)
    for oracle, s, error, words in (
        (NCorrOracle(), gamma, NotAnEquivalence, "not a permutation"),
        (K0Oracle(), k0, Unfillable, "last edge is not invertible"),
    ):
        horn = HornSpec(n, n, {j: oracle.face(s, j) for j in range(n)})
        with pytest.raises(error, match=words):
            oracle.fill_special_outer_horn(horn)
        with pytest.raises(error, match=words):
            oracle.guided_fill(horn, oracle.face(s, n))


def swap_hom(a):
    """The swap of the two summands of A = C (+) C."""
    return embedding_hom(a, a, np.array([[0, 1], [1, 0]]))


def swap_and_identity_chain():
    """On A = C (+) C: the simplex of the chain (id, id), and the 1-simplex
    of the swap, whose correspondence is not isomorphic to id_A."""
    a = make_algebra((1, 1))
    ident = embedding_hom(a, a, np.eye(2, dtype=np.int64))
    return gamma_simplex([ident, ident]), gamma_simplex([swap_hom(a)])


def twisted_cell(s, z):
    """s with its cell (0, 1, 2) multiplied by the unit z: still a valid
    CorrIso, but not the cell of s."""
    cells = dict(s.cells)
    c = cells[(0, 1, 2)]
    cells[(0, 1, 2)] = CorrIso(c.src, c.dst, [z * u for u in c.blocks])
    return NCorrSimplex(s.algebras, s.edges, cells)


def test_ncorr_guided_fill_refuses_what_does_not_fit():
    """NCorrOracle.guided_fill never declines.  It refuses what the special
    fill refuses (an inner horn, a horn below dimension 2), a proposed edge
    whose product with the last edge has no intertwiner to the composite
    edge, and from dimension 3 up a proposal the boundary assembly refuses.
    A proposal that fits is the fill's missing face."""
    o = NCorrOracle()
    s, swap = swap_and_identity_chain()
    special = HornSpec(2, 2, {0: face(s, 0), 1: face(s, 1)})
    with pytest.raises(Unfillable, match="not a special outer horn"):
        o.guided_fill(HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)}), swap)
    with pytest.raises(Unfillable, match="no intertwiner"):
        o.guided_fill(special, swap)
    proposal = face(s, 2)
    fill = o.guided_fill(special, proposal)
    assert o.equal(fill, s) and fill.edge(0, 1) is proposal.edge(0, 1)
    vertex = make_simplex([s.algebras[0]], {}, {})
    with pytest.raises(Unfillable, match="below dimension 2"):
        o.guided_fill(HornSpec(1, 1, {0: vertex}), vertex)
    ident = embedding_hom(s.algebras[0], s.algebras[0], np.eye(2, dtype=np.int64))
    t = gamma_simplex([ident] * 3)
    horn = HornSpec(3, 3, {j: face(t, j) for j in range(3)})
    assert o.equal(o.guided_fill(horn, face(t, 3)), t)
    with pytest.raises(PentagonViolated):
        o.guided_fill(horn, twisted_cell(face(t, 3), -1))
    with pytest.raises(IncompatibleFaces, match=r"disagree on edge \(0, 1\)"):
        o.guided_fill(horn, gamma_simplex([swap_hom(s.algebras[0])] * 2))
    assert list(inspect.signature(NCorrOracle.guided_fill).parameters) == ["self", "horn", "proposal", "eps"]


@pytest.mark.parametrize("n", [1, 2])
def test_a_proposal_that_does_not_fit_refuses_the_run(n):
    """The section's proposal is the run's top, so one that does not
    complete the run's special horn refuses the run, naming the horn, where
    the same functor with a fitting proposal lands on sigma.  At n = 1 the
    proposed edge is the swap's, whose product with the last edge has no
    intertwiner to the composite edge; at n = 2 it is sigma with its cell
    negated, which fails the pentagon of the assembled boundary."""
    a = make_algebra((1, 1))
    ident = embedding_hom(a, a, np.eye(2, dtype=np.int64))
    sig = gamma_simplex([ident] * n)
    fitting = gamma_functor([ident])
    assert structural_hash(bar_F(sig, fitting, NCorrOracle(), {})) == structural_hash(sig)
    wrong = gamma_simplex([swap_hom(a)]) if n == 1 else twisted_cell(sig, -1)
    F = dataclasses.replace(fitting, section=lambda s: wrong if s.n == n else fitting.section(s))
    top = extension._chain_str(AugChain(tuple(range(n + 1)), (tuple(range(n + 1)),)))
    with pytest.raises(OracleFillFailed, match=re.escape(f"horn ({n + 1},{n + 1}) at {top}: ")):
        bar_F(sig, F, NCorrOracle(), {})


def test_k0_functor_refuses_an_empty_or_broken_chain_and_a_non_invertible_corner():
    c, m2 = make_algebra((1,)), make_algebra((2,))
    double = embedding_hom(c, m2, [[2]])
    F = k0_functor()
    with pytest.raises(ShapeMismatch, match="at least one hom"):
        F.chain([])
    with pytest.raises(ShapeMismatch, match="do not compose"):
        F.chain([double, double])
    corner = F.chain([double])  # K0 of C -> M_2, x -> diag(x, x): [[2]]
    assert corner == K0Simplex((1, 1), [[[2]]])
    horn = HornSpec(2, 2, {0: corner, 1: K0Simplex((1, 1), [[[1]]])})
    with pytest.raises(Unfillable, match="last edge is not invertible"):
        K0Oracle().fill_special_outer_horn(horn)


@pytest.mark.parametrize(
    "order,message",
    [
        (lambda stages: tuple(reversed(stages)), "was needed before its fill"),
        (lambda stages: tuple((k, ts + ts) for k, ts in stages), "or its face was assigned twice"),
    ],
    ids=["reversed", "repeated"],
)
def test_the_engine_refuses_a_fill_order_that_breaks_its_invariants(monkeypatch, order, message):
    """The fill order makes every chain before a fill reads it, and each
    target once; a run made in the wrong order, or filling a target twice,
    stops at the first chain that shows it."""
    monkeypatch.setattr(extension, "_fill_targets", lambda n, real=extension._fill_targets: order(real(n)))
    with pytest.raises(CompatibilityViolated, match=message):
        extend_bar_G(small_simplex(2, 0), k0_functor(), K0Oracle(), {})


def test_relative_extension_refuses_unequal_words():
    sig = random_simplex(np.random.default_rng(77), 1, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()
    rel = extend_relative(CstHomotopy(F, F, identity_eta), [sig], K0Oracle())
    with pytest.raises(ShapeMismatch, match="equal length"):
        rel.value(sig, (0, 1), (0, 0, 1))


def test_a_prism_cell_is_built_before_it_is_read():
    """A RelExtension with no cells refuses a diagonal instead of guessing it."""
    sig = random_simplex(np.random.default_rng(77), 1, max_blocks=2, max_size=2, max_mult=1)
    rel = extension.RelExtension(K0Oracle(), None, ({}, {}), {structural_hash(sig): sig})
    with pytest.raises(CompatibilityViolated, match=r"prism cell \(0, 1\)/\(0, 1\) was needed"):
        rel.value(sig, (0, 1))


def shifted_eta(a):
    """An edge out of a vertex of one rank more than F0(A): not F0(A) -> F1(A)."""
    r = a.nblocks
    return K0Simplex((r + 1, r), [np.zeros((r, r + 1), dtype=np.int64)])


class FailingInnerOracle(K0Oracle):
    def fill_inner_horn(self, horn, **kw):
        raise Unfillable("this target has no inner fills")


class LyingInnerOracle(K0Oracle):
    """Returns its inner fills with the first step moved: a simplex that
    does not carry the horn's faces."""

    def fill_inner_horn(self, horn, **kw):
        return moved_step(super().fill_inner_horn(horn, **kw), 0)


@pytest.mark.parametrize(
    "eta,oracle,error,message",
    [
        (shifted_eta, K0Oracle, BoundaryMismatch, "eta does not connect"),
        (identity_eta, FailingInnerOracle, OracleFillFailed, r"prism horn \(2,1\): this target"),
        (identity_eta, LyingInnerOracle, OracleFillFailed, "oracle changed face 2 of a prism horn"),
    ],
    ids=["bad-eta", "failing-oracle", "lying-oracle"],
)
def test_relative_extension_refuses_a_bad_eta_and_a_failing_or_lying_oracle(eta, oracle, error, message):
    """Over an edge the boundary runs make only special fills, so each
    oracle fault shows first in the prism's inner horn."""
    sig = random_simplex(np.random.default_rng(77), 1, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()
    with pytest.raises(error, match=message):
        extend_relative(CstHomotopy(F, F, eta), [sig], oracle())


# -- the prism run is the bar run's engine ----------------------------------------


def shuffle(q, t):
    """The shuffle of the prism over a q-simplex turning at vertex t, as
    its base vertex map and time word."""
    alpha = tuple(range(t + 1)) + tuple(range(t, q + 1))
    return alpha, (0,) * (t + 1) + (1,) * (q + 1 - t)


@pytest.mark.parametrize("n", [1, 2])
def test_the_prism_run_traces_q_inner_horns_then_one_boundary_cell(n):
    """Members are filled in order of dimension; each q-simplex's prism
    records q inner horns (q+1, q) ... (q+1, 1), whose missing faces are the
    diagonals, then its last shuffle, filled from its whole boundary.  Each
    record names its member by its structural hash's first 12 characters,
    so the records of two members of one dimension differ (over a
    2-simplex, its three edges' records are three distinct pairs)."""
    sig, F0, F1, P, eta = relative_setup(np.random.default_rng(10 * n), n, False)
    rel = extend_relative(CstHomotopy(F0, F1, eta), [sig], K0Oracle())
    members = [s for s in sorted(nerve._face_closure([sig]).values(), key=lambda s: s.n) if s.n >= 1]
    want = []
    for s in members:
        q = s.n
        for t in [*range(q, 0, -1), 0]:
            alpha, w = shuffle(q, t)
            kind, k = ("inner", t) if t else ("boundary", None)
            want.append(
                {"chain": f"{alpha}/{w}", "horn": (q + 1, k), "kind": kind, "guided": False,
                 "member": structural_hash(s)[:12]}
            )
    assert rel.trace == want
    edges = [tuple(r.items()) for r in rel.trace if r["horn"][0] == 2]
    assert len(set(edges)) == len(edges) == 2 * (3 if n == 2 else 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_full_support_prism_cell_is_made_by_the_run(n):
    """A nondegenerate cell over a member, on all its vertices and at both
    times, is a shuffle or a diagonal (over a vertex, eta's edge): the run
    makes and checks every one, so each must be in its values; the rest
    resolve by rule."""
    sig, F0, F1, P, eta = relative_setup(np.random.default_rng(10 * n + 1), n, False)
    rel = extend_relative(CstHomotopy(F0, F1, eta), [sig], K0Oracle())
    for s in closure(sig):
        q, made = s.n, 0
        for m in range(q + 1, q + 3):
            for alpha in itertools.combinations_with_replacement(range(q + 1), m):
                for ones in range(1, m):
                    pairs = tuple(zip(alpha, (0,) * (m - ones) + (1,) * ones))
                    if set(alpha) != set(range(q + 1)) or len(set(pairs)) < m:
                        continue
                    assert (structural_hash(s), pairs) in rel.vals
                    made += 1
        # q diagonals and q + 1 shuffles (eta's edge over a vertex)
        assert made == 2 * q + 1

"""The arrow calculus: Gamma on homs, linking-algebra factorizations,
equivalence inverses."""

import gc
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import bicategory
from corrlab.acceptance import _iso_residuals, k0_of_corr, run_suite
from corrlab.algebra import (
    StarHom,
    _traced_mult,
    compose_homs,
    identity_hom,
    is_full_hom,
    make_algebra,
    make_star_hom,
)
from corrlab.bicategory import (
    equivalence_inverse,
    find_corr_iso,
    gamma_isometries,
    gamma_multiplicativity,
    gamma_of_hom,
    u_of_corr,
)
from corrlab.errors import (
    EndpointMismatch,
    InvalidAlgebra,
    NotAnEquivalence,
    NotMultiplicative,
    ValidationError,
)
from corrlab.extension import k0_matrix
from corrlab.generators import (
    embedding_hom,
    random_algebra,
    random_chain,
    random_correspondence,
    random_equivalence,
    random_simplex,
    random_unital_hom,
)
from corrlab.linalg import int_inverse
from corrlab.modules import (
    CorrIso,
    Correspondence,
    corr_close,
    identity_corr,
    make_module,
    tensor_corrs,
)
from corrlab.nerve import gamma_simplex
from corrlab.subdivision import subdivision_functor
from reference import apply, corner_algebra, direct_sum_corrs, is_equivalence, random_element


def test_gamma_of_identity_is_the_identity_corr():
    b = make_algebra((2, 1))
    g = gamma_of_hom(identity_hom(b))
    assert corr_close(g, identity_corr(b))


@pytest.mark.parametrize("seed", range(5))
def test_gamma_of_unital_hom_has_full_module(seed):
    rng = np.random.default_rng(seed)
    phi = random_unital_hom(random_algebra(rng, max_blocks=2, max_size=2), rng)
    g = gamma_of_hom(phi)
    assert g.module.mult == phi.dst.blocks
    assert g.src == phi.src and g.dst == phi.dst


def test_gamma_of_corner_embedding_cuts_the_module():
    rng = np.random.default_rng(3)
    a, b = make_algebra((2,)), make_algebra((2, 2))
    phi = embedding_hom(a, b, np.array([[1, 0]]), rng)
    g = gamma_of_hom(phi)
    # phi(1)B only meets the first block
    assert g.module.mult == (2, 0)
    assert not is_equivalence(g)


@pytest.mark.parametrize("seed", range(10))
def test_gamma_multiplicativity_residuals(seed):
    rng = np.random.default_rng(seed)
    phi, psi = random_chain(rng, 2, max_blocks=2, max_size=2, max_mult=1)
    w = gamma_multiplicativity(psi, phi)
    assert max(_iso_residuals(w)) < 1e-9
    # it starts at the product kept on Gamma phi
    assert w.src is tensor_corrs(gamma_of_hom(phi), gamma_of_hom(psi)).corr
    # with a supplied composite it lands on the Gamma kept on that hom
    comp = compose_homs(psi, phi)
    target = gamma_of_hom(comp)
    w2 = gamma_multiplicativity(psi, phi, comp=comp)
    assert w2.dst is target


def test_gamma_multiplicativity_rejects_non_composable():
    rng = np.random.default_rng(1)
    a, b = make_algebra((2,)), make_algebra((3,))
    phi = embedding_hom(a, b, np.array([[1]]), rng)
    with pytest.raises(EndpointMismatch):
        gamma_multiplicativity(phi, phi)


@pytest.mark.parametrize("seed", range(10))
def test_u_of_corr_factorization(seed):
    rng = np.random.default_rng(seed + 100)
    a = random_algebra(rng, max_blocks=2, max_size=2)
    b = random_algebra(rng, max_blocks=2, max_size=2)
    corr = random_correspondence(a, b, rng)
    fact = u_of_corr(corr)
    # L = K(E (+) B), so its blocks add the module and algebra sizes
    assert fact.linking.blocks == tuple(
        m + n for m, n in zip(corr.module.mult, b.blocks)
    )
    assert fact.j_hom.src == a and fact.j_hom.dst == fact.linking
    assert fact.i_hom.src == b and fact.i_hom.dst == fact.linking
    assert is_full_hom(fact.i_hom)
    assert corr_close(fact.gamma_j, gamma_of_hom(fact.j_hom))
    assert fact.iso.dst is corr or corr_close(fact.iso.dst, corr)
    assert max(_iso_residuals(fact.iso)) < 1e-9
    # the K-theory certificate: K0(i) is invertible over the integers
    ki = k0_matrix(fact.i_hom)
    assert np.array_equal(ki @ int_inverse(ki), np.eye(ki.shape[0], dtype=np.int64))
    assert np.array_equal(
        int_inverse(ki) @ k0_matrix(fact.j_hom), k0_of_corr(corr)
    )


@pytest.mark.parametrize("seed", range(10))
def test_equivalence_inverse_counits(seed):
    rng = np.random.default_rng(seed + 200)
    b = random_algebra(rng, max_blocks=2, max_size=2)
    e = random_equivalence(b, rng)
    w = equivalence_inverse(e)
    assert w.inverse.src == e.dst and w.inverse.dst == e.src
    assert max(_iso_residuals(w.counit_left)) < 1e-9
    assert max(_iso_residuals(w.counit_right)) < 1e-9
    assert corr_close(w.counit_left.dst, identity_corr(e.src))
    assert corr_close(w.counit_right.dst, identity_corr(e.dst))


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_equivalence_unitaries_conjugate_their_blocks(seed):
    """Each unitary is the normal form of the action at its compact block:
    lambda(x)_k = u x_i u^*; both counits pass the CorrIso check."""
    rng = np.random.default_rng(seed)
    e = random_equivalence(random_algebra(rng), rng)
    w = equivalence_inverse(e)
    x = random_element(e.src, rng)
    lam_x = apply(e.lam, x)
    for i, (k, u) in enumerate(zip(w.block_map, w.unitaries)):
        got = lam_x.mats[e.module.compact_pos(k)]
        assert np.abs(got - u @ x.mats[i] @ u.conj().T).max() <= 1e-12
    for c in (w.counit_left, w.counit_right):
        CorrIso(c.src, c.dst, c.blocks, eps=1e-12)


def test_equivalence_inverse_refuses_an_unchecked_action_of_the_wrong_rank():
    """lambda(e_00) = lambda(e_11) = 1/2 on M_2: trace 1, so the
    multiplicities pass as a permutation, but the image has rank 2."""
    a = make_algebra((2,))
    module = make_module(make_algebra((1,)), [2])
    lam = np.zeros((4, 4), dtype=complex)
    lam[[0, 3], 0] = lam[[0, 3], 3] = 0.5
    kc = module.compacts
    corr = Correspondence(a, module, StarHom(a, kc, lam, _traced_mult(a, kc, lam)))
    with pytest.raises(NotMultiplicative):
        equivalence_inverse(corr)


def test_is_equivalence():
    rng = np.random.default_rng(5)
    b = random_algebra(rng, max_blocks=2, max_size=2)
    assert is_equivalence(random_equivalence(b, rng))
    assert is_equivalence(identity_corr(b))
    # a multiplicity-2 embedding is not invertible
    a, c = make_algebra((1,)), make_algebra((2,))
    doubled = gamma_of_hom(embedding_hom(a, c, np.array([[2]]), rng))
    assert not is_equivalence(doubled)
    with pytest.raises(NotAnEquivalence):
        equivalence_inverse(doubled)


@pytest.mark.parametrize(
    "src,base,mult,lam_mult,message",
    [
        ((1,), (1, 1), [1, 0], [[1]], "not full"),  # B's second block is missed
        ((1, 1), (1,), [2], [[1], [1]], "not a permutation"),  # two A blocks on one
        ((1,), (1,), [2], [[2]], "not a permutation"),  # M_1 twice in the compacts M_2
    ],
    ids=["not-full", "two-blocks-on-one", "size-mismatch"],
)
def test_what_is_not_an_equivalence_is_refused(src, base, mult, lam_mult, message):
    """Fullness and a permutation of multiplicities are the whole test: the
    action is unital on the compacts, so each A block then has its compact
    block's size, and the inverse's action is unital by construction."""
    a, module = make_algebra(src), make_module(make_algebra(base), mult)
    lam = embedding_hom(a, module.compacts, np.array(lam_mult), np.random.default_rng(0))
    with pytest.raises(NotAnEquivalence, match=message):
        equivalence_inverse(Correspondence(a, module, lam))


def test_find_corr_iso():
    rng = np.random.default_rng(9)
    b = random_algebra(rng, max_blocks=2, max_size=2)
    e = random_equivalence(b, rng)
    w = find_corr_iso(e, e)
    assert w is not None and max(_iso_residuals(w)) < 1e-9
    other = random_correspondence(make_algebra((3,)), b, rng)
    assert find_corr_iso(e, other) is None


def test_find_corr_iso_declines_only_on_validation_errors(monkeypatch):
    from corrlab import bicategory
    from corrlab.errors import NotUnitary

    rng = np.random.default_rng(9)
    e = random_equivalence(random_algebra(rng, max_blocks=2, max_size=2), rng)

    def not_unitary(*args, **kw):
        raise NotUnitary("blocks are not unitary", 1.0)

    monkeypatch.setattr(bicategory, "CorrIso", not_unitary)
    assert find_corr_iso(e, e) is None

    def broken(*args, **kw):
        raise TypeError("a programming error")

    monkeypatch.setattr(bicategory, "CorrIso", broken)
    with pytest.raises(TypeError):
        find_corr_iso(e, e)


def assert_certified(h):
    """The validating constructor accepts h and derives the same data."""
    checked = make_star_hom(h.src, h.dst, h.matrix)
    assert np.array_equal(checked.mult_matrix, h.mult_matrix)
    assert checked.unital == h.unital


@pytest.mark.parametrize("seed", range(4))
def test_certified_constructions_pass_validation(seed):
    rng = np.random.default_rng(seed + 40)
    phi, psi = random_chain(rng, 2, max_blocks=2, max_size=2, max_mult=2)
    assert_certified(identity_hom(phi.src))
    assert_certified(compose_homs(psi, phi))
    assert_certified(gamma_of_hom(phi).lam)
    corr = random_correspondence(phi.src, phi.dst, rng)
    fact = u_of_corr(corr)
    assert_certified(fact.j_hom)
    assert_certified(fact.i_hom)
    assert_certified(tensor_corrs(fact.gamma_j, fact.x_corr).corr.lam)
    assert_certified(tensor_corrs(gamma_of_hom(phi), gamma_of_hom(psi)).corr.lam)
    assert_certified(direct_sum_corrs([corr, corr])[0].lam)
    e = random_equivalence(random_algebra(rng, max_blocks=2, max_size=2), rng)
    assert_certified(equivalence_inverse(e).inverse.lam)
    p = np.zeros(phi.dst.dim, dtype=complex)
    p[0] = 1.0  # e_00 of block 0
    assert_certified(corner_algebra(p, phi.dst).inclusion)
    sd = subdivision_functor(random_simplex(rng, 2, twist=bool(seed % 2), max_mult=1))
    for h in sd.homs.values():
        assert_certified(h)


# ---------------------------------------------------------------------------
# Gamma is derived once per hom value and kept on each hom


def test_gamma_of_hom_is_kept_on_the_hom():
    rng = np.random.default_rng(21)
    phi = random_unital_hom(random_algebra(rng, max_blocks=2, max_size=2), rng)
    g = gamma_of_hom(phi)
    assert gamma_of_hom(phi) is g
    assert gamma_isometries(phi) is gamma_isometries(phi)
    assert all(not v.flags.writeable for v in gamma_isometries(phi))
    # one entry per kind: no caller's eps makes another
    assert set(phi._gamma) == {"range", "corr"} and phi._gamma["corr"] is g
    # a byte-equal twin, another object on a copy of the matrix, gets the
    # same Gamma and isometries, kept on it in turn
    m = phi.matrix.copy()
    twin = StarHom(phi.src, phi.dst, m, _traced_mult(phi.src, phi.dst, m))
    assert gamma_of_hom(twin) is g and twin._gamma["corr"] is g
    assert gamma_isometries(twin) is gamma_isometries(phi)


NAN_A, NAN_B = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("x, y", [(0.0, -0.0), (NAN_A, NAN_B)], ids=["signed-zero", "nan-payload"])
def test_a_hom_that_differs_only_in_bits_gets_its_own_gamma(x, y):
    """0.0 and -0.0 compare equal, two NaNs unordered, yet their bits
    differ: two homs that differ in one such entry get two Gammas, and a
    copy of either gets that one's."""
    phi = embedding_hom(make_algebra((1, 1)), make_algebra((2,)), [[1], [1]])  # C (+) C on the diagonal
    r, c = np.argwhere(phi.matrix == 0)[0]

    def variant(entry):
        m = phi.matrix.copy()
        m[r, c] = entry
        return StarHom(phi.src, phi.dst, m, phi.mult_matrix)

    gx, gy = gamma_of_hom(variant(x)), gamma_of_hom(variant(y))
    assert gx is not gy
    assert gamma_of_hom(variant(x)) is gx and gamma_of_hom(variant(y)) is gy


def test_a_section_exact_diagram_builds_each_gamma_and_cell_once(monkeypatch):
    """One section-exact diagram at seed 42: each hom value gets one Gamma
    and each triple of Gammas one cell.  Kept per hom object, its homs,
    recomposed and rebuilt by each bar_F on the shared memo, made 130
    Gammas for these 42 values and 56 cells."""
    values, cells, alive = Counter(), Counter(), []
    make_module, blocks = bicategory.make_module, bicategory._intertwiner_blocks

    def counting_module(base, mult):
        caller = sys._getframe(1)
        if caller.f_code is gamma_of_hom.__code__:
            phi = caller.f_locals["phi"]
            values[phi.src.blocks, phi.dst.blocks, phi.mult_matrix.tobytes(), phi.matrix.tobytes()] += 1
        return make_module(base, mult)

    def counting_blocks(tp, dst, action):
        if sys._getframe(1).f_code is gamma_multiplicativity.__code__:
            alive.append((tp, dst))  # no id is reused while the run counts
            cells[id(tp), id(dst)] += 1
        return blocks(tp, dst, action)

    monkeypatch.setattr(bicategory, "make_module", counting_module)
    monkeypatch.setattr(bicategory, "_intertwiner_blocks", counting_blocks)
    assert run_suite("section-exact", seed=42, trials=1).ok
    assert set(values.values()) == {1} and set(cells.values()) == {1}
    assert (len(values), len(cells)) == (42, 29)


@pytest.mark.parametrize("phi_is_id", [False, True], ids=["left", "both"])
def test_a_cell_on_its_own_factor_leaves_nothing_unreachable(phi_is_id):
    """id . phi is phi, so that cell lands on Gamma phi, the left factor of
    the product that keeps it, and with phi = id on both factors.  With the
    collector off, dropping the homs and the cell frees every Gamma, the
    product and the cell, and the value table drops their entries: neither
    the table nor the cells close a cycle."""
    rng = np.random.default_rng(24)
    gc.collect()
    gc.disable()
    try:
        phi = random_unital_hom(random_algebra(rng, max_blocks=2, max_size=2), rng)
        psi = identity_hom(phi.dst)
        phi = psi if phi_is_id else phi
        twin = StarHom(phi.src, phi.dst, phi.matrix.copy(), phi.mult_matrix)
        cell = gamma_multiplicativity(psi, phi, comp=twin)
        g, tp = gamma_of_hom(phi), tensor_corrs(gamma_of_hom(phi), gamma_of_hom(psi))
        assert cell.dst is g and tp.left is g and tp.cells[g] is cell
        assert gamma_multiplicativity(psi, twin, comp=phi) is cell
        key = (phi.src.blocks, phi.dst.blocks, phi.mult_matrix.tobytes())
        assert len(bicategory._GAMMAS[key]) == 1
        refs = [weakref.ref(x) for x in (g, gamma_of_hom(psi), tp, cell)]
        del phi, psi, twin, cell, g, tp
        assert [r() for r in refs] == [None] * len(refs)
        assert key not in bicategory._GAMMAS
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gamma_simplex_shares_edges_across_chains():
    f01, f12, f23 = random_chain(np.random.default_rng(22), 3, max_blocks=2, max_size=2)
    s = gamma_simplex([f01, f12])
    t = gamma_simplex([f12, f23])
    assert s.edges[(1, 2)] is t.edges[(0, 1)] is gamma_of_hom(f12)


def test_gamma_dies_with_its_hom():
    rng = np.random.default_rng(23)
    phi = random_unital_hom(random_algebra(rng, max_blocks=2, max_size=2), rng)
    ref = weakref.ref(gamma_of_hom(phi))
    gc.collect()
    assert ref() is not None
    del phi
    gc.collect()
    assert ref() is None


def test_the_zero_hom_has_no_correspondence():
    zero = make_star_hom(make_algebra((1,)), make_algebra((2,)), np.zeros((4, 1)))
    with pytest.raises(InvalidAlgebra, match="zero homomorphism"):
        gamma_of_hom(zero)


def test_a_multiplicativity_cell_refuses_a_composite_off_its_ends():
    rng = np.random.default_rng(4)
    phi, psi = random_chain(rng, 2, max_blocks=2, max_size=2, max_mult=1)
    with pytest.raises(EndpointMismatch, match="composite endpoints"):
        gamma_multiplicativity(psi, phi, comp=phi)


def test_find_corr_iso_declines_actions_of_other_multiplicities():
    """id and the swap of C (+) C have one module, C^1 (+) C^1, and actions
    of different multiplicity matrices, so they are not isomorphic."""
    a = make_algebra((1, 1))
    ident = gamma_of_hom(embedding_hom(a, a, np.eye(2, dtype=np.int64)))
    swap = gamma_of_hom(embedding_hom(a, a, np.array([[0, 1], [1, 0]])))
    assert ident.module == swap.module and find_corr_iso(ident, swap) is None
    assert find_corr_iso(swap, swap) is not None

"""Hilbert modules, correspondences, tensor products and intertwiners.

The tensor product is cross-checked against an independent oracle: the
dimension of the algebraic balanced tensor product E (x) F modulo the
relations x.b (x) y - x (x) b.y, computed by brute-force rank.
"""

import gc
import math
import os
import pathlib
import subprocess
import sys
import warnings
import weakref
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrlab.acceptance import run_suite
from corrlab.algebra import FdCstarAlgebra, StarHom, _raise_first, _traced_mult, make_algebra, make_star_hom
from corrlab.errors import (
    BaseMismatch,
    EndpointMismatch,
    InvalidAlgebra,
    NotIntertwining,
    NotMultiplicative,
    NotRightLinear,
    NotUnitary,
    ShapeMismatch,
)
from corrlab import modules, nerve
from corrlab.generators import (
    embedding_hom,
    random_algebra,
    random_correspondence,
    random_equivalence,
    random_simplex,
    random_unitary,
    twist_edge,
)
from corrlab.linalg import frob
from corrlab.modules import (
    Correspondence,
    CorrIso,
    _dense_iso,
    _iso_faults,
    associator,
    compose_isos,
    corr_close,
    direct_sum_modules,
    identity_corr,
    is_full_corr,
    iso_distance,
    left_unitor,
    make_correspondence,
    make_iso,
    make_module,
    right_unitor,
    tensor_corrs,
    tensor_iso,
)
from corrlab.nerve import identity_iso

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
from reference import (
    alg_from_vec,
    apply,
    apply_iso,
    direct_sum_corrs,
    basis_triples,
    embed,
    from_vec,
    general_product,
    gram_onb,
    identity,
    left_mul,
    matrix_unit,
    pure_tensor,
    random_element,
    section,
    zero,
)


def module_basis(module):
    out = []
    for p in range(module.dim):
        v = np.zeros(module.dim, dtype=complex)
        v[p] = 1.0
        out.append(from_vec(module, v))
    return out


def algebra_basis(algebra):
    out = []
    for p in range(algebra.dim):
        v = np.zeros(algebra.dim, dtype=complex)
        v[p] = 1.0
        out.append(alg_from_vec(algebra, v))
    return out


def random_mod_elem(module, rng):
    return from_vec(
        module, rng.normal(size=module.dim) + 1j * rng.normal(size=module.dim)
    )


def mod_close(x, y, eps=1e-9):
    return frob(x.to_vec() - y.to_vec()) < eps


def composable_pair(rng, max_mult=1):
    """Two correspondences A -> B -> C whose tensor product is nonzero."""
    while True:
        a = random_algebra(rng, max_blocks=2, max_size=2)
        b = random_algebra(rng, max_blocks=2, max_size=2)
        c = random_algebra(rng, max_blocks=2, max_size=2)
        e = random_correspondence(a, b, rng, max_mult=max_mult)
        f = random_correspondence(b, c, rng, max_mult=max_mult)
        try:
            return e, f, tensor_corrs(e, f)
        except InvalidAlgebra:
            continue


def test_module_shape():
    b = make_algebra((2, 1))
    m = make_module(b, (3, 0))
    assert m.dim == 6
    assert m.compacts.blocks == (3,)
    assert m.kept == (0,)
    assert m.compact_pos(1) is None
    rng = np.random.default_rng(0)
    v = rng.normal(size=m.dim) + 1j * rng.normal(size=m.dim)
    assert frob(from_vec(m, v).to_vec() - v) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_inner_product_axioms(seed):
    """The Hilbert-module axioms on a correspondence's module, and its
    left action: multiplicative and adjointable, <a x, y> = <x, a* y>."""
    rng = np.random.default_rng(seed)
    a, b = random_algebra(rng, max_blocks=2, max_size=3), random_algebra(rng, max_blocks=2, max_size=3)
    e = random_correspondence(a, b, rng, max_mult=2)
    x, y = random_mod_elem(e.module, rng), random_mod_elem(e.module, rng)
    c = random_element(b, rng)
    assert x.inner(y).adjoint().is_close(y.inner(x), eps=1e-9)
    assert x.inner(y.right_mul(c)).is_close(x.inner(y) @ c, eps=1e-9)
    for blk in x.inner(x).mats:
        assert np.linalg.eigvalsh(blk).min() > -1e-9
    assert mod_close(x.right_mul(c).right_mul(c), x.right_mul(c @ c))
    d, d2 = random_element(a, rng), random_element(a, rng)
    assert mod_close(left_mul(e, d @ d2, x), left_mul(e, d, left_mul(e, d2, x)))
    assert left_mul(e, d, x).inner(y).is_close(x.inner(left_mul(e, d.adjoint(), y)), eps=1e-9)


def test_direct_sum_modules():
    b = make_algebra((2, 2))
    m1, m2 = make_module(b, (1, 2)), make_module(b, (2, 0))
    total, starts = direct_sum_modules([m1, m2])
    assert total.mult == (3, 2)
    # starts[part][block] is the first row of that summand
    assert starts == ((0, 0), (1, 2))


def test_identity_corr_is_full():
    b = make_algebra((2, 1))
    c = identity_corr(b)
    assert c.module.mult == b.blocks
    assert c.lam.unital
    assert is_full_corr(c)


def test_corr_missing_a_block_is_not_full():
    rng = np.random.default_rng(1)
    b = make_algebra((2, 2))
    src = make_algebra((1,))
    c = random_correspondence(src, b, rng)
    m = make_module(b, (max(c.module.mult[0], 1), 0))
    lam_m = c.lam.matrix[: m.compacts.dim]
    lam = StarHom(src, m.compacts, lam_m, _traced_mult(src, m.compacts, lam_m))
    assert not is_full_corr(Correspondence(src, m, lam))
    # block sizes on both sides of 6: full exactly when no multiplicity is zero
    b = make_algebra((6, 7))
    for mult, full in (((1, 1), True), ((2, 1), True), ((1, 0), False), ((0, 1), False)):
        m = make_module(b, mult)
        lam = make_star_hom(src, m.compacts, identity(m.compacts).to_vec()[:, None])
        assert is_full_corr(Correspondence(src, m, lam)) == full, mult


def balanced_quotient_dim(e_corr, f_corr, k):
    """dim of (E (x)_B F) in target block k, by brute-force relation rank."""
    b = e_corr.dst
    f_mod = f_corr.module
    n_k = f_mod.base.blocks[k]
    df = f_mod.mult[k] * n_k
    if df == 0:
        return 0
    e_basis = module_basis(e_corr.module)
    f_basis = []
    for q in range(f_mod.mult[k]):
        for col in range(n_k):
            y = zero(f_mod)
            y.mats[k][q, col] = 1.0
            f_basis.append(y)
    de = len(e_basis)
    rels = []
    for x in e_basis:
        xv = x.to_vec()
        for bb in algebra_basis(b):
            xb = x.right_mul(bb).to_vec()
            for y in f_basis:
                yv = y.mats[k].ravel()
                byv = left_mul(f_corr, bb, y).mats[k].ravel()
                rels.append(np.outer(xb, yv).ravel() - np.outer(xv, byv).ravel())
    rank = np.linalg.matrix_rank(np.array(rels).T, tol=1e-7)
    return de * df - rank


@pytest.mark.parametrize("seed", range(8))
def test_tensor_dims_match_balanced_quotient(seed):
    rng = np.random.default_rng(seed)
    e, f, tp = composable_pair(rng, max_mult=2)
    for k, size in enumerate(f.dst.blocks):
        assert tp.module.mult[k] * size == balanced_quotient_dim(e, f, k)


@pytest.mark.parametrize("seed", range(6))
def test_pure_tensor_inner_products_balance(seed):
    rng = np.random.default_rng(seed + 10)
    e, f, tp = composable_pair(rng)
    x, x2 = random_mod_elem(e.module, rng), random_mod_elem(e.module, rng)
    y, y2 = random_mod_elem(f.module, rng), random_mod_elem(f.module, rng)
    lhs = pure_tensor(tp, x, y).inner(pure_tensor(tp, x2, y2))
    rhs = y.inner(left_mul(f, x.inner(x2), y2))
    assert lhs.is_close(rhs, eps=1e-9)
    # the defining balanced relation
    bb = random_element(f.src, rng)
    t1 = pure_tensor(tp, x.right_mul(bb), y)
    t2 = pure_tensor(tp, x, left_mul(f, bb, y))
    assert frob(t1.to_vec() - t2.to_vec()) < 1e-9


def test_embed_section_roundtrip():
    rng = np.random.default_rng(21)
    e, f, tp = composable_pair(rng)
    z = random_mod_elem(tp.module, rng)
    rep = section(tp, z)
    acc = zero(tp.module)
    for (j, aa), w in rep.items():
        acc = acc + embed(tp, j, aa, w)
    assert frob(acc.to_vec() - z.to_vec()) < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_unitors_act_as_expected(seed):
    rng = np.random.default_rng(seed + 30)
    a = random_algebra(rng, max_blocks=2, max_size=2)
    b = random_algebra(rng, max_blocks=2, max_size=2)
    f = random_correspondence(a, b, rng)
    ida, idb = identity_corr(a), identity_corr(b)

    tp_l = tensor_corrs(ida, f)
    lu = left_unitor(tp_l)
    x = random_element(a, rng)
    y = random_mod_elem(f.module, rng)
    x_mod = from_vec(ida.module, x.to_vec())
    got = apply_iso(lu, pure_tensor(tp_l, x_mod, y))
    want = left_mul(f, x, y)
    assert frob(got.to_vec() - want.to_vec()) < 1e-9

    tp_r = tensor_corrs(f, idb)
    ru = right_unitor(tp_r)
    bb = random_element(b, rng)
    b_mod = from_vec(idb.module, bb.to_vec())
    got = apply_iso(ru, pure_tensor(tp_r, y, b_mod))
    want = y.right_mul(bb)
    assert frob(got.to_vec() - want.to_vec()) < 1e-9


def test_unitors_refuse_a_conjugated_identity():
    """id_B conjugated by a non-trivial unitary is isomorphic to id_B but is
    not it, so neither unitor takes it as its identity factor."""
    rng = np.random.default_rng(31)
    b = make_algebra((2, 1))
    lam = embedding_hom(b, b, np.eye(2, dtype=int), rng)
    twisted = Correspondence(b, make_module(b, b.blocks), lam)
    assert not corr_close(twisted, identity_corr(b))
    f = random_correspondence(b, random_algebra(rng, max_blocks=2, max_size=2), rng)
    with pytest.raises(EndpointMismatch, match="left factor"):
        left_unitor(tensor_corrs(twisted, f))
    g = random_correspondence(random_algebra(rng, max_blocks=2, max_size=2), b, rng)
    with pytest.raises(EndpointMismatch, match="right factor"):
        right_unitor(tensor_corrs(g, twisted))


def test_unit_cells_build_no_identity_corr(monkeypatch):
    """Building every unit cell of a simplex makes no identity correspondence
    beyond the identity edges the simplex holds: the unitors compare their
    identity factor with the one kept on its algebra, which is that edge."""
    s = random_simplex(np.random.default_rng(7), 3, twist=True, max_mult=1)
    held = [s.edge(i, i) for i in range(s.n + 1)]
    got = []
    real = modules.identity_corr

    def recording(b):
        got.append(real(b))
        return got[-1]

    monkeypatch.setattr(modules, "identity_corr", recording)
    monkeypatch.setattr(nerve, "identity_corr", recording)
    for i, j, k in combinations_with_replacement(range(s.n + 1), 3):
        if not i < j < k:
            s.cell(i, j, k)
    assert got and all(any(c is h for h in held) for c in got)


@pytest.mark.parametrize("seed", range(4))
def test_associator_on_pure_tensors(seed):
    rng = np.random.default_rng(seed + 40)
    while True:
        e, f, tp_ef = composable_pair(rng)
        g = random_correspondence(f.dst, random_algebra(rng, max_blocks=2, max_size=2), rng)
        try:
            tp_fg = tensor_corrs(f, g)
            tp_efg = tensor_corrs(tp_ef.corr, g)
            tp_e_fg = tensor_corrs(e, tp_fg.corr)
            break
        except InvalidAlgebra:
            continue
    al = associator(tp_ef, tp_efg, tp_fg, tp_e_fg)
    x = random_mod_elem(e.module, rng)
    y = random_mod_elem(f.module, rng)
    z = random_mod_elem(g.module, rng)
    got = apply_iso(al, pure_tensor(tp_efg, pure_tensor(tp_ef, x, y), z))
    want = pure_tensor(tp_e_fg, x, pure_tensor(tp_fg, y, z))
    assert frob(got.to_vec() - want.to_vec()) < 1e-9


def conjugate_iso(e, rng):
    """A random valid CorrIso e -> e', where e' is e with its left action
    conjugated by random unitaries V_k, one per base block."""
    v = [random_unitary(m, rng) for m in e.module.mult]
    cs = e.module.compacts
    cols = []
    for col in e.lam.matrix.T:
        imgs = []
        for kp, k in enumerate(e.module.kept):
            o, m = cs.offset(kp), cs.blocks[kp]
            imgs.append((v[k] @ col[o : o + m * m].reshape(m, m) @ v[k].conj().T).ravel())
        cols.append(np.concatenate(imgs))
    return CorrIso(e, make_correspondence(e.src, e.module, np.array(cols).T), v)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_bicategory_coherence(seed):
    """The unitor facts that make validate_simplex's degenerate pentagons
    redundant: naturality of both unitors, the triangle identity, and how
    the unitors of a tensor product factor through the associator."""
    rng = np.random.default_rng(seed)
    e, f, t_ef = composable_pair(rng, max_mult=2)
    ia, ib, ic = identity_corr(e.src), identity_corr(e.dst), identity_corr(f.dst)

    # lambda_E' . (id (x) u) = u . lambda_E along a random u: E -> E'
    u = conjugate_iso(e, rng)
    t_ie, t_ie2 = tensor_corrs(ia, e), tensor_corrs(ia, u.dst)
    lhs = compose_isos(left_unitor(t_ie2), tensor_iso(identity_iso(ia), u, t_ie, t_ie2))
    assert iso_distance(lhs, compose_isos(u, left_unitor(t_ie))) <= 1e-9

    # rho_F' . (v (x) id) = v . rho_F along a random v: F -> F'
    v = conjugate_iso(f, rng)
    t_fi, t_fi2 = tensor_corrs(f, ic), tensor_corrs(v.dst, ic)
    lhs = compose_isos(right_unitor(t_fi2), tensor_iso(v, identity_iso(ic), t_fi, t_fi2))
    assert iso_distance(lhs, compose_isos(v, right_unitor(t_fi))) <= 1e-9

    # triangle: rho_E (x) id = (id (x) lambda_F) . a on (E (x) I) (x) F
    t_ei, t_if = tensor_corrs(e, ib), tensor_corrs(ib, f)
    t_ei_f, t_e_if = tensor_corrs(t_ei.corr, f), tensor_corrs(e, t_if.corr)
    a = associator(t_ei, t_ei_f, t_if, t_e_if)
    lhs = tensor_iso(right_unitor(t_ei), identity_iso(f), t_ei_f, t_ef)
    rhs = compose_isos(tensor_iso(identity_iso(e), left_unitor(t_if), t_e_if, t_ef), a)
    assert iso_distance(lhs, rhs) <= 1e-9

    # lambda_{E (x) F} . a = lambda_E (x) id on (I (x) E) (x) F
    t_ie_f, t_i_ef = tensor_corrs(t_ie.corr, f), tensor_corrs(ia, t_ef.corr)
    a = associator(t_ie, t_ie_f, t_ef, t_i_ef)
    lhs = compose_isos(left_unitor(t_i_ef), a)
    rhs = tensor_iso(left_unitor(t_ie), identity_iso(f), t_ie_f, t_ef)
    assert iso_distance(lhs, rhs) <= 1e-9

    # rho_{E (x) F} = (id (x) rho_F) . a on (E (x) F) (x) I
    t_ef_i, t_e_fi = tensor_corrs(t_ef.corr, ic), tensor_corrs(e, t_fi.corr)
    a = associator(t_ef, t_ef_i, t_fi, t_e_fi)
    rhs = compose_isos(tensor_iso(identity_iso(e), right_unitor(t_fi), t_e_fi, t_ef), a)
    assert iso_distance(right_unitor(t_ef_i), rhs) <= 1e-9


def test_make_iso_rejections():
    rng = np.random.default_rng(3)
    b = make_algebra((2,))
    ic = identity_corr(b)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    # a generic unitary does not commute with the left action of M_2
    with pytest.raises(NotIntertwining):
        make_iso(ic, ic, [u])
    with pytest.raises(NotUnitary):
        make_iso(ic, ic, [0.5 * np.eye(2)])
    with pytest.raises(ShapeMismatch):
        make_iso(ic, ic, [np.eye(3)])
    dense_bad = np.eye(4, dtype=complex)
    dense_bad[0, 1] = 0.3
    with pytest.raises(NotRightLinear):
        read_dense(ic, ic, dense_bad)
    # a global phase is a legitimate automorphism
    w = make_iso(ic, ic, [np.exp(0.3j) * np.eye(2)])
    assert iso_distance(w, identity_iso(ic)) > 0.1


def read_dense(src, dst, dense, eps=1e-9):
    """A dense intertwiner read as the JSON readers read one: its blocks
    (``_dense_iso``), then its checks, the first error raised."""
    u = _dense_iso(src, dst, dense)
    _raise_first(_iso_faults(u, eps, dense))
    return u


@pytest.mark.parametrize("x", [0.5, math.nan], ids=["half", "nan"])
def test_a_dense_read_refuses_an_entry_off_the_right_linear_pattern(x):
    """Entry [1, 0] lies off the U_k (x) I_2 sample that the blocks are read
    from, so it shows only in the right-linearity residual: a NaN there
    must be refused like 0.5."""
    ic = identity_corr(make_algebra((2, 1)))
    dense = identity_iso(ic).dense()
    dense[1, 0] = x
    with pytest.raises(NotRightLinear) as err:
        read_dense(ic, ic, dense)
    assert not err.value.residual <= 1e-9


def test_nan_blocks_are_rejected():
    """max(0.0, nan) is 0.0, so a residual accumulated with max drops a NaN."""
    ic = identity_corr(make_algebra((2, 1)))
    nan = np.full((1, 1), np.nan)
    for blocks in ([np.full((2, 2), np.nan), nan], [np.eye(2), nan]):
        with pytest.raises(NotUnitary):
            CorrIso(ic, ic, blocks)
        assert math.isnan(iso_distance(CorrIso._trusted(ic, ic, blocks), identity_iso(ic)))


def test_iso_compose_inverse_and_dense_roundtrip():
    b = make_algebra((2, 1))
    corr = identity_corr(b)
    # an automorphism rotating the two summands of E (+) E
    c2, _ = direct_sum_corrs([corr, corr])
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    u = make_iso(c2, c2, [np.kron(rot, np.eye(n)) for n in b.blocks])
    w = compose_isos(u.inverse(), u)
    assert iso_distance(w, identity_iso(c2)) < 1e-9
    # dense matrix rebuilds the same intertwiner
    u2 = read_dense(c2, c2, u.dense())
    assert iso_distance(u, u2) < 1e-9
    with pytest.raises(EndpointMismatch):
        compose_isos(u, identity_iso(corr))


def test_tensor_iso_of_identities_is_identity():
    rng = np.random.default_rng(12)
    e, f, tp = composable_pair(rng)
    w = tensor_iso(identity_iso(e), identity_iso(f), tp, tp)
    assert iso_distance(w, identity_iso(tp.corr)) < 1e-9


def test_direct_sum_corrs():
    rng = np.random.default_rng(17)
    a = make_algebra((2,))
    b = make_algebra((2, 1))
    c1 = random_correspondence(a, b, rng)
    c2 = random_correspondence(a, b, rng)
    total, _ = direct_sum_corrs([c1, c2])
    assert total.module.mult == tuple(
        m1 + m2 for m1, m2 in zip(c1.module.mult, c2.module.mult)
    )
    assert total.src == a and total.dst == b
    assert not corr_close(total, c1)


# ---------------------------------------------------------------------------
# derived data kept on values: tensor frames and identity correspondences


def fresh_frame(left, right, eps=1e-9):
    """Reference frame of E (x) F: the plain loop over (j, k), nothing kept."""
    b, c = left.dst, right.dst
    r = np.zeros((b.nblocks, c.nblocks), dtype=np.int64)
    proj = [[None] * c.nblocks for _ in range(b.nblocks)]
    onb = [[None] * c.nblocks for _ in range(b.nblocks)]
    for j in range(b.nblocks):
        img = apply(right.lam, matrix_unit(b, j, 0, 0))
        for k in range(c.nblocks):
            pos = right.module.compact_pos(k)
            proj[j][k] = np.zeros((0, 0), dtype=complex) if pos is None else img.mats[pos]
            onb[j][k] = gram_onb(proj[j][k], eps)
            r[j, k] = onb[j][k].shape[1]
    return r, proj, onb


def bit_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def kept_products(s):
    """Every product kept on s's edges, and on those products' correspondences.
    Equal algebras are one object with one identity edge, which also keeps
    the products other tests made on it while their right factors live; on
    an identity edge, a product is s's when its right factor (its key) is
    one of the correspondences walked.  Correspondences and products
    compare by identity."""
    units = [s.edge(i, i) for i in range(s.n + 1)]
    own, out, grew = [*s.edges.values(), *units], [], True
    while grew:
        grew = False
        for e in list(own):
            for f, tp in e._products.items():
                if tp in out or (e in units and f not in own):
                    continue
                out.append(tp)
                grew = True
                if tp.corr not in own:
                    own.append(tp.corr)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_shared_frames_are_bit_equal_to_fresh_builds(seed):
    s = random_simplex(np.random.default_rng(300 + seed), 3, twist=bool(seed % 2), max_mult=2)
    nerve.validate_simplex(s)
    for i, j, k in combinations_with_replacement(range(s.n + 1), 3):
        s.cell(i, j, k)
    tps = kept_products(s)
    # the pentagons read (E_ij (x) E_jk) (x) E_kl, kept on a product
    corrs = {id(tp.corr) for tp in tps}
    assert any(id(tp.left) in corrs for tp in tps)
    for tp in tps:
        r, proj, onb = fresh_frame(tp.left, tp.right)
        assert tp.r == tuple(map(tuple, r.tolist()))
        assert {type(x) for row in tp.r for x in row} == {int}
        for j, k in np.ndindex(*r.shape):
            assert bit_equal(tp.proj[j][k], proj[j][k])
            assert bit_equal(tp.onb[j][k], onb[j][k])
        # a copy of F has no frame yet, so this product builds its own
        right = Correspondence(tp.right.src, tp.right.module, tp.right.lam)
        assert bit_equal(tensor_corrs(tp.left, right).corr.lam.matrix, tp.corr.lam.matrix)


def test_frames_are_shared_and_read_only():
    s = random_simplex(np.random.default_rng(5), 3, twist=True, max_mult=2)
    # both products have E_13 on the right
    t, t2 = s.tp(0, 1, 3), s.tp(1, 1, 3)
    assert t.r is t2.r and t.proj is t2.proj and t.onb is t2.onb
    # one frame per F, kept in its one slot
    frame = s.edge(1, 3)._frame()
    assert frame is s.edge(1, 3)._kept_frame and frame[2] is t.onb
    assert type(t.r) is tuple and {type(row) for row in t.r} == {tuple}
    for a in [x for row in t.proj + t.onb for x in row]:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        t.onb[0][0][...] = 0


def half_action():
    """(A, module, lambda) with lambda(e^(j)_11) = diag(1/2, 1/2) on
    C (+) C -> M_2: trace 1, so its traced multiplicities are 1 and it is
    unital, but rank 2, so it is no *-hom."""
    a = make_algebra((1, 1))
    module = make_module(make_algebra((1,)), (2,))
    half = np.zeros((4, 2), dtype=complex)
    half[[0, 3], :] = 0.5
    return a, module, half


def test_an_action_of_the_wrong_rank_is_refused_at_the_trust_boundary():
    """The frame takes lambda's multiplicities as its ranks and does not
    check them; an action from outside meets make_correspondence first,
    whose multiplicativity check refuses this one."""
    a, module, half = half_action()
    with pytest.raises(NotMultiplicative):
        make_correspondence(a, module, half)


def test_an_overstated_multiplicity_is_a_zero_pivot():
    """lambda(e_11) = diag(1, 0) claimed at multiplicity 2: the frame's
    second pivot has norm 0, which raises ShapeMismatch on every call,
    with no RuntimeWarning, keeping neither frame nor product."""
    a = make_algebra((1,))
    module = make_module(make_algebra((1,)), (2,))
    lam = np.zeros((4, 1), dtype=complex)
    lam[0, 0] = 1.0
    bad = Correspondence(a, module, StarHom(a, module.compacts, lam, np.array([[2]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(ShapeMismatch, match="rank below its multiplicity"):
                tensor_corrs(identity_corr(a), bad)
    assert bad._kept_frame is None
    # a is shared with other tests, so its identity may keep their products
    assert bad not in identity_corr(a)._products


def test_a_product_refers_to_its_left_factor_weakly():
    """E keeps E (x) F, keyed weakly by F itself, and the product reaches E
    only weakly: with the cycle collector off, dropping E frees it, E (x)
    id_B included."""
    rng = np.random.default_rng(4)
    a, b, c = (random_algebra(rng, max_blocks=2, max_size=2) for _ in range(3))
    gc.collect()
    gc.disable()
    try:
        e, f = random_correspondence(a, b, rng), random_correspondence(b, c, rng)
        t, unit = tensor_corrs(e, f), tensor_corrs(e, identity_corr(b))
        assert t.left is e and t.right is f and unit.left is e and unit.corr is e
        assert dict(e._products) == {f: t, identity_corr(b): unit}
        ref, kept = weakref.ref(e), weakref.ref(t)
        del e, t, unit
        assert ref() is None and kept() is None
    finally:
        gc.enable()


def test_dropping_the_right_factor_frees_the_product():
    """The product reaches F only weakly too, so it lives while both factors
    do: with the cycle collector off, dropping F frees E (x) F while E lives,
    and E keeps no entry for it."""
    rng = np.random.default_rng(4)
    a, b, c = (random_algebra(rng, max_blocks=2, max_size=2) for _ in range(3))
    gc.collect()
    gc.disable()
    try:
        e, f = random_correspondence(a, b, rng), random_correspondence(b, c, rng)
        t = tensor_corrs(e, f)
        ref, kept = weakref.ref(f), weakref.ref(t)
        del f, t
        assert ref() is None and kept() is None and len(e._products) == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("pairs", [("EE",), ("1E",), ("E1", "1E")], ids="+".join)
def test_no_product_keeps_its_factors(pairs):
    """E : A -> A and its products with itself and with id_A ("1"): no
    product closes a cycle through a factor, so with the cycle collector
    off, dropping E frees E and every product.  Neither E (x) E, kept on
    E, nor id_A (x) E, kept on the identity that A keeps, may hold E."""
    a = random_algebra(np.random.default_rng(9), max_blocks=2, max_size=2)
    gc.collect()
    gc.disable()
    try:
        e = random_correspondence(a, a, np.random.default_rng(9))
        factor = {"E": e, "1": identity_corr(a)}
        tps = [tensor_corrs(factor[x], factor[y]) for x, y in pairs]
        refs = [weakref.ref(x) for x in [e, *tps]]
        del e, factor, tps
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _clear_identities(before):
    """Clear the identity of every live algebra whose blocks are not in before."""
    for blocks, a in list(FdCstarAlgebra._table.items()):
        if blocks not in before:
            a._identity = None


@pytest.mark.parametrize(
    "suite, trials", [("nerve-coherence", 2), ("section-exact", 1), ("relative-prism", 2)]
)
def test_an_acceptance_trial_leaves_only_the_identity_cycles(suite, trials):
    """With the cycle collector off, a trial leaves nothing unreachable once
    the algebras it made have their identity cleared: an algebra and its
    identity correspondence form the one cycle left (ROADMAP item 12), and
    no product closes one through its factors."""
    gc.collect()
    gc.disable()
    try:
        before = set(FdCstarAlgebra._table)
        assert run_suite(suite, seed=7, trials=trials).ok
        _clear_identities(before)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_products_are_kept_once_per_pair():
    """One product per pair of factors, kept on E under F itself: equal
    factors are the same object, and a copy of F is another key."""
    s = random_simplex(np.random.default_rng(8), 2, twist=True, max_mult=2)
    e, f = s.edge(0, 1), s.edge(1, 2)
    t = tensor_corrs(e, f)
    assert tensor_corrs(e, f) is t and s.tp(0, 1, 2) is t
    assert e._products[f] is t
    f2 = Correspondence(f.src, f.module, f.lam)
    assert tensor_corrs(e, f2) is not t
    # bit-equal to a product built afresh from copies, frame and all
    e2 = Correspondence(e.src, e.module, e.lam)
    fresh = modules.TensorProduct(e2, Correspondence(f.src, f.module, f.lam))
    assert fresh.onb is not t.onb
    assert bit_equal(fresh.corr.lam.matrix, t.corr.lam.matrix)
    for j, k in np.ndindex(len(t.r), len(t.r[0])):
        assert bit_equal(fresh.onb[j][k], t.onb[j][k])


def test_identity_corr_is_kept_on_its_algebra():
    """Equal algebras are one object, so they share one identity."""
    b = make_algebra((2, 1))
    assert identity_corr(b) is identity_corr(b)
    assert identity_corr(make_algebra((2, 1))) is identity_corr(b)


@st.composite
def generator_corrs(draw):
    """A generator correspondence: random_correspondence's construction with
    multiplicities 0..2, so zero module blocks (dropped from the compacts)
    and zero action multiplicities occur; an equivalence; or a twisted edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["embedding", "equivalence", "twisted"]))
    if kind == "twisted":
        s = random_simplex(rng, 2, max_mult=2)
        return twist_edge(s, 0, 2, rng).edges[(0, 2)]
    dst = make_algebra(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    if kind == "equivalence":
        return random_equivalence(dst, rng)
    src = make_algebra(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    row = st.lists(st.integers(0, 2), min_size=dst.nblocks, max_size=dst.nblocks)
    m = np.array(draw(st.lists(row, min_size=src.nblocks, max_size=src.nblocks)))
    assume(m.any())
    q = m.T @ np.array(src.blocks)
    module = make_module(dst, q)
    return Correspondence(src, module, embedding_hom(src, module.compacts, m[:, q > 0], rng))


@settings(max_examples=40)
@given(generator_corrs())
def test_product_with_the_kept_identity_is_the_left_factor(e):
    """tensor_corrs(E, identity_corr(B)) keeps E itself.  The general
    construction gives E's module and left action bit for bit, and so does
    the library's general path on a copy of id_B, which is not the kept
    object; the right unitor on either product has exact identity blocks."""
    b = e.dst
    tp = tensor_corrs(e, identity_corr(b))
    assert tp.corr is e and tp.module is e.module
    module, lam = general_product(e, identity_corr(b))
    assert module == e.module and bit_equal(lam, e.lam.matrix)
    copy = Correspondence(b, identity_corr(b).module, identity_corr(b).lam)
    general = tensor_corrs(e, copy)
    assert general.corr is not e and general.module == e.module
    assert bit_equal(general.corr.lam.matrix, e.lam.matrix)
    assert bit_equal(general.corr.lam.mult_matrix, e.lam.mult_matrix)
    assert general.corr.lam.unital
    for t in (tp, general):
        rho = right_unitor(t)
        assert rho.src is t.corr and rho.dst is e
        for u, m in zip(rho.blocks, e.module.mult):
            assert bit_equal(u, np.eye(m, dtype=complex))


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_certified_tensor_iso_passes_the_checking_constructor(seed):
    """tensor_iso builds through CorrIso._trusted: a tensor of valid
    intertwiners in the frames of valid correspondences is unitary and
    intertwining to rounding."""
    rng = np.random.default_rng(seed)
    s = random_simplex(rng, 3, twist=bool(seed % 2), max_mult=2)
    pairs = [
        (s.cell(0, 1, 2), s.cell(2, 2, 3)),  # u_012 (x) lambda
        (s.cell(0, 1, 2), identity_iso(s.edge(2, 3))),
        (identity_iso(s.edge(0, 1)), s.cell(1, 2, 3)),
        (s.cell(0, 1, 1).inverse(), conjugate_iso(s.edge(1, 3), rng)),
    ]
    for u, v in pairs:
        t_src, t_dst = tensor_corrs(u.src, v.src), tensor_corrs(u.dst, v.dst)
        w = tensor_iso(u, v, t_src, t_dst)
        CorrIso(w.src, w.dst, w.blocks, eps=1e-12)


def row_gather_left_action(tp):
    """lambda_G as the row gather the block copies replaced: one row of
    lambda_E per basis triple of K(E), per block k of G and per t < r_jk."""
    e_mod, kg = tp.left.module, tp.corr.module.compacts
    rows, cols = [], []
    for p, jp, a, a2 in basis_triples(e_mod.compacts):
        j = e_mod.kept[jp]
        for kp, k in enumerate(tp.module.kept):
            rjk = tp.r[j][k]
            if rjk == 0:
                continue
            o = sum(e_mod.mult[j2] * tp.r[j2][k] for j2 in range(j))
            size, base = kg.blocks[kp], kg.offset(kp)
            for t in range(rjk):
                rows.append(base + (o + a * rjk + t) * size + (o + a2 * rjk + t))
                cols.append(p)
    lam_e = tp.left.lam.matrix
    matrix = np.zeros((kg.dim, lam_e.shape[1]), dtype=complex)
    matrix[np.asarray(rows, dtype=np.intp)] = lam_e[np.asarray(cols, dtype=np.intp)]
    return matrix


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_left_action_matches_the_row_gather(seed, max_mult):
    e, f, tp = composable_pair(np.random.default_rng(seed), max_mult=max_mult)
    old = row_gather_left_action(tp)
    assert np.array_equal(tp.corr.lam.matrix, old)
    kg = tp.corr.module.compacts
    assert np.array_equal(tp.corr.lam.mult_matrix, _traced_mult(e.src, kg, old))


@pytest.mark.parametrize("seed", range(4))
def test_private_kron_is_bit_equal_to_np_kron(seed):
    rng = np.random.default_rng(seed)

    def draw(shape, order):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x[rng.random(shape) < 0.2] = -0.0
        return np.asarray(x, order=order)

    for _ in range(50):
        sa, sb = tuple(rng.integers(0, 4, size=2)), tuple(rng.integers(0, 4, size=2))
        a, b = draw(sa, "CF"[rng.integers(2)]), draw(sb, "CF"[rng.integers(2)])
        want, got = np.kron(a, b), modules._kron(a, b)
        assert bit_equal(got, want) and got.flags.c_contiguous == want.flags.c_contiguous


# -- every guard of the module layer, reached ------------------------------------


def small_corrs():
    """E and E2: C (+) C -> C on C^2 and C^3 (the second block acting twice
    on E2), and E3: C -> C on C^2."""
    a, b = make_algebra((1, 1)), make_algebra((1,))
    m2, m3 = make_module(b, (2,)), make_module(b, (3,))
    e = Correspondence(a, m2, embedding_hom(a, m2.compacts, [[1], [1]]))
    e2 = Correspondence(a, m3, embedding_hom(a, m3.compacts, [[1], [2]]))
    e3 = Correspondence(b, m2, embedding_hom(b, m2.compacts, [[2]]))
    return e, e2, e3


def test_equal_modules_are_one_object():
    """One live module per (base blocks, multiplicities), from a tuple, a
    list or numpy ints alike, over the one base of those blocks."""
    m = make_module(make_algebra((2, 1)), (1, 3))
    assert make_module(make_algebra([2, 1]), [1, 3]) is m
    assert modules.HilbertModule(make_algebra(np.array([2, 1])), np.array([1, 3])) is m
    assert m.base is make_algebra((2, 1)) and m.compacts is make_algebra((1, 3))
    assert all(type(x) is int for x in m.mult)


def test_an_unreferenced_module_is_freed():
    """The module table keys on int tuples only, never on the base, so with
    the cycle collector off dropping a module frees it and its base."""
    gc.collect()
    gc.disable()
    try:
        m = make_module(make_algebra((7, 5, 3)), (1, 0, 2))
        ref, base = weakref.ref(m), weakref.ref(m.base)
        assert modules.HilbertModule._table[((7, 5, 3), (1, 0, 2))] is m
        del m
        assert ref() is None and base() is None
        assert ((7, 5, 3), (1, 0, 2)) not in modules.HilbertModule._table
        assert (7, 5, 3) not in modules.FdCstarAlgebra._table
    finally:
        gc.enable()


DRAIN = """
import gc
from corrlab.acceptance import SUITES, run_suite
from corrlab.algebra import FdCstarAlgebra
from corrlab.modules import HilbertModule

reports = [run_suite(name, seed=7, trials=2) for name in SUITES]
assert all(r.ok for r in reports)
del reports
gc.collect()
print(len(FdCstarAlgebra._table), len(HilbertModule._table))
"""


def test_the_intern_tables_drain_after_an_acceptance_pass():
    """Every suite at two trials, in a fresh interpreter so that no other
    test holds an algebra: once its reports are dropped and the collector
    has run, neither table keeps an entry."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", DRAIN], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_a_module_refuses_a_bad_multiplicity_list_and_hashes_by_value():
    a = make_algebra((1, 1))
    with pytest.raises(ShapeMismatch, match="one multiplicity per base block"):
        modules.HilbertModule(a, (1,))
    with pytest.raises(ShapeMismatch, match="must be >= 0"):
        modules.HilbertModule(a, (1, -1))
    with pytest.raises(ShapeMismatch, match="multiplicities must be integers"):
        make_module(a, (1, 1.5))  # not truncated to 1
    assert hash(make_module(a, (1, 2))) == hash(make_module(make_algebra((1, 1)), [1, 2]))
    assert repr(make_module(a, (1, 2))) == "HilbertModule(FdCstarAlgebra([1, 1]), mult=[1, 2])"


def test_a_direct_sum_needs_summands_over_one_base():
    with pytest.raises(ShapeMismatch, match="empty direct sum"):
        direct_sum_modules([])
    mods = [make_module(make_algebra((1, 1)), (1, 1)), make_module(make_algebra((1,)), (1,))]
    with pytest.raises(BaseMismatch):
        direct_sum_modules(mods)


def test_a_correspondence_refuses_an_action_off_its_ends_or_not_unital():
    e, e2, _ = small_corrs()
    with pytest.raises(EndpointMismatch, match="must map src"):
        Correspondence(e.dst, e.module, e.lam)
    m3 = e2.module
    half = embedding_hom(e.src, m3.compacts, [[1], [1]])  # fills 2 of 3 dimensions
    with pytest.raises(EndpointMismatch, match="must be unital"):
        Correspondence(e.src, m3, half)
    assert (e.dim, e2.dim) == (2, 3)
    assert repr(e) == "Correspondence(FdCstarAlgebra([1, 1]) -> FdCstarAlgebra([1]), mult=[2])"


def test_an_intertwiner_refuses_other_ends_block_counts_and_non_square_blocks():
    e, e2, e3 = small_corrs()
    with pytest.raises(EndpointMismatch, match="endpoints disagree"):
        CorrIso(e, e3, [np.eye(2)])
    with pytest.raises(ShapeMismatch, match="one block per base block"):
        CorrIso(e, e, [np.eye(2), np.eye(2)])
    with pytest.raises(NotUnitary, match="not square"):
        CorrIso(e, e2, [np.zeros((3, 2))])
    assert repr(identity_iso(e)) == f"CorrIso({e!r} ~ {e!r})"
    with pytest.raises(ShapeMismatch, match="different modules"):
        iso_distance(identity_iso(e), identity_iso(e2))


def test_products_and_their_intertwiners_refuse_factors_that_do_not_match():
    e, e2, e3 = small_corrs()
    with pytest.raises(EndpointMismatch, match="matching middle algebra"):
        tensor_corrs(e, e)
    f = identity_corr(e.dst)
    tp, tp2 = tensor_corrs(e, f), tensor_corrs(e2, f)
    with pytest.raises(EndpointMismatch, match="target tensor product"):
        tensor_iso(identity_iso(e), identity_iso(f), tp, tp2)
    tp_fg = tensor_corrs(f, f)
    with pytest.raises(EndpointMismatch, match="tp_efg must tensor"):
        associator(tp, tensor_corrs(e2, f), tp_fg, tensor_corrs(e, tp_fg.corr))
    with pytest.raises(EndpointMismatch, match="tp_e_fg must tensor"):
        associator(tp, tensor_corrs(tp.corr, f), tp_fg, tensor_corrs(e, e3))

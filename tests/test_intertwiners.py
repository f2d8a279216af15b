"""The canonical intertwiners in closed form, against the column-by-column
construction they replaced.

The reference builds each intertwiner one column (k, j, a, t) at a time:
it makes the module element w with R_jk[:, t] in column 0 of block k,
applies the defining action to e^(j)_{a1} (x) w and copies column 0 back.
The reference associator evaluates (e (x) f) (x) g -> e (x) (f (x) g) on the
same spanning family through pure_tensor and embed, from the element-level
model in reference.py.  Every closed form must match the reference to 1e-12
and pass the checking CorrIso constructor at eps = 1e-12; the coordinate
renamings (right unitor, corner factorization) must match it bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab.algebra import FdCstarAlgebra, compose_homs
from corrlab.bicategory import (
    equivalence_inverse,
    gamma_isometries,
    gamma_multiplicativity,
    gamma_of_hom,
    u_of_corr,
)
from corrlab.errors import InvalidAlgebra
from corrlab.generators import (
    embedding_hom,
    random_algebra,
    random_correspondence,
    random_equivalence,
)
from corrlab.linalg import frob
from corrlab.modules import (
    CorrIso,
    associator,
    identity_corr,
    left_unitor,
    right_unitor,
    tensor_corrs,
)
from reference import alg_zero, apply, embed, left_mul, pure_tensor, zero


def reference_blocks(tp, dst, action):
    """action(j, a, w) is the image of e^(j)_{a1} (x) w in dst's module."""
    blocks = []
    for k in range(tp.module.base.nblocks):
        out = np.zeros((dst.module.mult[k], tp.module.mult[k]), dtype=complex)
        for j in range(tp.left.dst.nblocks):
            rjk = tp.r[j][k]
            if rjk == 0:
                continue
            for a in range(tp.left.module.mult[j]):
                o = tp.row_start(k, j, a)
                for t in range(rjk):
                    w = zero(tp.right.module)
                    w.mats[k][:, 0] = tp.onb[j][k][:, t]
                    out[:, o + t] = action(j, a, w).mats[k][:, 0]
        blocks.append(out)
    return blocks


def reference_associator(tp_ef, tp_efg, tp_fg, tp_e_fg):
    e_mod = tp_ef.left.module
    blocks = []
    for l in range(tp_efg.module.base.nblocks):
        out = np.zeros((tp_e_fg.module.mult[l], tp_efg.module.mult[l]), dtype=complex)
        for j in range(tp_ef.left.dst.nblocks):
            if e_mod.mult[j] == 0:
                continue
            r_dst = tp_e_fg.r[j][l]
            cols, col_meta = [], []
            for j2 in range(tp_ef.module.base.nblocks):
                for t in range(tp_ef.r[j][j2]):
                    w = zero(tp_ef.right.module)
                    w.mats[j2][:, 0] = tp_ef.onb[j][j2][:, t]
                    for t2 in range(tp_efg.r[j2][l]):
                        y = zero(tp_efg.right.module)
                        y.mats[l][:, 0] = tp_efg.onb[j2][l][:, t2]
                        img = embed(tp_e_fg, j, 0, pure_tensor(tp_fg, w, y))
                        o = tp_e_fg.row_start(l, j, 0)
                        cols.append(img.mats[l][o : o + r_dst, 0])
                        col_meta.append((j2, t, t2))
            for a in range(e_mod.mult[j]):
                o_dst = tp_e_fg.row_start(l, j, a)
                for col, (j2, t, t2) in zip(cols, col_meta):
                    alpha = tp_ef.row_start(j2, j, a) + t
                    out[o_dst : o_dst + r_dst, tp_efg.row_start(l, j2, alpha) + t2] = col
        blocks.append(out)
    return blocks


def assert_matches(u, ref, *, exact=False):
    assert len(u.blocks) == len(ref)
    for got, want in zip(u.blocks, ref):
        assert got.shape == want.shape
        if exact:
            assert np.array_equal(got, want)
        else:
            assert frob(got - want) <= 1e-12
    CorrIso(u.src, u.dst, u.blocks, eps=1e-12)


def small_algebra(rng):
    return random_algebra(rng, max_blocks=2, max_size=2)


def check_unitors(rng):
    a, b = small_algebra(rng), small_algebra(rng)
    e = random_correspondence(a, b, rng, max_mult=2)

    tp = tensor_corrs(identity_corr(a), e)

    def lam(i, s, w):
        row = alg_zero(a)
        row.mats[i][s, 0] = 1.0
        return left_mul(e, row, w)

    assert_matches(left_unitor(tp), reference_blocks(tp, e, lam))

    # x (x) b -> x b, for E (x) id_B and for (Gamma j_E) (x) X
    def rename(j, a2, w):
        x = zero(e.module)
        x.mats[j][a2, :] = w.mats[j][0, :]
        return x

    tp = tensor_corrs(e, identity_corr(b))
    assert_matches(right_unitor(tp), reference_blocks(tp, e, rename), exact=True)
    fact = u_of_corr(e)
    tp = tensor_corrs(fact.gamma_j, fact.x_corr)
    assert_matches(fact.iso, reference_blocks(tp, e, rename), exact=True)


def random_hom(src, rng):
    """A *-hom out of src, unital or not: multiplicities 0..2 into one or
    two target blocks, each with up to one spare dimension."""
    while True:
        mult = rng.integers(0, 3, size=(src.nblocks, int(rng.integers(1, 3))))
        if mult.any():
            break
    sizes = mult.T @ np.array(src.blocks) + rng.integers(0, 2, size=mult.shape[1])
    dst = FdCstarAlgebra(tuple(max(int(x), 1) for x in sizes))
    return embedding_hom(src, dst, mult, rng)


def check_gamma_multiplicativity(rng):
    # a non-unital hom has complex range isometries, so a lost conjugate shows
    while True:
        phi = random_hom(small_algebra(rng), rng)
        psi = random_hom(phi.dst, rng)
        try:
            u = gamma_multiplicativity(psi, phi)
            break
        except InvalidAlgebra:
            continue
    tp = tensor_corrs(gamma_of_hom(phi), gamma_of_hom(psi))
    v_phi, v_psi = gamma_isometries(phi), gamma_isometries(psi)
    v_comp = gamma_isometries(compose_homs(psi, phi))

    def action(j, a, w):
        b = alg_zero(phi.dst)
        b.mats[j][:, 0] = v_phi[j][:, a]
        img = apply(psi, b)
        out = zero(u.dst.module)
        for k in range(psi.dst.nblocks):
            if u.dst.module.mult[k]:
                out.mats[k][:, :] = v_comp[k].conj().T @ img.mats[k] @ v_psi[k] @ w.mats[k]
        return out

    assert_matches(u, reference_blocks(tp, u.dst, action))


def check_counits(rng):
    e = random_equivalence(small_algebra(rng), rng)
    w = equivalence_inverse(e)
    a, b = e.src, e.dst
    us, block_map = w.unitaries, w.block_map
    id_a, id_b = w.counit_left.dst, w.counit_right.dst

    def act_left(k, r, x):
        out = zero(id_a.module)
        for i in range(a.nblocks):
            if block_map[i] == k:
                out.mats[i][:, :] = np.outer(us[i].conj().T[:, r], x.mats[i][0, :])
        return out

    def act_right(i, r, x):
        out = zero(id_b.module)
        k = block_map[i]
        out.mats[k][r, :] = us[i][:, 0].conj() @ x.mats[k]
        return out

    tp_left, tp_right = tensor_corrs(e, w.inverse), tensor_corrs(w.inverse, e)
    assert_matches(w.counit_left, reference_blocks(tp_left, id_a, act_left))
    assert_matches(w.counit_right, reference_blocks(tp_right, id_b, act_right))


def check_associator(rng):
    while True:
        a, b, c, d = (small_algebra(rng) for _ in range(4))
        e = random_correspondence(a, b, rng, max_mult=2)
        f = random_correspondence(b, c, rng, max_mult=2)
        g = random_correspondence(c, d, rng, max_mult=2)
        try:
            tp_ef, tp_fg = tensor_corrs(e, f), tensor_corrs(f, g)
            tp_efg, tp_e_fg = tensor_corrs(tp_ef.corr, g), tensor_corrs(e, tp_fg.corr)
            break
        except InvalidAlgebra:
            continue
    u = associator(tp_ef, tp_efg, tp_fg, tp_e_fg)
    assert_matches(u, reference_associator(tp_ef, tp_efg, tp_fg, tp_e_fg))


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_closed_forms_match_the_column_reference(seed):
    rng = np.random.default_rng(seed)
    check_unitors(rng)
    check_gamma_multiplicativity(rng)
    check_counits(rng)
    check_associator(rng)

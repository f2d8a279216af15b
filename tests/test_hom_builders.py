"""The *-hom constructors, against the column-by-column loops they replaced.

Each reference below is a copy of the old construction: one source basis
element at a time, with one alg_zero() and one to_vec() per column.  The new
constructors build the same matrix from Bratteli data through
``_conjugation_matrix`` (corner inclusion, the linking embedding i_E, the
inverse of an equivalence, the subdivision connecting homs, embedding_hom)
or by one batched block map over every column of an existing action
(gamma_of_hom, j_E, direct_sum_corrs, twist_edge).  Each must match its
reference to 1e-12 entrywise, bit for bit where the reference only copied
0/1 entries or entries of an existing matrix, and pass make_star_hom at
eps = 1e-12 with the reference's multiplicities and unitality.

The generators (embedding_hom, twist_edge) build certified values and run
no check on them.  A later section is the differential test for the
checks they skip: their outputs pass make_star_hom and CorrIso at
eps = 1e-12, and the trust boundary still refuses a corrupted output.

A hom built from Bratteli data holds that data and builds its dense
matrix on first read; the last section checks that view against the eager
build and counts the builds of a checked subdivision and a K0 extension.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corrlab import acceptance, algebra, subdivision
from corrlab.algebra import (
    FdCstarAlgebra,
    StarHom,
    _bratteli_hom,
    _composite_residual,
    _compose_ws,
    _conjugation_matrix,
    _star_residual,
    _traced_mult,
    _unit_image,
    compose_homs,
    hom_normal_form,
    identity_hom,
    is_full_hom,
    make_algebra,
    make_star_hom,
)
from corrlab.bicategory import equivalence_inverse, gamma_isometries, gamma_of_hom, u_of_corr
from corrlab.cli import main
from corrlab.errors import FunctorialityViolated, NotMultiplicative
from corrlab.extension import K0Oracle, bar_F, k0_functor
from corrlab.generators import (
    embedding_hom,
    random_algebra,
    random_correspondence,
    random_equivalence,
    random_simplex,
    random_unital_hom,
    random_unitary,
    twist_edge,
)
from corrlab.linalg import frob
from corrlab.modules import (
    CorrIso,
    _intertwiner_blocks,
    identity_corr,
    left_unitor,
    make_module,
    tensor_corrs,
)
from corrlab.nerve import validate_simplex
from corrlab.serialize import value_from_json, value_to_json
from corrlab.subdivision import (
    _nonempty_subsets,
    module_E_S,
    subdivision_functor,
)
from reference import (
    alg_from_vec,
    alg_zero,
    apply,
    basis_triples,
    connecting_hom,
    corner_algebra,
    direct_sum_corrs,
    dense_conjugation_matrix,
    dump_value,
    identity,
    matrix_unit,
    orthonormal_range,
)
from test_subdivision import corrupt_isometries, scaling_chain_simplex


def assert_matches(h, ref_matrix, *, exact=False):
    assert h.matrix.shape == ref_matrix.shape
    if exact:
        assert np.array_equal(h.matrix, ref_matrix)
    else:
        assert np.abs(h.matrix - ref_matrix).max(initial=0.0) <= 1e-12
    checked = make_star_hom(h.src, h.dst, h.matrix, eps=1e-12)
    ref = StarHom(h.src, h.dst, ref_matrix, _traced_mult(h.src, h.dst, ref_matrix))
    assert np.array_equal(checked.mult_matrix, ref.mult_matrix)
    assert checked.unital == ref.unital


def small_algebra(rng):
    return random_algebra(rng, max_blocks=2, max_size=3)


def random_mult(rng, src, nd):
    """Multiplicities 0..2 with at least one nonzero, and block sizes with
    up to one spare dimension, so the embedding may be non-unital."""
    while True:
        mult = rng.integers(0, 3, size=(src.nblocks, nd))
        if mult.any():
            break
    sizes = mult.T @ np.array(src.blocks) + rng.integers(0, 2, size=nd)
    return mult, FdCstarAlgebra(tuple(max(int(x), 1) for x in sizes))


# ---------------------------------------------------------------------------
# references: copies of the old column loops


def ref_embedding(src, dst, mult, rng):
    cols = []
    units = [random_unitary(nl, rng) for nl in dst.blocks]
    for i, r, c in ((t[1], t[2], t[3]) for t in basis_triples(src)):
        img = []
        for l, nl in enumerate(dst.blocks):
            b = np.zeros((nl, nl), dtype=complex)
            o = 0
            for ip, npi in enumerate(src.blocks):
                for _ in range(int(mult[ip, l])):
                    if ip == i:
                        b[o + r, o + c] = 1.0
                    o += npi
            u = units[l]
            img.append(u @ b @ u.conj().T)
        cols.append(np.concatenate([m.reshape(-1) for m in img]))
    return np.stack(cols, axis=1)


def ref_gamma(phi):
    vs = gamma_isometries(phi)
    module = make_module(phi.dst, [v.shape[1] for v in vs])
    cols = []
    for p in range(phi.src.dim):
        img = alg_from_vec(phi.dst, phi.matrix[:, p])
        y = alg_zero(module.compacts)
        for t, j in enumerate(module.kept):
            y.mats[t][:, :] = vs[j].conj().T @ img.mats[j] @ vs[j]
        cols.append(y.to_vec())
    return np.array(cols).T


def ref_corner(pres, b):
    cols = []
    for t, i in enumerate(pres.kept):
        v = pres.isometries[t]
        k = v.shape[1]
        for a in range(k):
            for c in range(k):
                y = alg_zero(b)
                y.mats[i][:, :] = np.outer(v[:, a], v[:, c].conj())
                cols.append(y.to_vec())
    return np.array(cols).T


def ref_linking(corr, linking):
    a, b, e_mod = corr.src, corr.dst, corr.module
    sum_mod = make_module(b, [m + n for m, n in zip(e_mod.mult, b.blocks)])
    j_cols = []
    for p in range(a.dim):
        lam_img = alg_from_vec(e_mod.compacts, corr.lam.matrix[:, p])
        y = alg_zero(linking)
        for t, k in enumerate(sum_mod.kept):
            pos = e_mod.compact_pos(k)
            if pos is not None:
                m = e_mod.mult[k]
                y.mats[t][:m, :m] = lam_img.mats[pos]
        j_cols.append(y.to_vec())
    i_cols = []
    for p, k, r, c2 in basis_triples(b):
        y = alg_zero(linking)
        t = sum_mod.compact_pos(k)
        m = e_mod.mult[k]
        y.mats[t][m + r, m + c2] = 1.0
        i_cols.append(y.to_vec())
    return np.array(j_cols).T, np.array(i_cols).T


def ref_inverse_action(a, b, block_map, inv_mod):
    inv_cols = []
    for p, k, r, c2 in basis_triples(b):
        y = alg_zero(inv_mod.compacts)
        for i in range(a.nblocks):
            if block_map[i] == k:
                y.mats[inv_mod.compact_pos(i)][r, c2] = 1.0
        inv_cols.append(y.to_vec())
    return np.array(inv_cols).T


def ref_direct_sum(corrs, module, starts):
    cols = []
    lam_mats = [c.lam.matrix for c in corrs]
    for p in range(corrs[0].src.dim):
        out = [np.zeros((module.mult[k], module.mult[k]), dtype=complex) for k in module.kept]
        for s, c in enumerate(corrs):
            v = alg_from_vec(c.module.compacts, lam_mats[s][:, p])
            for k in c.module.kept:
                o = starts[s][k]
                m = c.module.mult[k]
                out[module.compact_pos(k)][o : o + m, o : o + m] += v.mats[c.module.compact_pos(k)]
        cols.append(np.concatenate([x.ravel() for x in out]))
    return np.array(cols).T


def ref_summand_isometries(data_s, data_t, base):
    rows = [data_t.subset.index(v) for v in data_s.subset]
    out = []
    for l in range(base.nblocks):
        q_s = data_s.module.mult[l]
        if q_s == 0:
            out.append({})
            continue
        w = np.zeros((data_t.module.mult[l], q_s, 1), dtype=complex)
        for si, ti in enumerate(rows):
            o_s = data_s.starts[si][l]
            nxt = (
                data_s.starts[si + 1][l]
                if si + 1 < len(data_s.starts)
                else data_s.module.mult[l]
            )
            o_t = data_t.starts[ti][l]
            for a in range(nxt - o_s):
                w[o_t + a, o_s + a, 0] = 1.0
        out.append({l: w})
    return out


def ref_tensor_isometries(sigma, data_s, data_t, base):
    m = data_s.subset[-1]
    top = data_t.subset[-1]
    rows = [data_t.subset.index(v) for v in data_s.subset]
    mid = sigma.algebras[m]
    out = []
    for l in range(base.nblocks):
        per_j = {}
        dim_t = data_t.module.mult[l]
        for j in range(mid.nblocks):
            q_s = data_s.module.mult[j]
            if q_s == 0:
                continue
            r = sigma.tp(data_s.subset[0], m, top).r[j][l]
            if r == 0:
                continue
            w = np.zeros((dim_t, q_s, r), dtype=complex)
            for si, v in enumerate(data_s.subset):
                tp = sigma.tp(v, m, top)
                mv = sigma.edge(v, m).module.mult[j]
                if mv == 0:
                    continue
                u_l = sigma.cell(v, m, top).blocks[l]
                o_t = data_t.starts[rows[si]][l]
                o_s = data_s.starts[si][j]
                src0 = tp.row_start(l, j, 0)
                for a in range(mv):
                    w[o_t : o_t + u_l.shape[0], o_s + a, :] = u_l[
                        :, src0 + a * r : src0 + (a + 1) * r
                    ]
            per_j[j] = w
        out.append(per_j)
    return out


def ref_connecting(sigma, data_s, data_t):
    """The summand inclusion when the tops agree, else the tensor isometries."""
    base = sigma.algebras[data_t.subset[-1]]
    if data_s.subset[-1] == data_t.subset[-1]:
        mats = ref_summand_isometries(data_s, data_t, base)
    else:
        mats = ref_tensor_isometries(sigma, data_s, data_t, base)
    ks, kt = data_s.module, data_t.module
    cols = []
    for tr in basis_triples(data_s.algebra):
        j, p, q = tr[1], tr[2], tr[3]
        jk = ks.kept[j]
        y = alg_zero(kt.compacts)
        for lt, l in enumerate(kt.kept):
            w = mats[l].get(jk)
            if w is None:
                continue
            y.mats[lt][:, :] += w[:, p, :] @ w[:, q, :].conj().T
        cols.append(y.to_vec())
    return np.stack(cols, axis=1)


def ref_twist(old, blocks):
    d = old.module.compacts
    col_mats = []
    for col in range(old.lam.matrix.shape[1]):
        v = old.lam.matrix[:, col]
        imgs = []
        o = 0
        for kp, mk in enumerate(d.blocks):
            b = v[o : o + mk * mk].reshape(mk, mk)
            u = blocks[old.module.kept[kp]]
            imgs.append(u @ b @ u.conj().T)
            o += mk * mk
        col_mats.append(np.concatenate([x.reshape(-1) for x in imgs]))
    return np.stack(col_mats, axis=1)


# ---------------------------------------------------------------------------
# the constructors against their references


def check_embedding_and_gamma(rng, seed):
    src = small_algebra(rng)
    mult, dst = random_mult(rng, src, int(rng.integers(1, 3)))
    phi = embedding_hom(src, dst, mult, np.random.default_rng(seed))
    assert_matches(phi, ref_embedding(src, dst, mult, np.random.default_rng(seed)))
    # a non-unital phi has complex range isometries, so a lost conjugate shows
    assert_matches(gamma_of_hom(phi).lam, ref_gamma(phi))


def check_corner(rng):
    b = small_algebra(rng)
    p = alg_zero(b)
    while not any(p.mats[i].any() for i in range(b.nblocks)):
        for i, n in enumerate(b.blocks):
            v = random_unitary(n, rng)[:, : int(rng.integers(0, n + 1))]
            p.mats[i][:, :] = v @ v.conj().T
    pres = corner_algebra(p.to_vec(), b)
    assert_matches(pres.inclusion, ref_corner(pres, b))


def check_linking_and_inverse(rng):
    corr = random_correspondence(small_algebra(rng), small_algebra(rng), rng, max_mult=2)
    fact = u_of_corr(corr)
    j_ref, i_ref = ref_linking(corr, fact.linking)
    assert_matches(fact.j_hom, j_ref, exact=True)
    assert_matches(fact.i_hom, i_ref, exact=True)
    w = equivalence_inverse(random_equivalence(small_algebra(rng), rng))
    a, b = w.corr.src, w.corr.dst
    ref = ref_inverse_action(a, b, w.block_map, w.inverse.module)
    assert_matches(w.inverse.lam, ref, exact=True)


def check_direct_sum(rng):
    a, b = small_algebra(rng), small_algebra(rng)
    corrs = [random_correspondence(a, b, rng, max_mult=2) for _ in range(int(rng.integers(1, 4)))]
    total, starts = direct_sum_corrs(corrs)
    assert_matches(total.lam, ref_direct_sum(corrs, total.module, starts), exact=True)


def check_connecting_and_twist(rng, seed):
    sigma = random_simplex(rng, 2, max_blocks=2, max_size=2, max_mult=2)
    i0, j0 = sorted(int(x) for x in rng.choice(3, size=2, replace=False))
    twisted = twist_edge(sigma, i0, j0, np.random.default_rng(seed))
    draws = np.random.default_rng(seed)
    old = sigma.edges[(i0, j0)]
    blocks = [random_unitary(m, draws) for m in old.module.mult]
    assert_matches(twisted.edges[(i0, j0)].lam, ref_twist(old, blocks))
    subsets = _nonempty_subsets(2)
    data = {s: module_E_S(twisted, s) for s in subsets}
    for s in subsets:
        for t in subsets:
            if set(s) < set(t):
                f = connecting_hom(twisted, s, t)
                exact = s[-1] == t[-1]  # a 0/1 summand inclusion
                assert_matches(f, ref_connecting(twisted, data[s], data[t]), exact=exact)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_hom_builders_match_the_column_reference(seed):
    rng = np.random.default_rng(seed)
    check_embedding_and_gamma(rng, seed)
    check_corner(rng)
    check_linking_and_inverse(rng)
    check_direct_sum(rng)
    check_connecting_and_twist(rng, seed)


# ---------------------------------------------------------------------------
# the generators skip make_star_hom and CorrIso: what those would check holds


@st.composite
def embeddings(draw):
    """(src, dst, mult, seed): multiplicities 0..2, a zero row or column
    allowed, and up to one spare dimension per dst block (non-unital)."""
    src = FdCstarAlgebra(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    nd = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 2), min_size=nd, max_size=nd)
    mult = np.array(draw(st.lists(row, min_size=src.nblocks, max_size=src.nblocks)))
    spare = draw(st.lists(st.integers(0, 1), min_size=nd, max_size=nd))
    sizes = mult.T @ np.array(src.blocks) + np.array(spare)
    dst = FdCstarAlgebra(tuple(max(int(x), 1) for x in sizes))
    return src, dst, mult, draw(st.integers(0, 2**32 - 1))


def ws_keys(phi):
    return {(l, i) for l, w_l in enumerate(phi._ws) for i in w_l}


def nonzero_keys(phi):
    return {(int(l), int(i)) for i, l in zip(*np.nonzero(phi.mult_matrix))}


def assert_star_hom(phi):
    checked = make_star_hom(phi.src, phi.dst, phi.matrix, eps=1e-12)
    assert np.array_equal(checked.mult_matrix, phi.mult_matrix)


@settings(max_examples=60)
@given(embeddings())
@example((FdCstarAlgebra((2, 1)), FdCstarAlgebra((3, 2)), np.array([[1, 0], [0, 0]]), 0))
@example((FdCstarAlgebra((1,)), FdCstarAlgebra((1, 1)), np.array([[1, 0]]), 1))
def test_generator_homs_pass_the_checks_they_skip(case):
    src, dst, mult, seed = case
    rng = np.random.default_rng(seed)
    phi = embedding_hom(src, dst, mult, rng)
    assert np.array_equal(phi.mult_matrix, mult)
    assert_star_hom(phi)
    # one _ws convention: an entry for each nonzero multiplicity, no (m, n, 0)
    assert ws_keys(phi) == nonzero_keys(phi)
    for hom in (
        random_unital_hom(src, rng),
        random_correspondence(src, dst, rng, max_mult=2).lam,
        random_equivalence(dst, rng).lam,
    ):
        assert_star_hom(hom)
        assert ws_keys(hom) == nonzero_keys(hom)


@settings(max_examples=40)
@given(embeddings(), st.integers(1, 3))
def test_generator_homs_compose_on_their_bratteli_data(case, nc):
    """f and g each unital or not: the composite of their kept data is the
    composite hom, up to rounding."""
    a, b, mult_f, seed = case
    rng = np.random.default_rng(seed)
    f = embedding_hom(a, b, mult_f, rng)
    mult_g, c = random_mult(rng, b, nc)
    g = embedding_hom(b, c, mult_g, rng)
    gf = _bratteli_hom(a, c, _compose_ws(g._ws, f._ws))
    assert _composite_residual(g, f, gf) <= 1e-12
    assert np.abs(gf.matrix - compose_homs(g, f).matrix).max(initial=0.0) <= 1e-12
    assert ws_keys(gf) == nonzero_keys(gf)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_twist_edge_passes_the_checks_it_skips(seed, n):
    rng = np.random.default_rng(seed)
    s = random_simplex(rng, n, max_blocks=2, max_size=2, max_mult=2 if n == 2 else 1)
    i0, j0 = sorted(int(x) for x in rng.choice(n + 1, size=2, replace=False))
    twisted = twist_edge(s, i0, j0, np.random.default_rng(seed))
    old, new = s.edges[(i0, j0)], twisted.edges[(i0, j0)]
    assert_star_hom(new.lam)
    draws = np.random.default_rng(seed)
    CorrIso(old, new, [random_unitary(m, draws) for m in old.module.mult], eps=1e-12)
    rewritten = [u for key, u in twisted.cells.items() if u is not s.cells[key]]
    assert rewritten
    for u in rewritten:
        CorrIso(u.src, u.dst, u.blocks, eps=1e-12)
    validate_simplex(twisted)


@settings(max_examples=25)
@given(embeddings())
def test_trust_boundary_refuses_a_moved_generator_entry(case):
    """Move the largest entry of one W outward by 1e-6: the data stops
    being an isometry, so its hom is not multiplicative; its Gram blocks
    stay Hermitian, so the star check alone would pass it."""
    src, dst, mult, seed = case
    assume(mult.any())
    phi = embedding_hom(src, dst, mult, np.random.default_rng(seed))
    ws = [{i: w.copy() for i, w in w_l.items()} for w_l in phi._ws]
    w = next(w for w_l in ws for w in w_l.values())
    x = np.unravel_index(np.abs(w).argmax(), w.shape)
    w[x] += 1e-6 * w[x] / abs(w[x])
    bad = _bratteli_hom(src, dst, ws)
    assert _star_residual(src, dst, bad.matrix) <= 1e-12
    with pytest.raises(NotMultiplicative):
        make_star_hom(src, dst, bad.matrix)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hom.json")
        dump_value(bad, path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["validate", path]) == 1
    assert "star-preserving: ok" in out.getvalue()
    assert "multiplicative: FAIL" in out.getvalue()


# ---------------------------------------------------------------------------
# a hom's values on matrix units are read off its matrix columns


def bit_equal(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def ref_normal_form(phi, eps=1e-9):
    """hom_normal_form through apply on matrix units, as it was written."""
    src, dst = phi.src, phi.dst
    ws = []
    for j, m in enumerate(dst.blocks):
        cols = []
        for i, n in enumerate(src.blocks):
            r = int(phi.mult_matrix[i, j])
            if r == 0:
                continue
            v = orthonormal_range(apply(phi, matrix_unit(src, i, 0, 0)).mats[j], eps)
            assert v.shape[1] == r
            for a in range(n):
                ea1 = apply(phi, matrix_unit(src, i, a, 0)).mats[j]
                cols += [ea1 @ v[:, t] for t in range(r)]
        w = np.column_stack(cols) if cols else np.zeros((m, 0), dtype=complex)
        if w.shape[1] < m:
            w = np.column_stack([w, orthonormal_range(np.eye(m) - w @ w.conj().T, eps)])
        ws.append(w)
    return ws


def assert_columns_are_the_element_route(phi):
    """Each column read, with + 0.0, is apply on its matrix unit to the bit,
    and phi(1) as matrix @ one is apply on the identity; so are the library
    reads built on them.  Gamma's isometry is I where phi(1) fills the
    block, (m, 0) where phi misses it, and the range of apply on the
    identity elsewhere."""
    src, dst = phi.src, phi.dst
    one = apply(phi, identity(src))
    p = _unit_image(phi)[:, None]
    ranks = np.dot(src.blocks, phi.mult_matrix)
    for j, m in enumerate(dst.blocks):
        assert bit_equal(dst.block_rows(p, j)[:, :, 0], one.mats[j])
        v = gamma_isometries(phi)[j]
        if ranks[j] == m:
            assert bit_equal(v, np.eye(m, dtype=complex))
        elif ranks[j] == 0:
            assert v.shape == (m, 0)
        else:
            assert bit_equal(v, orthonormal_range(one.mats[j]))
    for c, i, a, b in basis_triples(src):
        img = apply(phi, matrix_unit(src, i, a, b))
        for j in range(dst.nblocks):
            assert bit_equal(dst.block_rows(phi.matrix, j)[:, :, c] + 0.0, img.mats[j])
    assert is_full_hom(phi) == all(frob(x) > 1e-9 for x in one.mats)
    for w, ref in zip(hom_normal_form(phi), ref_normal_form(phi)):
        assert bit_equal(w, ref)


def assert_action_reads_are_the_element_route(corr):
    """The tensor frame's P_jk and the left unitor's action, against apply."""
    a = corr.src
    proj = corr._frame()[1]
    for j in range(a.nblocks):
        img = apply(corr.lam, matrix_unit(a, j, 0, 0))
        for k in range(corr.dst.nblocks):
            pos = corr.module.compact_pos(k)
            assert bit_equal(proj[j][k], np.zeros((0, 0)) if pos is None else img.mats[pos])
    tp = tensor_corrs(identity_corr(a), corr)

    def action(i, s, k, w):
        return apply(corr.lam, matrix_unit(a, i, s, 0)).mats[corr.module.compact_pos(k)] @ w

    ref = _intertwiner_blocks(tp, corr, action)
    assert all(bit_equal(u, r) for u, r in zip(left_unitor(tp).blocks, ref))
    assert_columns_are_the_element_route(corr.lam)


def from_json(value):
    return value_from_json(json.loads(json.dumps(value_to_json(value))))


@settings(max_examples=40)
@given(embeddings(), st.booleans())
@example((FdCstarAlgebra((2, 1)), FdCstarAlgebra((3, 2)), np.array([[1, 0], [0, 0]]), 0), False)
def test_matrix_unit_values_are_column_reads(case, loaded):
    """Zero multiplicities and spare dimensions (non-unital embedding_hom),
    with and without a JSON round trip."""
    src, dst, mult, seed = case
    rng = np.random.default_rng(seed)
    phi = embedding_hom(src, dst, mult, rng)
    corr = random_correspondence(src, dst, rng)
    if loaded:
        phi, corr = from_json(phi), from_json(corr)
    assert_columns_are_the_element_route(phi)
    assert_action_reads_are_the_element_route(corr)


@settings(max_examples=15)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_twisted_simplex_actions_are_column_reads(seed, n):
    """Twisted edges and the left actions of 3-simplices (which hold
    negative zeros), loaded back from JSON."""
    s = random_simplex(np.random.default_rng(seed), n, twist=True, max_mult=1)
    for corr in {**s.edges, **from_json(s).edges}.values():
        assert_action_reads_are_the_element_route(corr)


# ---------------------------------------------------------------------------
# multiplicities from construction: every certified builder passes the
# mult_matrix it knows from its inputs, which the dense trace reproduces


def assert_trace_agrees(phi):
    traced = _traced_mult(phi.src, phi.dst, phi.matrix)
    assert bit_equal(phi.mult_matrix, traced) and phi.mult_matrix.dtype == np.int64


def random_projection(a, rng):
    """A projection with a nonzero range of random rank in every block."""
    p = alg_zero(a)
    for i, n in enumerate(a.blocks):
        v = random_unitary(n, rng)[:, : int(rng.integers(1, n + 1))]
        p.mats[i][:, :] = v @ v.conj().T
    return p.to_vec()


@settings(max_examples=40)
@given(embeddings())
@example((FdCstarAlgebra((2, 1)), FdCstarAlgebra((3, 2)), np.array([[1, 0], [0, 0]]), 0))
def test_passed_multiplicities_match_the_dense_trace(case):
    """embedding_hom (non-unital with a spare dimension), identity_hom,
    corner inclusions, composites, gamma_of_hom (of a non-unital hom too),
    the Morita homs, both homs of the corner factorization, direct sums,
    twisted edges, the subdivision connecting homs and the left actions of
    tensor products, on a twisted simplex and on products of products."""
    src, dst, mult, seed = case
    rng = np.random.default_rng(seed)
    phi = embedding_hom(src, dst, mult, rng)
    homs = [phi, identity_hom(src), identity_hom(dst)]
    homs.append(corner_algebra(random_projection(dst, rng), dst).inclusion)
    inc = corner_algebra(random_projection(src, rng), src).inclusion
    corr = random_correspondence(src, dst, rng, max_mult=2)
    u = u_of_corr(corr)
    homs += [u.i_hom, u.j_hom, equivalence_inverse(random_equivalence(dst, rng)).inverse.lam]
    homs += [compose_homs(phi, inc), compose_homs(u.j_hom, inc), compose_homs(u.i_hom, phi)]
    corrs = [corr, random_correspondence(src, dst, rng, max_mult=2)]
    if mult.any():  # the zero hom has no correspondence
        corrs.append(gamma_of_hom(phi))
        homs.append(compose_homs(corrs[-1].lam, inc))
    homs += [gamma_of_hom(random_unital_hom(src, rng, max_mult=2)).lam, u.gamma_j.lam]
    homs += [c.lam for c in corrs] + [direct_sum_corrs(cs)[0].lam for cs in (corrs, corrs[::-1])]
    sigma = random_simplex(rng, 2, twist=True, max_mult=2)
    homs += [twist_edge(sigma, i, j, rng).edge(i, j).lam for i, j in ((0, 1), (0, 2), (1, 2))]
    subsets = _nonempty_subsets(2)
    homs += [connecting_hom(sigma, s, t) for s in subsets for t in subsets if set(s) < set(t)]
    products = [sigma.tp(i, j, k) for i in range(3) for j in range(i, 3) for k in range(j, 3)]
    products.append(tensor_corrs(sigma.tp(0, 1, 2).corr, identity_corr(sigma.algebras[2])))
    products.append(tensor_corrs(sigma.edge(0, 1), sigma.tp(1, 1, 2).corr))
    homs += [t.corr.lam for t in products]
    for phi in homs:
        assert_trace_agrees(phi)


# ---------------------------------------------------------------------------
# a hom built from Bratteli data holds it; its dense matrix is built on first read


def bratteli_homs(seed):
    """One hom of each builder that goes through _bratteli_hom, and every
    connecting hom of a subdivision (f_SS is identity_hom), keyed by name."""
    rng = np.random.default_rng(seed)
    src = small_algebra(rng)
    mult, dst = random_mult(rng, src, 2)
    homs = {
        "embedding_hom": embedding_hom(src, dst, mult, rng),
        "identity_hom": identity_hom(dst),
        "corner inclusion": corner_algebra(random_projection(dst, rng), dst).inclusion,
        "u_of_corr i_hom": u_of_corr(random_correspondence(src, dst, rng, max_mult=2)).i_hom,
        "Morita inverse": equivalence_inverse(random_equivalence(dst, rng)).inverse.lam,
    }
    sd = subdivision_functor(random_simplex(rng, 2, max_blocks=2, max_size=2, max_mult=2))
    homs.update({("f_ST", s, t): f for (s, t), f in sd.homs.items()})
    return homs


@pytest.mark.parametrize("seed", range(5))
def test_dense_view_is_the_eager_build(seed):
    """Each view is byte-equal to _conjugation_matrix of the hom's data (to
    np.eye for an identity), C-ordered, read-only and built once."""
    for name, h in bratteli_homs(seed).items():
        if name == "identity_hom" or name[0] == "f_ST" and name[1] == name[2]:
            eager = np.eye(h.src.dim, dtype=complex)
        else:
            eager = _conjugation_matrix(h.src, h.dst, h._ws)
        m = h.matrix
        assert m.tobytes() == eager.tobytes() and m.dtype == complex, name
        assert m.flags.c_contiguous and not m.flags.writeable, name
        assert h.matrix is m and vars(h)["matrix"] is m, name


@pytest.mark.parametrize("seed", range(3))
def test_kept_bratteli_data_is_read_only(seed):
    for name, h in bratteli_homs(seed).items():
        for w_l in h._ws:
            for w in w_l.values():
                with pytest.raises(ValueError, match="read-only"):
                    w[0, 0, 0] = 0
                assert not w.flags.writeable, name


def test_homs_compare_and_hash_by_identity():
    """== never raises and never builds a matrix; a hom is a dict key."""
    a = make_algebra((2, 1))
    f, g = identity_hom(a), identity_hom(a)
    assert f == f and f != g and not f == g
    assert hash(f) == hash(f) and len({f, g, f}) == 2
    assert "matrix" not in vars(f) and "matrix" not in vars(g)


def is_identity_build(src, dst, ws):
    """Whether a dense build is an identity's: src is dst and every W is an
    exact eye(n)[:, :, None]."""
    return src is dst and all(
        list(w_l) == [i]
        and w_l[i].shape == (n, n, 1)
        and w_l[i].tobytes() == np.eye(n, dtype=complex)[:, :, None].tobytes()
        for i, (n, w_l) in enumerate(zip(src.blocks, ws))
    )


def count_dense_builds(monkeypatch):
    """The list every later dense view build, a _conjugation_matrix call,
    appends (whether it is an identity's, source algebra) to."""
    calls = []

    def counted(src, dst, ws, real=algebra._conjugation_matrix):
        calls.append((is_identity_build(src, dst, ws), src))
        return real(src, dst, ws)

    monkeypatch.setattr(algebra, "_conjugation_matrix", counted)
    return calls


def assert_only_base_identities(calls, sigma):
    """The one dense build left is the identity of a vertex algebra of the
    base simplex, the left factor of its products E_mm (x) E_mM, each built
    once; no connecting hom and no other Bratteli hom is built densely."""
    built = [src for identity, src in calls if identity]
    assert len(built) == len(calls) and len(set(map(id, built))) == len(built)
    assert all(any(a is src for a in sigma.algebras) for src in built)


@pytest.mark.parametrize("n", [2, 3])
def test_checked_subdivision_builds_no_dense_matrix(monkeypatch, n):
    sigma = scaling_chain_simplex(n)
    calls = count_dense_builds(monkeypatch)
    sd = subdivision_functor(sigma, check=True)
    assert_only_base_identities(calls, sigma)
    assert not any("matrix" in vars(f) for f in sd.homs.values())
    calls.clear()
    sd.hom((0,), (0, 1, 2)).matrix
    sd.hom((0, 1, 2), (0, 1, 2)).matrix
    assert [identity for identity, _ in calls] == [False, True]


def test_k0_extension_builds_no_dense_matrix(monkeypatch):
    """K0 reads multiplicities only, so no connecting hom is ever dense."""
    s = random_simplex(np.random.default_rng(1), 4, max_blocks=2, max_size=2, max_mult=1)
    calls = count_dense_builds(monkeypatch)
    top = bar_F(s, k0_functor(), K0Oracle(), {})
    assert_only_base_identities(calls, s)
    assert top.n == 4


def test_a_nan_in_unread_data_is_refused(monkeypatch):
    """The check reads the data, so a NaN W whose hom was never read
    densely still fails functoriality."""
    built, real = [], subdivision._bratteli_hom

    def kept(src, dst, ws):
        built.append(real(src, dst, ws))
        return built[-1]

    monkeypatch.setattr(subdivision, "_bratteli_hom", kept)
    corrupt_isometries(monkeypatch, ((0,), (0, 1)), move=lambda x: np.nan)
    s = random_simplex(np.random.default_rng(21), 2, max_mult=1)
    with pytest.raises(FunctorialityViolated, match="nan"):
        subdivision_functor(s, check=True)
    assert any(np.isnan(w).any() for f in built for w_l in f._ws for w in w_l.values())
    assert not any("matrix" in vars(f) for f in built)


# ---------------------------------------------------------------------------
# the entries view: written from the Bratteli data, the dense view's nonzeros


def gate_subdivision_homs(seed):
    """Every connecting hom of the subdivision sweep's 50 draws at ``seed``,
    drawn as acceptance.suite_subdivision draws them."""
    rng = np.random.default_rng(seed)
    for t in range(50):
        s = random_simplex(rng, t % 3 + 1, twist=bool(t % 2), max_blocks=2, max_size=2, max_mult=1)
        yield from subdivision_functor(s, check=False).homs.values()


def assert_entries_are_the_nonzeros_of(h, dense):
    """h.entries is np.nonzero of ``dense`` to the bit: positions, value
    bits read as uint64 (NaN payloads and signs included), row starts and
    the finiteness flag."""
    rows, cols = np.nonzero(dense)
    shape, r, c, vals, starts, finite = h.entries
    assert shape == dense.shape and vals.dtype == complex
    assert np.array_equal(r, rows) and np.array_equal(c, cols)
    assert np.array_equal(vals.view(np.uint64), dense[rows, cols].view(np.uint64))
    assert np.array_equal(starts, np.searchsorted(rows, np.arange(dense.shape[0] + 1)))
    assert finite is bool(np.isfinite(dense).all())


@pytest.mark.parametrize("seed", [42, 7])
def test_entries_of_the_gate_homs_are_the_old_dense_nonzeros(seed):
    """Read before the dense view, which it never builds; the dense view,
    one scatter of the same entries, is the old writer's to the bit."""
    count = 0
    for h in gate_subdivision_homs(seed):
        old = dense_conjugation_matrix(h.src, h.dst, h._ws)
        assert_entries_are_the_nonzeros_of(h, old)
        assert "matrix" not in vars(h)
        assert h.matrix.tobytes() == old.tobytes()
        count += 1
    assert count > 1000


@pytest.mark.parametrize("blocks", [[1], [3, 1], [7, 2, 5]])
def test_identity_and_matrix_hom_entries(blocks):
    """An identity's entries are its diagonal of ones; a hom given a matrix
    (a composite, a checked matrix, a product's left action) reads its
    entries off that matrix."""
    rng = np.random.default_rng(len(blocks))
    a = FdCstarAlgebra(blocks)
    idty = identity_hom(a)
    assert_entries_are_the_nonzeros_of(idty, dense_conjugation_matrix(a, a, idty._ws))
    assert np.array_equal(idty.entries[1], np.arange(a.dim)) and (idty.entries[3] == 1).all()
    phi = random_unital_hom(a, rng, max_mult=2)
    psi = random_unital_hom(phi.dst, rng, max_mult=1)
    corr = random_correspondence(a, phi.dst, rng)
    homs = [compose_homs(psi, phi), make_star_hom(a, phi.dst, phi.matrix)]
    homs.append(tensor_corrs(corr, gamma_of_hom(psi)).corr.lam)
    for h in homs:
        assert h._ws is None
        assert_entries_are_the_nonzeros_of(h, h.matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", ["kept", "zero"])
def test_non_finite_bratteli_data_gives_the_old_dense_nonzeros(bad, row):
    """A non-finite entry in a nonzero row of W, or in a row that was zero,
    gives the entries np.nonzero finds in the old dense build, to the bit."""
    for h in list(gate_subdivision_homs(7))[:200]:
        ws = [{i: np.array(w) for i, w in w_l.items()} for w_l in h._ws]
        w = next((w for w_l in ws for w in w_l.values() if not w.any(axis=2).all()), None)
        if w is None:
            continue
        zero = ~w.any(axis=2)
        a, p = np.argwhere(zero if row == "zero" else ~zero)[0]
        w[a, p, 0] = bad
        f = _bratteli_hom(h.src, h.dst, ws)
        with np.errstate(invalid="ignore"):  # inf * 0 in the Gram is NaN
            old = dense_conjugation_matrix(h.src, h.dst, ws)
            assert not np.isfinite(old).all()
            assert_entries_are_the_nonzeros_of(f, old)
            assert f.matrix.tobytes() == old.tobytes()
        return
    raise AssertionError("no draw has a W with a zero row")


def test_a_nan_in_bratteli_data_makes_the_judge_nan(monkeypatch):
    """A NaN in the data of f_(0),(0,1) reaches the judge through the
    entries it writes: every case of the sweep fails with residual NaN, and
    no connecting hom is read densely."""
    corrupt_isometries(monkeypatch, ((0,), (0, 1)), move=lambda x: np.nan)
    real, built = acceptance.subdivision_functor, []

    def kept(s, *, eps, check):
        built.append(real(s, eps=eps, check=check))
        return built[-1]

    monkeypatch.setattr(acceptance, "subdivision_functor", kept)
    report = acceptance.suite_subdivision(trials=3)
    assert not report.ok and all(np.isnan(c.residual) for c in report.cases)
    assert not any("matrix" in vars(f) for sd in built for f in sd.homs.values())

"""Simplices of correspondences: coherence, simplicial identities, horn fills.

Inner fills in dimension 3 must recover a deleted unitary exactly (up to
rounding); that uniqueness is what makes the nerve behave like a quasi-
category rather than a bare coherence bookkeeping device.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import modules, nerve
from corrlab.algebra import FdCstarAlgebra, StarHom, _traced_mult, make_algebra
from corrlab.bicategory import find_corr_iso
from corrlab.cli import main
from corrlab.errors import (
    EndpointMismatch,
    NotAnEquivalence,
    NotIntertwining,
    NotUnitary,
    IncompatibleFaces,
    PentagonViolated,
    ShapeMismatch,
    Unfillable,
    ValidationError,
)
from corrlab.generators import (
    embedding_hom,
    random_algebra,
    random_chain,
    random_simplex,
    twist_edge,
)
from corrlab.modules import (
    CorrIso,
    Correspondence,
    associator,
    compose_isos,
    corr_close,
    identity_corr,
    iso_distance,
    left_unitor,
    make_correspondence,
    make_iso,
    make_module,
    right_unitor,
    tensor_corrs,
    tensor_iso,
)
from corrlab.nerve import (
    HornSpec,
    NCorrSimplex,
    apply_map,
    assemble_boundary,
    degeneracy,
    face,
    fill_inner_horn,
    fill_special_outer_horn,
    gamma_simplex,
    identity_iso,
    make_simplex,
    pentagon_residual,
    simplex_close,
    structural_hash,
    validate_simplex,
)
from corrlab.serialize import load_value
from reference import dump_value, is_equivalence


def weak_quadruples(n):
    return [
        (i, j, k, l)
        for i in range(n + 1)
        for j in range(i, n + 1)
        for k in range(j, n + 1)
        for l in range(k, n + 1)
    ]


@pytest.mark.parametrize("seed", range(3))
def test_gamma_simplex_validates(seed):
    rng = np.random.default_rng(seed)
    s = gamma_simplex(random_chain(rng, 3, max_mult=1), validate=True)
    for quad in weak_quadruples(3):
        assert pentagon_residual(s, *quad) < 1e-9


def test_pentagon_sweep_builds_a_fixed_number_of_products(monkeypatch):
    """One nerve-coherence case: gamma_simplex of a 3-chain, validate_simplex
    and the pentagon at all 35 weak quadruples.  E (x) id_B is E itself, so
    it builds no left action, and every product with it on the left is one
    E already keeps: 46 products with a non-identity factor and 30 left
    actions, where building E (x) id_B afresh took 90 of each.  Equal
    algebras are one object with one id_B, so id_B (x) id_B is built at
    most once per distinct vertex block tuple, and not at all where an
    earlier test left it on a live id_B (48 products in all when run alone)."""
    counts, units = Counter(), Counter()
    tp_class = modules.TensorProduct
    init, left_action = tp_class.__init__, tp_class._left_action

    def product(self, left, right):
        if left is left.src._identity and right is right.src._identity:
            units[left.src.blocks] += 1
        else:
            counts["products"] += 1
        return init(self, left, right)

    def action(self, module):
        counts["left actions"] += 1
        return left_action(self, module)

    monkeypatch.setattr(tp_class, "__init__", product)
    monkeypatch.setattr(tp_class, "_left_action", action)
    for seed in (0, 4):
        counts.clear()
        units.clear()
        chain = random_chain(np.random.default_rng(seed), 3, max_blocks=2, max_size=2, max_mult=1)
        s = gamma_simplex(chain, validate=False)
        validate_simplex(s)
        assert max(pentagon_residual(s, *quad) for quad in weak_quadruples(3)) <= 1e-9
        assert counts == {"products": 46, "left actions": 30}
        assert set(units) <= {a.blocks for a in s.algebras} and max(units.values(), default=1) == 1


def test_identity_edges_and_unit_cells():
    rng = np.random.default_rng(4)
    s = random_simplex(rng, 2, max_mult=1)
    assert set(s.edges) == {(0, 1), (0, 2), (1, 2)}
    assert set(s.cells) == {(0, 1, 2)}
    for i in range(3):
        assert corr_close(s.edge(i, i), identity_corr(s.algebras[i]))
        assert s.edge(i, i) is s.edge(i, i)
        for k in range(i, 3):
            left = s.cell(i, i, k)
            assert iso_distance(left, left_unitor(s.tp(i, i, k))) == 0.0
            assert iso_distance(s.cell(i, k, k), right_unitor(s.tp(i, k, k))) == 0.0
            assert s.cell(i, i, k) is left


def test_constructor_refuses_non_strict_keys():
    """make_simplex, the checking constructor, refuses every key that is not
    a strict pair or triple in range, and a missing one (ShapeMismatch)."""
    rng = np.random.default_rng(4)
    s = random_simplex(rng, 2, max_mult=1)
    with pytest.raises(ShapeMismatch):
        make_simplex(s.algebras, s.edges | {(1, 1): s.edge(1, 1)}, s.cells)
    for key in [(0, 0, 2), (0, 2, 2), (1, 1, 1), (0, 1, 3), (2, 1, 0)]:
        with pytest.raises(ShapeMismatch):
            make_simplex(s.algebras, s.edges, s.cells | {key: s.cells[(0, 1, 2)]})
    edges = dict(s.edges)
    e = edges.pop((0, 2))
    for key in [(2, 0), (2, 2), (0, 3)]:
        with pytest.raises(ShapeMismatch):
            make_simplex(s.algebras, edges | {key: e}, s.cells)
    with pytest.raises(ShapeMismatch):
        make_simplex(s.algebras, edges, s.cells)
    with pytest.raises(ShapeMismatch):
        make_simplex(s.algebras, s.edges, s.cells | {(0, 0, 1): s.cell(0, 0, 1)})
    with pytest.raises(ShapeMismatch, match="at least one vertex"):
        make_simplex([], {}, {})


def test_the_constructor_stores_and_the_one_check_refuses():
    """NCorrSimplex is the certified constructor: it stores edges that miss
    their vertices, or a cell that lands off its edge, unchecked; the one
    check (make_simplex, validate_simplex) refuses both, at any eps."""
    s = random_simplex(np.random.default_rng(4), 2, max_mult=1)
    algebras = s.algebras[::-1]
    assert algebras[0] != s.algebras[0]
    swapped = NCorrSimplex(algebras, s.edges, s.cells)
    assert swapped.algebras == algebras and swapped.edges == s.edges
    cells = {(0, 1, 2): identity_iso(s.tp(0, 1, 2).corr)}
    off = NCorrSimplex(s.algebras, s.edges, cells)
    assert off.cells == cells
    for eps in (1e-9, 1.0):
        with pytest.raises(EndpointMismatch, match=r"edge \(0, 1\) endpoints disagree"):
            validate_simplex(swapped, eps=eps)
        with pytest.raises(EndpointMismatch, match=r"edge \(0, 1\) endpoints disagree"):
            make_simplex(algebras, s.edges, s.cells, eps=eps)
        with pytest.raises(EndpointMismatch, match=r"cell \(0, 1, 2\) does not land on edge \(0, 2\)"):
            validate_simplex(off, eps=eps)
    assert not hasattr(nerve, "_check_strict_keys")


def same_bits(x, y) -> bool:
    """Bit-equal correspondences, or intertwiners with bit-equal blocks."""
    if isinstance(x, Correspondence):
        return x.module == y.module and np.array_equal(x.lam.matrix, y.lam.matrix)
    return x.src.module == y.src.module and all(
        np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks, strict=True)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degeneracy_shares_the_parents_cells(n):
    # stored (strict) data is the parent's object; degenerate data is
    # derived by each simplex and comes out bit-equal to the parent's
    rng = np.random.default_rng(40 + n)
    s = random_simplex(rng, n, twist=True, max_blocks=2, max_size=2, max_mult=1)
    for i in range(n + 1):
        d = degeneracy(s, i)
        phi = sorted(list(range(n + 1)) + [i])
        for key in itertools.combinations_with_replacement(range(n + 2), 2):
            mine, parent = d.edge(*key), s.edge(*(phi[x] for x in key))
            if key in d.edges:
                assert mine is parent, (i, key)
            assert same_bits(mine, parent), (i, key)
        for key in itertools.combinations_with_replacement(range(n + 2), 3):
            mine, parent = d.cell(*key), s.cell(*(phi[x] for x in key))
            if key in d.cells:
                assert mine is parent, (i, key)
            assert same_bits(mine, parent), (i, key)


@pytest.mark.parametrize("seed", range(3))
def test_face_identities(seed):
    rng = np.random.default_rng(seed + 10)
    s = random_simplex(rng, 3, max_mult=1)
    for i in range(3):
        for j in range(i + 1, 4):
            a = face(face(s, j), i)
            b = face(face(s, i), j - 1)
            assert structural_hash(a) == structural_hash(b)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_nerve_faces_satisfy_the_simplicial_identity(seed, n):
    """d_i d_j = d_{j-1} d_i for i < j: the identity the extension engine's
    argument for comparing no missing face rests on."""
    s = random_simplex(np.random.default_rng(seed), n, max_blocks=2, max_size=2, max_mult=1)
    for j in range(n + 1):
        for i in range(j):
            a, b = face(face(s, j), i), face(face(s, i), j - 1)
            assert structural_hash(a) == structural_hash(b)


def test_degeneracy_identities():
    rng = np.random.default_rng(2)
    s = random_simplex(rng, 2, max_mult=1)
    for i in range(3):
        d = degeneracy(s, i)
        assert d.n == 3
        assert structural_hash(face(d, i)) == structural_hash(s)
        assert structural_hash(face(d, i + 1)) == structural_hash(s)
        validate_simplex(d)


def test_apply_map_agrees_with_face_and_degeneracy():
    rng = np.random.default_rng(6)
    s = random_simplex(rng, 3, max_mult=1)
    assert structural_hash(apply_map(s, (0, 1, 2))) == structural_hash(face(s, 3))
    assert structural_hash(apply_map(s, (0, 2, 3))) == structural_hash(face(s, 1))
    d = apply_map(s, (0, 1, 1, 2))
    assert structural_hash(d) == structural_hash(degeneracy(face(s, 3), 1))


def test_twist_keeps_validity_and_changes_hash():
    rng = np.random.default_rng(7)
    s = random_simplex(rng, 3, max_mult=1)
    t = twist_edge(s, 0, 2, rng)
    validate_simplex(t)
    assert not corr_close(t.edges[(0, 2)], s.edges[(0, 2)])
    assert structural_hash(t) != structural_hash(s)
    assert simplex_close(s, s)
    assert not simplex_close(t, s)


def test_inner_fill_dim2():
    rng = np.random.default_rng(11)
    s = random_simplex(rng, 2, max_mult=2)
    horn = HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)})
    filled = fill_inner_horn(horn)
    assert corr_close(filled.edges[(0, 1)], s.edges[(0, 1)])
    assert corr_close(filled.edges[(1, 2)], s.edges[(1, 2)])
    validate_simplex(filled)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2])
def test_inner_fill_dim3_recovers_deleted_cell(seed, k):
    rng = np.random.default_rng(100 + seed)
    s = random_simplex(rng, 3, max_mult=1, twist=True)
    horn = HornSpec(3, k, {j: face(s, j) for j in range(4) if j != k})
    filled = fill_inner_horn(horn)
    missing = tuple(x for x in range(4) if x != k)
    assert iso_distance(filled.cells[missing], s.cells[missing]) < 1e-9
    assert simplex_close(filled, s)


def equivalence_tail_simplex(rng, length):
    """A Gamma simplex whose final edge is induced by a *-isomorphism."""
    chain = random_chain(rng, length, max_mult=1)
    a = chain[-1].dst
    p = rng.permutation(a.nblocks)
    if not all(a.blocks[i] == a.blocks[int(p[i])] for i in range(a.nblocks)):
        p = np.arange(a.nblocks)
    mult = np.zeros((a.nblocks, a.nblocks), dtype=np.int64)
    for i in range(a.nblocks):
        mult[i, int(p[i])] = 1
    chain.append(embedding_hom(a, a, mult, rng))
    return gamma_simplex(chain, validate=False)


def loop_extraction(edges, cells):
    """_solve_pentagon's k = 3 solve as it was written: T from the same
    pentagon, then one np.trace per r x r block (a, a2)."""
    e01, e12, e23, e02, e13 = (edges[k] for k in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    t01_12, t12_23 = tensor_corrs(e01, e12), tensor_corrs(e12, e23)
    t_l, t_r = tensor_corrs(t01_12.corr, e23), tensor_corrs(e01, t12_23.corr)
    t02_23, t01_13 = tensor_corrs(e02, e23), tensor_corrs(e01, e13)
    ass = associator(t01_12, t_l, t12_23, t_r)
    step = tensor_iso(identity_iso(e01), cells[(1, 2, 3)], t_r, t01_13)
    right = compose_isos(cells[(0, 1, 3)], compose_isos(step, ass))
    t_mat = compose_isos(cells[(0, 2, 3)].inverse(), right)
    blocks = []
    for j in range(e02.dst.nblocks):
        m_dst, m_src = e02.module.mult[j], t01_12.module.mult[j]
        num, den = np.zeros((m_dst, m_src), dtype=complex), 0
        for kk in range(e23.dst.nblocks):
            r = t02_23.r[j][kk]
            if r == 0:
                continue
            den += r
            tb, o_d, o_s = t_mat.blocks[kk], t02_23.row_start(kk, j, 0), t_l.row_start(kk, j, 0)
            for a in range(m_dst):
                for a2 in range(m_src):
                    num[a, a2] += np.trace(
                        tb[o_d + a * r : o_d + (a + 1) * r, o_s + a2 * r : o_s + (a2 + 1) * r]
                    )
        blocks.append(num / den if den else num)
    return blocks


def test_pentagon_extraction_matches_the_trace_loop():
    """Bit for bit, multiplicities r = 4 included: there a strided
    reshape(...).trace sums in another order than np.trace of one block."""
    seen_r = set()
    cases = [(seed, {"max_mult": 2}) for seed in range(8)]
    cases += [(seed, {"max_size": 1, "max_mult": 4}) for seed in (1, 2, 5, 6, 9)]  # r = 4, small
    for seed, kw in cases:
        s = random_simplex(np.random.default_rng(seed), 3, **kw)
        seen_r.update(x for row in tensor_corrs(s.edges[(0, 2)], s.edges[(2, 3)]).r for x in row)
        try:
            u = nerve._solve_pentagon(dict(s.edges), dict(s.cells), 3, 1e-9)
        except Unfillable:
            continue
        ref = loop_extraction(s.edges, s.cells)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(u.blocks, ref))
    assert max(seen_r) >= 4


@pytest.mark.parametrize("seed", range(3))
def test_special_outer_fill_dim3(seed):
    rng = np.random.default_rng(200 + seed)
    s = equivalence_tail_simplex(rng, 2)
    assert is_equivalence(s.edges[(2, 3)])
    horn = HornSpec(3, 3, {j: face(s, j) for j in range(3)})
    filled = fill_special_outer_horn(horn)
    assert iso_distance(filled.cells[(0, 1, 2)], s.cells[(0, 1, 2)]) < 1e-9


def test_special_3_horn_with_a_moved_face_cell_is_refused():
    """u_012 is read off T = u_023^* u_013 (id (x) u_123) a and no longer
    compared with T afterwards (see nerve._solve_pentagon).  A face cell moved
    1e-6 by a unitary, so no longer intertwining, is still refused: by the
    CorrIso check of u_012 or by the pentagon at (0, 1, 2, 3)."""
    rng = np.random.default_rng(501)
    s = equivalence_tail_simplex(rng, 2)
    refused = 0
    for j in range(3):
        f = face(s, j)
        ((key, c),) = f.cells.items()
        for b, u in enumerate(c.blocks):
            z = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
            w, v = np.linalg.eigh(1e-6 * (z + z.conj().T))
            blocks = list(c.blocks)
            blocks[b] = (v * np.exp(1j * w)) @ v.conj().T @ u
            moved = with_cell(f, key, CorrIso._trusted(c.src, c.dst, blocks))
            faces = {**horn_of(s, 3).faces, j: moved}
            with pytest.raises((NotUnitary, NotIntertwining, PentagonViolated)):
                fill_special_outer_horn(HornSpec(3, 3, faces))
            refused += 1
    assert refused == 6


@pytest.mark.parametrize("seed", range(3))
def test_special_outer_fill_dim2(seed):
    rng = np.random.default_rng(300 + seed)
    s = equivalence_tail_simplex(rng, 1)
    assert is_equivalence(s.edges[(1, 2)])
    horn = HornSpec(2, 2, {0: face(s, 0), 1: face(s, 1)})
    filled = fill_special_outer_horn(horn)
    validate_simplex(filled)
    assert find_corr_iso(filled.edges[(0, 1)], s.edges[(0, 1)]) is not None


def test_outer_horn_needs_equivalence_tail():
    rng = np.random.default_rng(31)
    chain = random_chain(rng, 1, max_mult=1)
    tail = chain[-1].dst
    doubled = FdCstarAlgebra(tuple(2 * x for x in tail.blocks))
    chain.append(
        embedding_hom(tail, doubled, 2 * np.eye(tail.nblocks, dtype=np.int64), rng)
    )
    s = gamma_simplex(chain, validate=False)
    assert not is_equivalence(s.edges[(1, 2)])
    horn = HornSpec(2, 2, {0: face(s, 0), 1: face(s, 1)})
    with pytest.raises(NotAnEquivalence):
        fill_special_outer_horn(horn)


def test_inner_fill_rejects_outer_index():
    rng = np.random.default_rng(13)
    s = random_simplex(rng, 2, max_mult=1)
    horn = HornSpec(2, 2, {0: face(s, 0), 1: face(s, 1)})
    with pytest.raises(Unfillable):
        fill_inner_horn(horn)


def test_horn_spec_shape_checks():
    rng = np.random.default_rng(14)
    s = random_simplex(rng, 2, max_mult=1)
    with pytest.raises(ShapeMismatch):
        HornSpec(2, 3, {0: face(s, 0), 1: face(s, 1)})
    with pytest.raises(ShapeMismatch):
        HornSpec(2, 1, {0: face(s, 0)})
    with pytest.raises(ShapeMismatch):
        HornSpec(3, 1, {j: face(s, j) for j in (0, 2)} | {3: s})


def test_incompatible_faces_rejected():
    r1, r2 = np.random.default_rng(1), np.random.default_rng(2)
    t1, t2 = random_simplex(r1, 2), random_simplex(r2, 2)
    with pytest.raises(IncompatibleFaces):
        fill_inner_horn(HornSpec(2, 1, {0: face(t1, 0), 2: face(t2, 2)}))


@pytest.mark.parametrize("seed", range(2))
def test_hash_of_a_reindexed_simplex_ignores_what_its_parent_built(seed):
    # a face hashes the same whether or not its parent has built its
    # identity edges and unit cells
    maps = [m for r in (2, 3) for m in itertools.combinations_with_replacement(range(3), r)]
    fresh = random_simplex(np.random.default_rng(seed), 2, twist=True, max_mult=2)
    lazy = [structural_hash(apply_map(fresh, m)) for m in maps]
    built = random_simplex(np.random.default_rng(seed), 2, twist=True, max_mult=2)
    structural_hash(built)
    assert [structural_hash(apply_map(built, m)) for m in maps] == lazy


def test_pentagon_violation_detected():
    rng = np.random.default_rng(5)
    s = random_simplex(rng, 3, max_mult=1)
    cells = dict(s.cells)
    c = cells[(0, 1, 2)]
    cells[(0, 1, 2)] = make_iso(c.src, c.dst, [-u for u in c.blocks])
    bad = make_simplex(list(s.algebras), dict(s.edges), cells, validate=False)
    with pytest.raises(PentagonViolated):
        validate_simplex(bad)
    assert pentagon_residual(bad, 0, 1, 2, 3) > 1.0


def test_boundary_assembly():
    rng = np.random.default_rng(8)
    s = random_simplex(rng, 3, max_mult=1)
    rebuilt = assemble_boundary({j: face(s, j) for j in range(4)})
    assert simplex_close(rebuilt, s)
    s2 = random_simplex(rng, 2, max_mult=1)
    with pytest.raises(Unfillable):
        assemble_boundary({j: face(s2, j) for j in range(3)})


def test_dim4_assembly_fills():
    rng = np.random.default_rng(42)
    s4 = random_simplex(rng, 4, max_blocks=1, max_size=2, max_mult=1)
    validate_simplex(s4)
    for k in (2, 4):
        horn = HornSpec(4, k, {j: face(s4, j) for j in range(5) if j != k})
        filled = fill_inner_horn(horn) if 0 < k < 4 else fill_special_outer_horn(horn)
        assert simplex_close(filled, s4)


def test_dim5_assembly_fills():
    # above dimension 4 too, every edge and cell of the fill lies on a face
    rng = np.random.default_rng(43)
    s5 = random_simplex(rng, 5, twist=True, max_blocks=1, max_size=2, max_mult=1)
    for k in (3, 5):
        horn = HornSpec(5, k, {j: face(s5, j) for j in range(6) if j != k})
        filled = fill_inner_horn(horn) if 0 < k < 5 else fill_special_outer_horn(horn)
        assert simplex_close(filled, s5)


# ---------------------------------------------------------------------------
# a fill checks only the triples and quadruples that none of its faces covers


def counting_pentagons(monkeypatch):
    calls = []
    real = nerve.pentagon_residual

    def counting(simplex, *quad, **kw):
        calls.append(quad)
        return real(simplex, *quad, **kw)

    monkeypatch.setattr(nerve, "pentagon_residual", counting)
    return calls


def horn_of(s, k):
    return HornSpec(s.n, k, {j: face(s, j) for j in range(s.n + 1) if j != k})


def fill(horn):
    return fill_inner_horn(horn) if horn.k < horn.n else fill_special_outer_horn(horn)


@pytest.mark.parametrize("n,want", [(3, 1), (4, 1), (5, 0)])
def test_a_fill_computes_only_the_pentagons_no_face_covers(n, want, monkeypatch):
    rng = np.random.default_rng(80 + n)
    s = random_simplex(rng, n, twist=True, max_blocks=1, max_size=2, max_mult=1)
    horns = [horn_of(s, k) for k in range(1, n + (n >= 4))]
    if n == 3:
        horns.append(horn_of(equivalence_tail_simplex(rng, 2), 3))
    calls = counting_pentagons(monkeypatch)
    for horn in horns:
        calls.clear()
        fill(horn)
        assert len(calls) == want, horn.k
        if n == 4:  # the quadruple of the missing face
            assert calls == [tuple(x for x in range(5) if x != horn.k)]


@pytest.mark.parametrize("n,want", [(3, 1), (4, 0)])
def test_a_boundary_computes_only_the_pentagons_no_face_covers(n, want, monkeypatch):
    s = random_simplex(np.random.default_rng(85 + n), n, max_blocks=1, max_size=2, max_mult=1)
    calls = counting_pentagons(monkeypatch)
    assemble_boundary({j: face(s, j) for j in range(n + 1)})
    assert len(calls) == want


def test_the_trust_boundary_computes_every_strict_pentagon(tmp_path, monkeypatch, capsys):
    s = random_simplex(np.random.default_rng(88), 4, max_blocks=1, max_size=2, max_mult=1)
    path = tmp_path / "s.json"
    dump_value(s, path)
    checks = [
        lambda: validate_simplex(s),
        lambda: make_simplex(s.algebras, s.edges, s.cells),
        lambda: load_value(path),
        lambda: main(["validate", str(path)]),
    ]
    calls = counting_pentagons(monkeypatch)
    for check in checks:
        calls.clear()
        check()
        assert len(calls) == 5
    capsys.readouterr()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_horn_with_a_twisted_face_cell_fills_only_to_a_valid_simplex(n):
    """One cell of one face replaced by a phase-twisted copy, a valid
    CorrIso: each fill either raises or returns a simplex the full check
    accepts, the verdict of the check on every strict quadruple.  From n = 4
    up the twisted face is itself invalid and every such horn is refused,
    by the merge or by the missing face's pentagon."""
    rng = np.random.default_rng(95 + n)
    s = random_simplex(rng, n, max_blocks=1, max_size=2, max_mult=1)
    for k in range(1, n + (n >= 4)):
        for j in set(range(n + 1)) - {k}:
            f = face(s, j)
            for key, c in f.cells.items():
                z = phases(rng, len(c.blocks))
                faces = dict(horn_of(s, k).faces)
                faces[j] = with_cell(f, key, CorrIso(c.src, c.dst, [p * u for p, u in zip(z, c.blocks)]))
                try:
                    filled = fill(HornSpec(n, k, faces))
                except ValidationError:
                    continue
                assert n == 3, (k, j, key)
                validate_simplex(filled)


def test_structural_hash_is_stable():
    rng = np.random.default_rng(15)
    s = random_simplex(rng, 2, max_mult=1)
    rebuilt = make_simplex(list(s.algebras), dict(s.edges), dict(s.cells))
    assert structural_hash(rebuilt) == structural_hash(s)
    assert structural_hash(face(s, 0)) == structural_hash(face(s, 0))


# ---------------------------------------------------------------------------
# the reduced pentagon check against the full one


def reference_validate(s, eps=1e-9):
    """Test-only full check: the pentagon at every weakly increasing
    quadruple."""
    for quad in weak_quadruples(s.n):
        r = pentagon_residual(s, *quad)
        if r > eps:
            raise PentagonViolated(*quad, r)
    return s


def outcome(check, s):
    try:
        check(s)
    except ValidationError as err:
        return type(err)
    return None


def small_simplex(rng, n, kind):
    size = {"max_blocks": 1 if n == 4 else 2, "max_size": 2, "max_mult": 1}
    if kind == "degenerate":
        if n == 1:
            lower = make_simplex([random_algebra(rng, max_blocks=2, max_size=2)], {}, {})
        else:
            lower = random_simplex(rng, n - 1, twist=True, **size)
        return degeneracy(lower, int(rng.integers(0, n)))
    return random_simplex(rng, n, twist=kind == "twisted", **size)


def phases(rng, count):
    return np.exp(1j * rng.uniform(0.5, 2 * np.pi - 0.5, size=count))


def with_cell(s, key, cell):
    cells = dict(s.cells)
    cells[key] = cell
    return NCorrSimplex(s.algebras, s.edges, cells)


def corruptions(s, rng):
    """Corrupted copies of s; every cell of each is a valid CorrIso."""
    n = s.n
    strict = [(i, j, k) for i in range(n + 1) for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    for key in strict:
        c = s.cells[key]
        z = phases(rng, len(c.blocks))
        yield f"phase{key}", with_cell(s, key, CorrIso(c.src, c.dst, [p * u for p, u in zip(z, c.blocks)]))
        yield f"negated{key}", with_cell(s, key, make_iso(c.src, c.dst, [-u for u in c.blocks]))
        # a valid CorrIso landing on E_ik, but out of E_ik, not E_ij (x) E_jk
        yield f"source{key}", with_cell(s, key, identity_iso(s.edges[(key[0], key[2])]))


@pytest.mark.parametrize("kind", ["gamma", "twisted", "degenerate"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reduced_validator_matches_full_check(n, kind):
    rng = np.random.default_rng(500 + 10 * n + len(kind))
    s = small_simplex(rng, n, kind)
    assert outcome(validate_simplex, s) is outcome(reference_validate, s) is None
    seen = {}
    for name, bad in corruptions(s, rng):
        got = outcome(validate_simplex, bad)
        assert got is outcome(reference_validate, bad), name
        seen[name] = got
    # strict cells are caught only through a strict pentagon, so below
    # n = 3 a central twist of a cell is valid
    strict_outcomes = {got for name, got in seen.items() if name.startswith(("phase", "negated"))}
    if n < 3:
        assert strict_outcomes <= {None}
    elif kind != "degenerate":
        assert PentagonViolated in strict_outcomes
    # a strict cell out of the wrong correspondence is caught at every n,
    # including n = 2, where no strict pentagon looks at it
    for key in itertools.combinations(range(n + 1), 3):
        if not corr_close(s.edges[(key[0], key[2])], s.tp(*key).corr):
            assert seen[f"source{key}"] is EndpointMismatch, key
    if n == 2 and kind != "degenerate":
        assert seen["source(0, 1, 2)"] is EndpointMismatch


def test_moved_cell_entry_is_rejected_on_construction():
    rng = np.random.default_rng(77)
    s = random_simplex(rng, 3, twist=True, max_mult=1)
    for key in [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 0, 2), (0, 2, 2)]:
        c = s.cell(*key)
        dense = c.dense()
        for r, col in [(0, 0), (dense.shape[0] - 1, 0), (0, dense.shape[1] - 1)]:
            moved = dense.copy()
            moved[r, col] += 1e-6
            with pytest.raises(ValidationError):
                make_iso(c.src, c.dst, moved)


@pytest.mark.parametrize("n", range(5))
def test_validate_simplex_checks_each_strict_pentagon_once(n, monkeypatch):
    rng = np.random.default_rng(60 + n)
    if n == 0:
        s = make_simplex([random_algebra(rng)], {}, {})
    else:
        s = small_simplex(rng, n, "twisted")
    calls = []
    real = nerve.pentagon_residual

    def counting(simplex, *quad, **kw):
        calls.append(quad)
        return real(simplex, *quad, **kw)

    monkeypatch.setattr(nerve, "pentagon_residual", counting)
    validate_simplex(s)
    assert len(calls) == math.comb(n + 1, 4)
    assert all(i < j < k < l for i, j, k, l in calls)


@pytest.mark.parametrize("n", range(5))
def test_validate_simplex_builds_no_unitor(n, monkeypatch):
    rng = np.random.default_rng(70 + n)
    if n == 0:
        s = make_simplex([random_algebra(rng)], {}, {}, validate=False)
    else:
        s = small_simplex(rng, n, "twisted")
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nerve, "left_unitor", counting(left_unitor))
    monkeypatch.setattr(nerve, "right_unitor", counting(right_unitor))
    validate_simplex(s)
    assert calls == []
    s.cell(0, 0, n)  # the counter sees a unitor when one is built
    assert calls == ["left_unitor"]


def nan_cell_simplex(key, blocks):
    """A random 3-simplex whose cell ``key`` has NaN blocks (all, or the
    last only), built unchecked; the checking constructor refuses them."""
    s = random_simplex(np.random.default_rng(91), 3, max_mult=2)
    c = s.cells[key]
    nan = [np.full(u.shape, np.nan, dtype=complex) for u in c.blocks]
    if blocks == "last":
        nan = list(c.blocks[:-1]) + nan[-1:]
    with pytest.raises(NotUnitary):
        CorrIso(c.src, c.dst, nan)
    return with_cell(s, key, CorrIso._trusted(c.src, c.dst, nan))


@pytest.mark.parametrize("blocks", ["all", "last"])
def test_nan_cell_fails_validation(blocks):
    # u_013 enters the pentagon unchecked, so its NaN reaches the residual
    with pytest.raises(PentagonViolated) as err:
        validate_simplex(nan_cell_simplex((0, 1, 3), blocks))
    assert math.isnan(err.value.residual)
    # u_012 reaches it through the certified tensor_iso
    with pytest.raises(PentagonViolated) as err:
        validate_simplex(nan_cell_simplex((0, 1, 2), blocks))
    assert math.isnan(err.value.residual)


def nan_copy(cell):
    nan = [np.full(u.shape, np.nan, dtype=complex) for u in cell.blocks]
    return CorrIso._trusted(cell.src, cell.dst, nan)


def test_simplex_close_refuses_a_nan_cell():
    s = random_simplex(np.random.default_rng(92), 2, max_mult=2)
    bad = with_cell(s, (0, 1, 2), nan_copy(s.cells[(0, 1, 2)]))
    assert simplex_close(s, s)
    assert not simplex_close(s, bad) and not simplex_close(bad, s)


def test_boundary_merge_refuses_a_nan_cell():
    """Faces 0 and 4 of a 4-simplex share the cell on vertices (1, 2, 3);
    a NaN copy of it on face 0 disagrees with face 4's."""
    s = random_simplex(np.random.default_rng(93), 4, max_blocks=1, max_size=1, max_mult=1)
    faces = {j: face(s, j) for j in range(5)}
    assemble_boundary(faces)
    faces[0] = with_cell(faces[0], (0, 1, 2), nan_copy(faces[0].cells[(0, 1, 2)]))
    with pytest.raises(IncompatibleFaces, match=r"disagree on cell \(1, 2, 3\)"):
        assemble_boundary(faces)


@pytest.mark.parametrize("seed", range(3))
def test_identity_iso_passes_the_checking_constructor(seed):
    rng = np.random.default_rng(80 + seed)
    s = random_simplex(rng, 3, twist=True, max_mult=2)
    for corr in [s.edge(i, j) for i, j in itertools.combinations_with_replacement(range(4), 2)]:
        blocks = identity_iso(corr).blocks
        checked = CorrIso(corr, corr, blocks, eps=0.0)
        assert all(np.array_equal(a, b) for a, b in zip(checked.blocks, blocks))
    # the derived unitors are certified too
    for i, j, k in itertools.combinations_with_replacement(range(4), 3):
        if i == j or j == k:
            u = s.cell(i, j, k)
            CorrIso(u.src, u.dst, u.blocks, eps=1e-12)


def conjugated_edge(off: float):
    """A correspondence C^2 -> C with left action S diag(a) S^-1 on C^2,
    S = [[1, off], [0, 1]]: multiplicative and unital, but star-preserving
    only to about ``off``."""
    a, b = make_algebra([1, 1]), make_algebra([1])
    module = make_module(b, [2])
    s = np.array([[1.0, off], [0.0, 1.0]], dtype=complex)
    units = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    lam = np.stack([(s @ e @ np.linalg.inv(s)).ravel() for e in units], axis=1).astype(complex)
    kc = module.compacts
    return Correspondence(a, module, StarHom(a, kc, lam, _traced_mult(a, kc, lam)))


def test_reading_a_simplex_does_not_depend_on_eps():
    e = conjugated_edge(1e-8)
    make_correspondence(e.src, e.module, e.lam.matrix, eps=1e-6)
    with pytest.raises(ValidationError):
        make_correspondence(e.src, e.module, e.lam.matrix)
    s = make_simplex([e.src, e.dst], {(0, 1): e}, {}, eps=1e-6)
    # the unit cells are read, hashed and reindexed without a check at the
    # default eps, which this edge would fail
    assert len(structural_hash(s)) == 40
    d = degeneracy(degeneracy(s, 0), 2)
    assert d.cell(0, 1, 2) is s.cell(0, 0, 1)
    assert same_bits(d.cell(1, 2, 3), s.cell(0, 1, 1))


@pytest.mark.parametrize("key", [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
def test_one_negated_block_is_a_pentagon_violation(key):
    """A strict cell that is a valid unitary intertwiner but the wrong one
    (one block negated) passes the checking constructor and fails the
    pentagon, whether it enters it directly or through tensor_iso."""
    s = validate_simplex(random_simplex(np.random.default_rng(5), 3, max_mult=2))
    c = s.cell(*key)
    for b in [b for b, u in enumerate(c.blocks) if u.size]:
        blocks = [-u if p == b else u for p, u in enumerate(c.blocks)]
        bad = with_cell(s, key, CorrIso(c.src, c.dst, blocks))
        with pytest.raises(PentagonViolated):
            validate_simplex(bad)


# -- every guard of the nerve, reached -------------------------------------------


@pytest.mark.parametrize("n,k", [(2, 1.5), (2.0, 1), (2, "1"), (2.5, 2)])
def test_a_horn_with_a_non_integer_n_or_k_is_refused(n, k):
    """A horn's n and k are read by nerve's one rule for indices: 1.5 was
    taken as an inner 2-horn expecting all three faces, and the fill
    recomposed E_02 instead of returning the given simplex."""
    s = random_simplex(np.random.default_rng(0), 2, max_blocks=2, max_size=2, max_mult=1)
    faces = {j: face(s, j) for j in range(3)}
    with pytest.raises(ShapeMismatch, match="out of range"):
        HornSpec(n, k, faces)
    fill = fill_inner_horn(HornSpec(np.int64(2), np.int64(1), {0: faces[0], 2: faces[2]}))
    assert [structural_hash(face(fill, j)) for j in (0, 2)] == [
        structural_hash(faces[j]) for j in (0, 2)
    ]


def test_a_simplex_refuses_an_identity_edge_or_unit_cell_off_its_vertices():
    s = random_simplex(np.random.default_rng(0), 2, max_blocks=2, max_size=2, max_mult=1)
    with pytest.raises(KeyError):
        s.edge(3, 3)
    with pytest.raises(KeyError):
        s.cell(0, 0, 3)
    assert repr(s) == f"NCorrSimplex(n=2, algebras={[a.blocks for a in s.algebras]})"


def test_simplex_close_compares_dimensions_and_vertices_first():
    rng = np.random.default_rng(1)
    s = random_simplex(rng, 2, max_blocks=2, max_size=2, max_mult=1)
    assert not simplex_close(s, face(s, 0))
    t = gamma_simplex([embedding_hom(make_algebra((1,)), make_algebra((1,)), [[1]])] * 2)
    assert s.algebras != t.algebras and not simplex_close(s, t)


def test_gamma_simplex_refuses_what_is_not_a_chain():
    c, m2 = make_algebra((1,)), make_algebra((2,))
    f = embedding_hom(c, m2, [[2]])
    with pytest.raises(ShapeMismatch, match="at least one hom"):
        gamma_simplex([])
    with pytest.raises(EndpointMismatch, match="not composable"):
        gamma_simplex([f, f])
    with pytest.raises(EndpointMismatch, match=r"composite \(0, 1\) has wrong endpoints"):
        gamma_simplex([f], composites={(0, 1): embedding_hom(c, c, [[1]])})


def test_a_special_fill_refuses_an_inner_horn():
    s = random_simplex(np.random.default_rng(2), 2, max_blocks=2, max_size=2, max_mult=1)
    with pytest.raises(Unfillable, match="not a special outer horn"):
        fill_special_outer_horn(HornSpec(2, 1, {0: face(s, 0), 2: face(s, 2)}))


def test_horn_faces_that_disagree_on_an_edge_are_refused():
    """Faces 2 and 3 of a 3-horn share the edge (0, 1); taking face 2 from a
    copy whose E_01 is conjugated by a unitary makes them disagree there."""
    rng = np.random.default_rng(0)
    s = random_simplex(rng, 3, max_blocks=2, max_size=2, max_mult=1)
    t = twist_edge(s, 0, 1, rng)
    assert not corr_close(s.edges[(0, 1)], t.edges[(0, 1)])
    horn = HornSpec(3, 1, {0: face(s, 0), 2: face(t, 2), 3: face(s, 3)})
    with pytest.raises(IncompatibleFaces, match=r"faces 2 and 3 disagree on edge \(0, 1\)"):
        fill_inner_horn(horn)

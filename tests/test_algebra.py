"""Block algebras, *-homomorphisms, corners and normal forms."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrlab.algebra import (
    EPS,
    FdCstarAlgebra,
    StarHom,
    _conjugation_matrix,
    _mult_residual,
    _traced_mult,
    _unit_image,
    compose_homs,
    hom_normal_form,
    identity_hom,
    is_full_hom,
    make_algebra,
    make_star_hom,
)
from corrlab.bicategory import gamma_of_hom
from corrlab.errors import (
    EndpointMismatch,
    InvalidAlgebra,
    NotMultiplicative,
    NotProjection,
    NotStarPreserving,
    ShapeMismatch,
    ValidationError,
)
from corrlab.generators import embedding_hom, random_algebra, random_unital_hom
from corrlab.linalg import frob
from corrlab.nerve import structural_hash
from corrlab.subdivision import subdivision_functor
from reference import (
    _gram,
    alg_from_vec,
    alg_zero,
    apply,
    basis_triples,
    block_unit,
    corner_algebra,
    identity,
    matrix_unit,
    random_element,
)
from test_subdivision import scaling_chain_simplex


def test_algebra_shape():
    a = make_algebra((2, 1), label="A")
    assert a.nblocks == 2
    assert a.dim == 5
    assert a.offset(0) == 0 and a.offset(1) == 4
    assert a.label == "A"
    assert a == make_algebra([2, 1])
    assert a != make_algebra((1, 2))


@pytest.mark.parametrize("blocks", [(), (0,), (-1, 2)])
def test_algebra_rejects_bad_blocks(blocks):
    with pytest.raises(InvalidAlgebra):
        make_algebra(blocks)


def test_matrix_unit_relations():
    a = make_algebra((2, 2))
    e = functools.partial(matrix_unit, a)
    # e_ab e_cd = delta_bc e_ad within a block, zero across blocks
    assert (e(0, 0, 1) @ e(0, 1, 0)).is_close(e(0, 0, 0))
    assert (e(0, 0, 1) @ e(0, 0, 1)).is_close(alg_zero(a))
    assert (e(0, 0, 1) @ e(1, 1, 0)).is_close(alg_zero(a))
    assert sum(e(i, t, t).to_vec().sum() for i in range(2) for t in range(2)) == 4.0


def test_basis_triples_cover():
    a = make_algebra((2, 3))
    triples = list(basis_triples(a))
    assert len(triples) == a.dim == 13
    assert [p for p, *_ in triples] == list(range(13))


def test_element_arithmetic_matches_numpy():
    rng = np.random.default_rng(3)
    a = make_algebra((2, 3))
    x, y = random_element(a, rng), random_element(a, rng)
    z = x @ y
    for i in range(a.nblocks):
        assert frob(z.mats[i] - x.mats[i] @ y.mats[i]) < 1e-12
    assert x.adjoint().adjoint().is_close(x)
    assert ((x + y) - y).is_close(x)
    assert (x * 2.0).is_close(x + x)
    assert alg_from_vec(a, x.to_vec()).is_close(x)


def test_adjoint_perm_is_involutive():
    a = make_algebra((2, 1, 3))
    p = a.adjoint_perm()
    assert np.array_equal(p[p], np.arange(a.dim))
    rng = np.random.default_rng(0)
    x = random_element(a, rng)
    assert frob(x.adjoint().to_vec() - x.to_vec().conj()[p]) < 1e-12


@pytest.mark.parametrize("blocks", [(1,), (3, 1), (7, 2, 5), (14, 4)])
def test_adjoint_perm_matches_the_basis_loop(blocks):
    a = make_algebra(blocks)
    p = np.empty(a.dim, dtype=np.intp)
    for flat, i, r, c in basis_triples(a):
        p[flat] = a.offset(i) + c * a.blocks[i] + r
    assert a.adjoint_perm().dtype == np.intp
    assert np.array_equal(a.adjoint_perm(), p)


def test_embedding_hom_validates():
    rng = np.random.default_rng(7)
    src, dst = make_algebra((2,)), make_algebra((2, 1))
    phi = embedding_hom(src, dst, np.array([[1, 0]]), rng)
    assert phi.mult_matrix.tolist() == [[1, 0]]
    assert not phi.unital
    x, y = random_element(src, rng), random_element(src, rng)
    assert apply(phi, x @ y).is_close(apply(phi, x) @ apply(phi, y))
    assert apply(phi, x.adjoint()).is_close(apply(phi, x).adjoint())


def test_star_hom_violations():
    rng = np.random.default_rng(7)
    src, dst = make_algebra((2,)), make_algebra((2, 1))
    phi = embedding_hom(src, dst, np.array([[1, 0]]), rng)
    with pytest.raises(NotStarPreserving):
        make_star_hom(src, dst, phi.matrix * 1j)
    with pytest.raises(NotMultiplicative):
        make_star_hom(src, dst, phi.matrix * 2.0)
    with pytest.raises(ShapeMismatch):
        make_star_hom(src, dst, phi.matrix[:-1])


def test_identity_and_composition():
    rng = np.random.default_rng(11)
    a = random_algebra(rng)
    i = identity_hom(a)
    assert i.unital
    assert np.array_equal(i.mult_matrix, np.eye(a.nblocks, dtype=np.int64))
    phi = random_unital_hom(a, rng)
    psi = random_unital_hom(phi.dst, rng)
    comp = compose_homs(psi, phi)
    x = random_element(a, rng)
    assert apply(comp, x).is_close(apply(psi, apply(phi, x)))
    # multiplicities compose covariantly in the (src rows, dst cols) layout
    assert np.array_equal(comp.mult_matrix, phi.mult_matrix @ psi.mult_matrix)
    with pytest.raises(EndpointMismatch):
        compose_homs(phi, psi)


def all_pairs_residual(src, dst, matrix):
    """The definition: max over basis pairs of ||phi(e_p) phi(e_q) - phi(e_p e_q)||_F."""
    units = [matrix_unit(src, i, a, c) for _, i, a, c in basis_triples(src)]
    images = [alg_from_vec(dst, matrix @ x.to_vec()) for x in units]
    worst = 0.0
    for x, fx in zip(units, images):
        for y, fy in zip(units, images):
            fxy = alg_from_vec(dst, matrix @ (x @ y).to_vec())
            worst = max(worst, (fx @ fy - fxy).norm())
    return worst


def star_reference_residual(src, dst, matrix):
    """The definition: max over basis elements of ||phi(e_p^*) - phi(e_p)^*||_F."""
    worst = 0.0
    for _, i, a, c in basis_triples(src):
        x = matrix_unit(src, i, a, c)
        fx = alg_from_vec(dst, matrix @ x.to_vec())
        fxs = alg_from_vec(dst, matrix @ x.adjoint().to_vec())
        worst = max(worst, (fxs - fx.adjoint()).norm())
    return worst


@st.composite
def homs(draw):
    """A valid hom, random or a padded multiplicity embedding.

    Source dimension stays <= 48: the all-pairs reference is quartic in it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = make_algebra(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    if draw(st.booleans()):
        return random_unital_hom(src, rng)
    nd = draw(st.integers(1, 2))
    row = st.lists(st.integers(0, 2), min_size=nd, max_size=nd)
    mult = np.array(draw(st.lists(row, min_size=src.nblocks, max_size=src.nblocks)))
    sizes = mult.T @ np.array(src.blocks) + np.array(draw(row))
    return embedding_hom(src, make_algebra(np.maximum(sizes, 1)), mult, rng)


CORRUPTIONS = ["none", "entry moved by 1e-6", "scaled by 1 + 1e-7", "columns swapped", "doubled"]


@settings(max_examples=40)
@given(phi=homs(), kind=st.sampled_from(CORRUPTIONS), data=st.data())
def test_mult_check_agrees_with_all_pairs_definition(phi, kind, data):
    src, dst = phi.src, phi.dst
    m = phi.matrix.copy()
    if kind == "entry moved by 1e-6":
        m[data.draw(st.integers(0, dst.dim - 1)), data.draw(st.integers(0, src.dim - 1))] += 1e-6
    elif kind == "scaled by 1 + 1e-7":
        m *= 1 + 1e-7
    elif kind == "columns swapped":
        p = data.draw(st.integers(0, src.dim - 1))
        q = (p + data.draw(st.integers(1, max(src.dim - 1, 1)))) % src.dim
        m[:, [p, q]] = m[:, [q, p]]
    elif kind == "doubled":
        m *= 2.0
    mult_ok = all_pairs_residual(src, dst, m) <= EPS
    assert (_mult_residual(src, dst, m)[0] <= EPS) == mult_ok
    star_ok = star_reference_residual(src, dst, m) <= EPS
    try:
        make_star_hom(src, dst, m)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == (mult_ok and star_ok)
    assert accepted or kind != "none"


def test_mult_residual_names_the_failing_units():
    phi = embedding_hom(make_algebra((1, 3)), make_algebra((4,)), np.array([[1], [1]]))
    m = phi.matrix.copy()
    m[0, 1 + 1 * 3 + 2] += 1e-6  # column of e_12 in source block 1
    resid, where = _mult_residual(phi.src, phi.dst, m)
    assert resid > EPS
    assert where == "phi(e_ab) = v_a w_b in source block 1, units (a, b) = (1, 2)"


def test_corrupted_hom_above_dim_120_is_rejected():
    rng = np.random.default_rng(5)
    phi = random_unital_hom(make_algebra((11, 3)), rng, max_blocks=1, max_mult=1)
    assert phi.src.dim == 130
    make_star_hom(phi.src, phi.dst, phi.matrix)
    with pytest.raises(NotMultiplicative, match="source block"):
        make_star_hom(phi.src, phi.dst, phi.matrix * (1 + 1e-7))


def test_is_full_hom():
    rng = np.random.default_rng(2)
    a = make_algebra((2,))
    assert is_full_hom(random_unital_hom(a, rng))
    partial = embedding_hom(a, make_algebra((2, 2)), np.array([[1, 0]]), rng)
    assert not is_full_hom(partial)
    # phi(1) = scale * e_00 in a block of size m, on both sides of m = 6
    src = make_algebra((1,))
    for m in (6, 7):
        dst = make_algebra((m,))
        for scale, full in ((1.0, True), (1e-8, True), (1e-10, False), (0.0, False)):
            p = alg_zero(dst)
            p.mats[0][0, 0] = scale
            mat = p.to_vec()[:, None]
            phi = StarHom(src, dst, mat, _traced_mult(src, dst, mat))
            assert is_full_hom(phi) == full, (m, scale)


def test_corner_of_identity_is_everything():
    b = make_algebra((2, 2))
    pres = corner_algebra(identity(b).to_vec(), b)
    assert pres.algebra.blocks == b.blocks
    assert pres.kept == (0, 1)
    rng = np.random.default_rng(4)
    x = random_element(pres.algebra, rng)
    y = random_element(pres.algebra, rng)
    inc = pres.inclusion
    assert apply(inc, x @ y).is_close(apply(inc, x) @ apply(inc, y))


def test_corner_drops_zero_blocks():
    b = make_algebra((3, 2))
    p = alg_zero(b)
    p.mats[0][0, 0] = 1.0
    p.mats[0][1, 1] = 1.0
    pres = corner_algebra(p.to_vec(), b)
    assert pres.kept == (0,)
    assert pres.algebra.blocks == (2,)
    # inclusion lands under p
    x = random_element(pres.algebra, np.random.default_rng(1))
    img = apply(pres.inclusion, x)
    assert frob((p @ img @ p - img).to_vec()) < 1e-12


def test_corner_rejects_non_projection():
    b = make_algebra((2,))
    x = random_element(b, np.random.default_rng(9))
    with pytest.raises(NotProjection):
        corner_algebra((x + x.adjoint()).to_vec(), b)


def test_corner_rejects_a_nan_or_misshapen_projection():
    """A NaN entry fails the projection check (not an IndexError from the
    range basis), and a vector of the wrong length is refused."""
    b = make_algebra((2, 1))
    p = identity(b).to_vec()
    p[0] = np.nan
    with pytest.raises(NotProjection) as err, np.errstate(invalid="ignore"):
        corner_algebra(p, b)
    assert np.isnan(err.value.residual)
    for bad in (identity(b).to_vec()[:-1], identity(b).to_vec()[:, None]):
        with pytest.raises(ShapeMismatch):
            corner_algebra(bad, b)


@pytest.mark.parametrize("seed", range(6))
def test_hom_normal_form(seed):
    rng = np.random.default_rng(seed)
    src = random_algebra(rng, max_blocks=2, max_size=2)
    phi = random_unital_hom(src, rng)
    ws = hom_normal_form(phi)
    x = random_element(src, rng, hermitian=True)
    img = apply(phi, x)
    for j, m in enumerate(phi.dst.blocks):
        w = ws[j]
        assert frob(w.conj().T @ w - np.eye(m)) < 1e-9
        got = w.conj().T @ img.mats[j] @ w
        # expected: for each src block i, mult copies of x_i as x_i (x) I_r
        blocks = []
        for i, n in enumerate(src.blocks):
            r = int(phi.mult_matrix[i, j])
            if r:
                blocks.append(np.kron(x.mats[i], np.eye(r)))
        filled = sum(b.shape[0] for b in blocks)
        want = np.zeros((m, m), dtype=complex)
        o = 0
        for b in blocks:
            want[o : o + b.shape[0], o : o + b.shape[0]] = b
            o += b.shape[0]
        assert filled <= m
        assert frob(got - want) < 1e-9


def normal_form_ws(phi):
    """Bratteli data of phi: each W_j of hom_normal_form split into the
    (m_j, n_i, r_ij) pieces of its source blocks, zero multiplicities
    included."""
    ws = []
    for j, w in enumerate(hom_normal_form(phi)):
        m, o, pieces = phi.dst.blocks[j], 0, {}
        for i, n in enumerate(phi.src.blocks):
            r = int(phi.mult_matrix[i, j])
            pieces[i] = w[:, o : o + n * r].reshape(m, n, r)
            o += n * r
        ws.append(pieces)
    return ws


@settings(max_examples=40)
@given(phi=homs())
def test_conjugation_matrix_inverts_the_normal_form(phi):
    """Bratteli round trip: rebuild phi's matrix from its normal form."""
    rebuilt = _conjugation_matrix(phi.src, phi.dst, normal_form_ws(phi))
    assert np.abs(rebuilt - phi.matrix).max() <= 1e-12


def two_copy_conjugation_matrix(src, dst, ws):
    """The dense build as it was before each block was written in place:
    the regrouped Gram copied to a contiguous array, then into the matrix."""
    matrix = np.zeros((dst.dim, src.dim), dtype=complex)
    for l, m in enumerate(dst.blocks):
        o = dst.offset(l)
        for i, w in ws[l].items():
            n, c = src.blocks[i], src.offset(i)
            g = _gram(w).reshape(m, n, m, n).transpose(0, 2, 1, 3)
            matrix[o : o + m * m, c : c + n * n] = g.reshape(m * m, n * n)
    return matrix


@settings(max_examples=40)
@given(phi=homs())
def test_conjugation_matrix_is_the_two_copy_build(phi):
    ws = normal_form_ws(phi)
    got = _conjugation_matrix(phi.src, phi.dst, ws)
    assert got.tobytes() == two_copy_conjugation_matrix(phi.src, phi.dst, ws).tobytes()


def nonzero_row_build(src, dst, ws):
    """Reference for the dense build: a block whose W has no zero row is
    the two-copy build's; otherwise the Gram of W's nonzero rows, entry
    (x, y) with x = (a_x, p_x), y = (a_y, p_y) written to row a_x m + a_y,
    column p_x n + p_y of the block.  Also returns the support (the entries
    written) and, per block, whether its W has a zero row."""
    matrix = np.zeros((dst.dim, src.dim), dtype=complex)
    support = np.zeros(matrix.shape, dtype=bool)
    sparse = {}
    for l, m in enumerate(dst.blocks):
        o = dst.offset(l)
        for i, w in ws[l].items():
            n, c = src.blocks[i], src.offset(i)
            w2 = w.reshape(m * n, w.shape[2])
            rows = np.flatnonzero([row.any() for row in w2])
            sparse[l, i] = len(rows) < m * n
            if not sparse[l, i]:
                only = [{i: w} if k == l else {} for k in range(len(ws))]
                one = two_copy_conjugation_matrix(src, dst, only)
                matrix[o : o + m * m, c : c + n * n] = one[o : o + m * m, c : c + n * n]
                support[o : o + m * m, c : c + n * n] = True
                continue
            a, p = np.divmod(rows, n)
            x = w2[rows]
            at = (o + np.add.outer(a * m, a), c + np.add.outer(p * n, p))
            matrix[at] = x @ x.conj().T
            support[at] = True
    return matrix, support, sparse


def is_plus_zero(z):
    """Entrywise: both parts of a complex array are +0.0, sign bit clear."""
    return (z.view(np.int64).reshape(*z.shape, 2) == 0).all(axis=-1)


def check_nonzero_row_build(src, dst, ws, *, tol):
    got = _conjugation_matrix(src, dst, ws)
    ref, support, sparse = nonzero_row_build(src, dst, ws)
    assert got.tobytes() == ref.tobytes()
    assert is_plus_zero(got[~support]).all()
    dense = two_copy_conjugation_matrix(src, dst, ws)
    assert np.abs(got - dense).max() <= tol
    for l, m in enumerate(dst.blocks):
        o = dst.offset(l)
        for i in ws[l]:
            if not sparse[l, i]:
                n, c = src.blocks[i], src.offset(i)
                rows, cols = slice(o, o + m * m), slice(c, c + n * n)
                assert got[rows, cols].tobytes() == dense[rows, cols].tobytes()
    return sparse


@pytest.mark.parametrize("n", [2, 3])
def test_subdivision_homs_are_the_nonzero_row_build_on_the_scaling_chain(n):
    """Each connecting hom's matrix is the Gram of its W's nonzero rows, to
    the bit; a block whose W has no zero row is the two-copy build's, to
    the bit, and every other block is within 1e-15 of it; what lies outside
    the nonzero rows' support is +0.0."""
    sd = subdivision_functor(scaling_chain_simplex(n), check=False)
    sparse = [check_nonzero_row_build(f.src, f.dst, f._ws, tol=1e-15) for f in sd.homs.values()]
    assert any(any(s.values()) for s in sparse)
    assert any(not all(s.values()) for s in sparse if s)


@settings(max_examples=60)
@given(data=st.data())
def test_conjugation_matrix_writes_the_gram_of_the_nonzero_rows(data):
    """W of shape (m, n, r), r in {1, 2, 3}, with some rows zero, placed as
    block (1, 1) of [2, m] <- [1, n] so that both offsets are nonzero."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    r = data.draw(st.sampled_from([1, 2, 3]))
    w = rng.standard_normal((m, n, r)) + 1j * rng.standard_normal((m, n, r))
    zero = data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    assume(any(zero))
    w[np.array(zero).reshape(m, n)] = 0.0
    if data.draw(st.booleans()):
        w.real[..., 0] = -0.0  # signed zeros, in zero and kept rows
    src, dst = FdCstarAlgebra([1, n]), FdCstarAlgebra([2, m])
    sparse = check_nonzero_row_build(src, dst, [{}, {1: w}], tol=1e-13 * (1 + np.abs(w).max() ** 2))
    assert sparse == {(1, 1): True}


def test_nan_in_bratteli_data_stays_in_its_rows():
    """A NaN in W makes the matrix non-finite; with zero rows it reaches only
    the entries of its own row's Gram row and column, not the structural
    zeros (the full product spread it there through 0 * NaN).  With zero
    entries but no zero row, every row is in the Gram, and the NaN spreads
    exactly as the full product spread it, to the bit."""
    w = np.zeros((3, 2, 2), dtype=complex)
    w[0, 0] = [1.0, 0.0]
    w[1, 1] = [0.0, np.nan]
    src, dst = FdCstarAlgebra([2]), FdCstarAlgebra([3])
    got = _conjugation_matrix(src, dst, [{0: w}])
    ref, support, _ = nonzero_row_build(src, dst, [{0: w}])
    assert not np.isfinite(got).all()
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert is_plus_zero(got[~support]).all()
    assert np.isnan(two_copy_conjugation_matrix(src, dst, [{0: w}])[~support]).any()
    dense = np.full((3, 2, 2), 0.5, dtype=complex)
    dense[0, 0, 1] = 0.0
    dense[2, 1, 0] = np.nan
    got = _conjugation_matrix(src, dst, [{0: dense}])
    full = two_copy_conjugation_matrix(src, dst, [{0: dense}])
    assert np.isnan(got).any() and not np.isnan(got).all()
    assert np.array_equal(np.isnan(got), np.isnan(full)) and got.tobytes() == full.tobytes()


def test_scaling_chain_dense_build_needs_little_beyond_its_output():
    """Building each n = 3 connecting hom's matrix allocates under 2 MiB
    beyond the matrix itself: no Gram of a whole W with zero rows is formed
    (the largest such Gram took 21 MiB)."""
    sd = subdivision_functor(scaling_chain_simplex(3), check=False)
    worst = 0
    for f in sd.homs.values():
        tracemalloc.start()
        try:
            _conjugation_matrix(f.src, f.dst, f._ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        worst = max(worst, peak - f.matrix.nbytes)
    assert worst < 2 * 2**20


@pytest.mark.parametrize("blocks", [[1], [3, 1], [7, 2, 5]])
def test_identity_matrix_is_the_conjugation_matrix_of_its_data(blocks):
    """The identity's view, built from its data by the one writer, is
    np.eye to the bit."""
    a = FdCstarAlgebra(blocks)
    idty = identity_hom(a)
    assert idty.matrix.tobytes() == np.eye(a.dim, dtype=complex).tobytes()
    assert _conjugation_matrix(a, a, idty._ws).tobytes() == idty.matrix.tobytes()


@settings(max_examples=40)
@given(data=st.data())
def test_zero_entries_without_a_zero_row_keep_the_full_product(data):
    """A W with zero entries but no zero row writes the Gram of all its rows:
    byte-equal to the two-copy build of the full product."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    r = data.draw(st.sampled_from([2, 3]))
    w = rng.standard_normal((m, n, r)) + 1j * rng.standard_normal((m, n, r))
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    keep = data.draw(st.integers(0, r - 1))  # one entry per row stays nonzero
    w[zero.reshape(m, n), (keep + 1) % r] = 0.0
    assume(np.count_nonzero(w) < w.size and w.any(axis=2).all())
    src, dst = FdCstarAlgebra([1, n]), FdCstarAlgebra([2, m])
    ws = [{}, {1: w}]
    got = _conjugation_matrix(src, dst, ws)
    assert got.tobytes() == two_copy_conjugation_matrix(src, dst, ws).tobytes()


@settings(max_examples=40)
@given(phi=homs())
def test_star_hom_bits_do_not_depend_on_memory_layout(phi):
    assume(phi.mult_matrix.any())  # the zero hom has no correspondence
    mat = np.asfortranarray(phi.matrix)
    fortran = StarHom(phi.src, phi.dst, mat, _traced_mult(phi.src, phi.dst, mat))
    assert fortran.matrix.flags.c_contiguous
    assert structural_hash(gamma_of_hom(fortran)) == structural_hash(gamma_of_hom(phi))


def test_hom_normal_form_pads_nonunital():
    rng = np.random.default_rng(13)
    src, dst = make_algebra((2,)), make_algebra((3,))
    phi = embedding_hom(src, dst, np.array([[1]]), rng)
    assert not phi.unital
    (w,) = hom_normal_form(phi)
    assert frob(w.conj().T @ w - np.eye(3)) < 1e-9
    x = random_element(src, rng)
    got = w.conj().T @ apply(phi, x).mats[0] @ w
    assert frob(got[:2, :2] - x.mats[0]) < 1e-9
    assert frob(got[2:, :]) < 1e-9 and frob(got[:, 2:]) < 1e-9


def rank_multiplicities(phi):
    """Reference: r_ij = rank(phi(1_i) in dst block j) / n_i, by SVD."""
    src, dst = phi.src, phi.dst
    r = np.zeros((src.nblocks, dst.nblocks), dtype=np.int64)
    for i, n in enumerate(src.blocks):
        img = apply(phi, block_unit(src, i))
        for j in range(dst.nblocks):
            r[i, j] = np.linalg.matrix_rank(img.mats[j], tol=1e-7) // n
    return r


@given(phi=homs())
def test_unit_image_is_the_reference_value_at_one(phi):
    """The library's one read of phi(1) is the reference apply(phi, 1), to the bit."""
    want = apply(phi, identity(phi.src)).to_vec()
    assert _unit_image(phi).tobytes() == want.tobytes()


@settings(max_examples=60)
@given(phi=homs())
def test_trace_multiplicities_agree_with_ranks(phi):
    assert np.array_equal(phi.mult_matrix, rank_multiplicities(phi))
    one = apply(phi, identity(phi.src))
    assert phi.unital == one.is_close(identity(phi.dst), EPS)


def test_make_star_hom_rejects_non_finite_entries():
    phi = random_unital_hom(make_algebra((2, 1)), np.random.default_rng(8))
    for bad in (np.nan, np.inf):
        m = phi.matrix.copy()
        m[0, 0] = bad
        with pytest.raises(NotStarPreserving), np.errstate(invalid="ignore"):
            make_star_hom(phi.src, phi.dst, m)

"""Gamma's range isometries from the hom's multiplicities.

phi(1)_j is a projection of rank sum_i r_ij n_i, so Gamma takes V_j = I
where that rank fills block j, drops the block where it is 0, and runs
Gram-Schmidt (``orthonormal_range``) only on a proper partial range.  These
tests count the Gram-Schmidt runs, compare Gamma with the element-model
route (V from the range of apply(phi, 1)) on unital, partial and missed
blocks, check that a hom read back from JSON has the same Gamma to the bit,
and that a NaN in a filled block still fails the judges that read Gamma.
The rank kernels themselves are checked against the threshold kernels of
``tests/reference.py``: at the rank those find, they give the same bits.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from corrlab import bicategory
from corrlab.acceptance import _iso_residuals, _sweep
from corrlab.algebra import FdCstarAlgebra, StarHom, _unit_image, compose_homs, make_star_hom
from corrlab.bicategory import gamma_isometries, gamma_multiplicativity, gamma_of_hom
from corrlab.errors import ValidationError
from corrlab.generators import embedding_hom, random_chain
from corrlab.linalg import gram_onb, orthonormal_range, worst_of
from corrlab.modules import corr_close
from corrlab.nerve import gamma_simplex
from corrlab.serialize import _LOAD, _Sink, hom_from_json, hom_to_json
import reference
from reference import gamma_action
from test_hom_builders import embeddings


def count_calls(monkeypatch, name):
    """The list every later call of bicategory.<name> appends its first
    argument to."""
    calls, real = [], getattr(bicategory, name)

    def counted(x, *args, **kw):
        calls.append(x)
        return real(x, *args, **kw)

    monkeypatch.setattr(bicategory, name, counted)
    return calls


def scaling_chain(n=2, seed=0):
    """[n,1] -> [2n+1,n] -> [4n+2,n+1]: the first hom is unital, the second
    fills block 0 and n of the n+1 rows of block 1."""
    rng = np.random.default_rng(seed)
    a, b, c = (FdCstarAlgebra(x) for x in ([n, 1], [2 * n + 1, n], [4 * n + 2, n + 1]))
    return embedding_hom(a, b, [[2, 1], [1, 0]], rng), embedding_hom(b, c, [[2, 0], [0, 1]], rng)


def test_a_unital_chain_runs_no_gram_schmidt(monkeypatch):
    ranges = count_calls(monkeypatch, "orthonormal_range")
    units = count_calls(monkeypatch, "_unit_image")
    chain = random_chain(np.random.default_rng(3), 3, max_blocks=3, max_size=3)
    s = gamma_simplex(chain)
    assert s.n == 3 and ranges == [] and units == []


def test_the_scaling_chain_runs_gram_schmidt_once_per_unfilled_block(monkeypatch):
    """Block 1 of f12 and of f02 = f12 . f01 is partial (rank 2 of 3); every
    other block is filled."""
    ranges = count_calls(monkeypatch, "orthonormal_range")
    f01, f12 = scaling_chain()
    f02 = compose_homs(f12, f01)
    for phi, want in ((f01, 0), (f12, 1), (f02, 1)):
        ranges.clear()
        gamma_isometries(phi)
        assert len(ranges) == want
        assert all(x.shape == (3, 3) for x in ranges)
    ranges.clear()
    gamma_simplex(list(scaling_chain(seed=1)))
    assert [x.shape for x in ranges] == [(3, 3), (3, 3)]


def test_filled_and_missed_blocks_take_exact_isometries():
    f01, f12 = scaling_chain()
    v12 = gamma_isometries(f12)
    assert v12[0].tobytes() == np.eye(10, dtype=complex).tobytes()
    assert v12[1].shape == (3, 2)
    a, b = FdCstarAlgebra([1]), FdCstarAlgebra([2, 3])
    missed = embedding_hom(a, b, [[2, 0]], np.random.default_rng(0))
    v = gamma_isometries(missed)
    assert v[0].tobytes() == np.eye(2, dtype=complex).tobytes() and v[1].shape == (3, 0)
    assert gamma_of_hom(missed).module.kept == (0,)


@settings(max_examples=60, deadline=None)
@given(embeddings())
@example((FdCstarAlgebra((2, 1)), FdCstarAlgebra((5, 2)), np.array([[2, 1], [1, 0]]), 0))
@example((FdCstarAlgebra((2, 1)), FdCstarAlgebra((3, 2)), np.array([[1, 0], [1, 1]]), 1))
@example((FdCstarAlgebra((2,)), FdCstarAlgebra((4, 1)), np.array([[2, 0]]), 2))
def test_gamma_is_the_element_route(case):
    """Unital homs, partially filled blocks and missed blocks: Gamma's
    action is within 1e-12 of the route through the range of apply(phi, 1)."""
    src, dst, mult, seed = case
    assume(mult.any())
    phi = embedding_hom(src, dst, mult, np.random.default_rng(seed))
    corr = gamma_of_hom(phi)
    ref = gamma_action(phi)
    assert corr.lam.matrix.shape == ref.shape
    assert np.abs(corr.lam.matrix - ref).max(initial=0.0) <= 1e-12
    assert [v.shape[1] for v in gamma_isometries(phi)] == list(corr.module.mult)


def from_json(phi, sink):
    return hom_from_json(json.loads(json.dumps(hom_to_json(phi))), _sink=sink)


@settings(max_examples=40, deadline=None)
@given(embeddings())
@example((FdCstarAlgebra((2, 1)), FdCstarAlgebra((5, 3)), np.array([[2, 1], [1, 0]]), 0))
def test_gamma_of_a_hom_read_back_from_json_is_bit_equal(case):
    """The trust boundary traces the multiplicities the builder passed, so
    both homs take the same branch per block and the same bits: read by a
    load, and by corrlab validate's sink, which reports every check ok."""
    src, dst, mult, seed = case
    assume(mult.any())
    phi = embedding_hom(src, dst, mult, np.random.default_rng(seed))
    want = gamma_of_hom(phi)
    report = _Sink([])
    for sink in (_LOAD, report):
        psi = from_json(phi, sink)
        got = gamma_of_hom(psi)
        assert got.module.mult == want.module.mult
        assert got.lam.matrix.tobytes() == want.lam.matrix.tobytes()
        for v, w in zip(gamma_isometries(psi), gamma_isometries(phi)):
            assert v.shape == w.shape and v.tobytes() == w.tobytes()
    assert [err for _, err in report.lines] == [None, None]


def with_nan(phi, col):
    """phi's matrix with a NaN at row 0 (block 0) of column ``col``, built
    unchecked with phi's multiplicities."""
    m = phi.matrix.copy()
    m[0, col] = np.nan
    return StarHom(phi.src, phi.dst, m, phi.mult_matrix)


def unital_chain(seed=0):
    """[2,1] -> [5,2] -> [10,2] -> [10,2], every block filled, so a NaN in
    any hom or composite reaches no Gram-Schmidt."""
    rng = np.random.default_rng(seed)
    a, b, c = (FdCstarAlgebra(x) for x in ([2, 1], [5, 2], [10, 2]))
    return [
        embedding_hom(a, b, [[2, 1], [1, 0]], rng),
        embedding_hom(b, c, [[2, 0], [0, 1]], rng),
        embedding_hom(c, c, [[1, 0], [0, 1]], rng),
    ]


def fails(judge) -> bool:
    """A judge fails when it raises a ValidationError (a sweep's failed
    case) or reports a residual that is not <= 1e-9, NaN included."""
    try:
        resid = judge()
    except ValidationError:
        return True
    return not resid <= 1e-9


@pytest.mark.parametrize("col", [0, 1], ids=["unit-column", "off-diagonal-column"])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_nan_in_a_filled_block_fails_every_judge(col, at):
    """The NaN sits in phi(e_00), which phi(1) reads, or in phi(e_01), which
    it does not; Gamma copies it into the action of a filled block.  The
    judges that read an action fail: the trust boundary, corr_close, and the
    intertwining residual of every cell whose ends hold the bad hom (the
    gamma-mult judge, and ``corrlab validate``'s on a simplex).  The
    pentagon reads cells only, and validate_simplex takes its edges as
    *-hom actions."""
    chain = unital_chain()
    clean = chain[at]
    chain[at] = bad = with_nan(clean, col)
    with np.errstate(invalid="ignore"):  # the NaN reaches the tensor frames
        assert np.isnan(gamma_of_hom(bad).lam.matrix).any()
        assert not corr_close(gamma_of_hom(bad), gamma_of_hom(clean))
        assert fails(lambda: make_star_hom(bad.src, bad.dst, bad.matrix) and 0.0)
        for phi, psi in [(chain[i], chain[i + 1]) for i in (at - 1, at) if 0 <= i < 2]:
            assert fails(lambda: worst_of(_iso_residuals(gamma_multiplicativity(psi, phi))))
        assert cells_fail(chain, at)


def cells_fail(chain, at) -> bool:
    """Building the simplex raises (a product's frame refuses the action),
    or every cell (i, j, k) with i <= at < k has a failing residual."""
    try:
        cells = gamma_simplex(chain, validate=False).cells
    except ValidationError:
        return True
    hit = [u for (i, _, k), u in cells.items() if i <= at < k]
    assert len(hit) == {0: 3, 1: 4, 2: 3}[at]
    return all(fails(lambda: worst_of(_iso_residuals(u))) for u in hit)


def test_orthonormal_range_refuses_a_nan_column():
    a = np.eye(3)
    a[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        orthonormal_range(a, 3)


def nan_composite():
    """f12 . f01 on the scaling chain with a NaN in block 0 of f01: the
    product spreads it into block 1 of the composite (0 * NaN is NaN),
    a proper partial range (rank 2 of 3), so Gamma reaches Gram-Schmidt."""
    f01, f12 = scaling_chain()
    comp = compose_homs(f12, with_nan(f01, 0))
    assert np.isnan(comp.dst.block_rows(comp.matrix, 1)).any()
    return comp


def test_a_nan_reaching_a_partial_range_raises_value_error():
    with pytest.raises(ValueError, match="non-finite"):
        gamma_of_hom(nan_composite())


def test_a_sweep_fails_a_case_whose_partial_range_holds_a_nan():
    comp = nan_composite()
    report = _sweep("nan-range", 0, ["nan"], lambda rng, t: (gamma_of_hom(comp), True))
    [case] = report.cases
    assert not case.ok and case.residual == math.inf
    assert not report.ok


# ---------------------------------------------------------------------------
# the rank kernels against the threshold kernels they replaced


def kernel_inputs(src, dst, mult, seed):
    """Projections of a generated hom: phi(1)_j, its complement (the input
    of a normal-form padding) and phi(e^(i)_00)_j (a tensor frame's P)."""
    phi = embedding_hom(src, dst, mult, np.random.default_rng(seed))
    one = _unit_image(phi)[:, None]
    out = []
    for j, m in enumerate(dst.blocks):
        p = dst.block_rows(one, j)[:, :, 0]
        out += [p, np.eye(m) - p]
        out += [dst.block_rows(phi.matrix, j)[:, :, o] + 0.0 for o in src._offsets]
    return out


def assert_kernels_are_the_reference(x):
    pairs = ((orthonormal_range, reference.orthonormal_range), (gram_onb, reference.gram_onb))
    for kernel, ref in pairs:
        want = ref(x)
        got = kernel(x, want.shape[1])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=40)
@given(embeddings())
def test_rank_kernels_are_the_threshold_kernels_at_their_rank(case):
    for x in kernel_inputs(*case):
        assert_kernels_are_the_reference(x)


def test_rank_kernels_on_exact_patterns_and_a_nan_column():
    """Exact 0/1 diagonals give exact unit vectors in both; a NaN column
    flows through gram_onb at the rank the reference takes (all of them,
    as its threshold is NaN; each divides by a NaN norm, which numpy
    flags as invalid), and orthonormal_range refuses it."""
    for m in range(1, 5):
        for bits in itertools.product((0.0, 1.0), repeat=m):
            assert_kernels_are_the_reference(np.diag(bits).astype(complex))
    a = np.eye(3, dtype=complex)
    a[1, 1] = np.nan
    with np.errstate(invalid="ignore"):
        want, got = reference.gram_onb(a), gram_onb(a, 3)
    assert want.shape == (3, 3) and np.isnan(want).any()
    assert got.tobytes() == want.tobytes()
    for rank in (1, 3):
        with pytest.raises(ValueError, match="non-finite"):
            orthonormal_range(a, rank)

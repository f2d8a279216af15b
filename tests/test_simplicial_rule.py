"""One rule for the simplicial operators of every nerve in the package.

Each face and degeneracy operator (the correspondence nerve, the K-theory
nerve, subdivision chains) refuses an index that is not an integer with
IndexOutOfRange, and each vertex-map operator (both nerves' apply_map, the
relative extension's alpha and time word) refuses an entry that is not an
integer with NotMonotone, as the shared checks in ``nerve`` do.  Each takes
numpy integers as the ints they are and satisfies the simplicial identities
on what it takes.  Horns below dimension 2 are no special outer horns in
either target.
"""

import itertools

import numpy as np
import pytest

from corrlab import nerve
from corrlab import subdivision as sdv
from corrlab.errors import IndexOutOfRange, NotMonotone, Unfillable
from corrlab.extension import (
    CstHomotopy,
    K0Oracle,
    K0Simplex,
    NCorrOracle,
    extend_relative,
    k0_functor,
)
from corrlab.generators import random_simplex
from corrlab.nerve import HornSpec, structural_hash

M01 = np.array([[1, 1], [0, 1]], dtype=np.int64)
M12 = np.array([[2, 0], [1, 1]], dtype=np.int64)
NOT_INTEGERS = [1.7, 1.5, "1"]


def ncorr():
    s = random_simplex(np.random.default_rng(0), 3, max_blocks=2, max_size=2, max_mult=1)
    return s, nerve.face, nerve.degeneracy, structural_hash


def k0():
    s = K0Simplex((2, 2, 2, 2), [M01, M12, M01.T.copy()])
    return s, K0Simplex.face, K0Simplex.degeneracy, lambda t: (t.ranks, t.key)


def chain():
    c = sdv.AugChain((0, 1), ((0, 1, 2), (0, 1, 2, 3)))
    return c, sdv.face, sdv.degeneracy, lambda t: t


TARGETS = {"ncorr": ncorr, "k0": k0, "chain": chain}


def dim(s):
    return s.dim if isinstance(s, sdv.AugChain) else s.n


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("op", ["face", "degeneracy"])
@pytest.mark.parametrize("target", TARGETS)
def test_an_index_that_is_not_an_integer_is_out_of_range(target, op, bad):
    s, face, degeneracy, _ = TARGETS[target]()
    with pytest.raises(IndexOutOfRange, match="index .* out of range"):
        (face if op == "face" else degeneracy)(s, bad)


@pytest.mark.parametrize("target", TARGETS)
def test_numpy_indices_satisfy_the_simplicial_identities(target):
    """d_i d_j = d_{j-1} d_i for i < j and d_i s_i = d_{i+1} s_i = id, each
    index a numpy integer, and the same values as with Python ints."""
    s, face, degeneracy, key = TARGETS[target]()
    n, np_int = dim(s), np.int64
    for j in range(n + 1):
        assert key(face(s, np_int(j))) == key(face(s, j))
        for i in range(j):
            left = face(face(s, np_int(j)), np_int(i))
            assert key(left) == key(face(face(s, np_int(i)), np_int(j - 1)))
    for i in range(n + 1):
        d = degeneracy(s, np_int(i))
        assert key(d) == key(degeneracy(s, i))
        assert key(face(d, np_int(i))) == key(s) == key(face(d, np_int(i + 1)))


APPLY_MAPS = {"ncorr": (ncorr, nerve.apply_map), "k0": (k0, K0Simplex.apply_map)}


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("target", APPLY_MAPS)
def test_a_vertex_map_entry_that_is_not_an_integer_is_not_monotone(target, bad):
    make, apply_map = APPLY_MAPS[target]
    s = make()[0]
    with pytest.raises(NotMonotone):
        apply_map(s, [0, bad])


@pytest.mark.parametrize("target", APPLY_MAPS)
def test_numpy_vertex_maps_reindex_as_faces_and_compose(target):
    """apply_map along a numpy coface is the face, and reindexing along phi
    then psi is reindexing along phi . psi."""
    make, apply_map = APPLY_MAPS[target]
    s, face, _, key = make()
    for i in range(s.n + 1):
        coface = np.array([x for x in range(s.n + 1) if x != i])
        assert key(apply_map(s, coface)) == key(face(s, i))
    maps = [np.array(m) for r in (1, 2, 3) for m in itertools.combinations_with_replacement(range(4), r)]
    for phi in maps:
        for psi in (np.array(m) for m in itertools.combinations_with_replacement(range(len(phi)), 2)):
            assert key(apply_map(apply_map(s, phi), psi)) == key(apply_map(s, phi[psi]))


@pytest.fixture(scope="module")
def prism():
    sig = random_simplex(np.random.default_rng(77), 2, max_blocks=2, max_size=2, max_mult=1)
    F = k0_functor()

    def eta(a):
        return K0Simplex((a.nblocks, a.nblocks), [np.eye(a.nblocks, dtype=np.int64)])

    return sig, extend_relative(CstHomotopy(F, F, eta), [sig], K0Oracle())


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("where", ["w", "alpha"])
def test_a_prism_address_entry_that_is_not_an_integer_is_not_monotone(prism, where, bad):
    """alpha is a vertex map into the base and w one into [1]; (0, 1.5, 1)
    and (0, 1.5, 2) were read as (0, 1, 1) and (0, 1, 2)."""
    sig, rel = prism
    with pytest.raises(NotMonotone):
        if where == "w":
            rel.value(sig, (0, bad, 1))
        else:
            rel.value(sig, (0, 0, 1), (0, bad, 2))


@pytest.mark.parametrize("w", [(0, 2, 2), (1, 0, 0), (-1, 0, 1)])
def test_a_time_word_is_a_vertex_map_into_the_interval(prism, w):
    sig, rel = prism
    with pytest.raises(NotMonotone):
        rel.value(sig, w)


def test_prism_values_take_numpy_addresses_and_commute_with_faces(prism):
    """value(alpha, w) at numpy entries is the value at ints, and its face i
    is the value at (d_i alpha, d_i w)."""
    sig, rel = prism
    D = rel.oracle
    for m in (2, 3):
        for alpha in itertools.combinations_with_replacement(range(sig.n + 1), m):
            for ones in range(m + 1):
                w = (0,) * (m - ones) + (1,) * ones
                v = rel.value(sig, np.array(w), np.array(alpha))
                assert v == rel.value(sig, w, alpha)
                for i in range(m):
                    sub = rel.value(sig, w[:i] + w[i + 1 :], alpha[:i] + alpha[i + 1 :])
                    assert D.face(v, np.int64(i)) == sub


def a_vertex(oracle):
    if oracle is K0Oracle:
        return K0Simplex((2,), ())
    s = random_simplex(np.random.default_rng(7), 1, max_blocks=1, max_size=2, max_mult=1)
    return nerve.face(s, 1)


@pytest.mark.parametrize("oracle", [K0Oracle, NCorrOracle], ids=["k0", "ncorr"])
def test_no_special_outer_horn_below_dimension_2(oracle):
    """L^1_1 and L^0_0 have no last edge to invert: Unfillable in both
    targets (K0Oracle raised TypeError building a simplex with no rank)."""
    for horn in (HornSpec(1, 1, {0: a_vertex(oracle)}), HornSpec(0, 0, {})):
        with pytest.raises(Unfillable, match="below dimension 2"):
            oracle().fill_special_outer_horn(horn)

"""K0 simplices stored as their spines, against an all-edges reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import nerve
from corrlab.errors import IndexOutOfRange, ShapeMismatch
from corrlab.extension import K0Oracle, K0Simplex, NCorrOracle
from corrlab.generators import random_simplex


class RefK0:
    """A K0 simplex as every edge (i, j), i < j, each an explicit product of
    the steps between i and j: the representation the spine replaces."""

    def __init__(self, ranks, edges):
        self.n = len(ranks) - 1
        self.ranks = tuple(ranks)
        self.edges = edges

    @classmethod
    def from_spine(cls, ranks, steps):
        edges = {}
        for i in range(len(ranks)):
            acc = np.eye(ranks[i], dtype=np.int64)
            for j in range(i + 1, len(ranks)):
                acc = steps[j - 1] @ acc
                edges[(i, j)] = acc
        return cls(ranks, edges)

    def edge(self, i, j):
        return np.eye(self.ranks[i], dtype=np.int64) if i == j else self.edges[(i, j)]

    def apply_map(self, phi):
        m = len(phi) - 1
        edges = {
            (a, b): self.edge(phi[a], phi[b]) for a in range(m + 1) for b in range(a + 1, m + 1)
        }
        return RefK0([self.ranks[p] for p in phi], edges)

    def face(self, i):
        return self.apply_map([x for x in range(self.n + 1) if x != i])

    def degeneracy(self, i):
        return self.apply_map(sorted(list(range(self.n + 1)) + [i]))

    def __eq__(self, other):
        return self.ranks == other.ranks and all(
            np.array_equal(m, other.edges[e]) for e, m in self.edges.items()
        )


def same(s: K0Simplex, ref: RefK0) -> bool:
    """s and ref have the same ranks and the same matrix on every edge."""
    return s.ranks == ref.ranks and all(
        np.array_equal(s.edge(i, j), ref.edge(i, j))
        for i in range(s.n + 1)
        for j in range(i, s.n + 1)
    )


@st.composite
def spines(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    ranks = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
    steps = []
    for i in range(n):
        size = ranks[i] * ranks[i + 1]
        entries = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        steps.append(np.array(entries, dtype=np.int64).reshape(ranks[i + 1], ranks[i]))
    return ranks, steps


@settings(max_examples=150)
@given(spine=spines(), data=st.data())
def test_spine_matches_the_all_edges_reference(spine, data):
    ranks, steps = spine
    s, ref = K0Simplex(ranks, steps), RefK0.from_spine(ranks, steps)
    n = s.n
    assert same(s, ref)
    phi = sorted(data.draw(st.lists(st.integers(0, n), min_size=1, max_size=6), label="phi"))
    assert same(s.apply_map(phi), ref.apply_map(phi))
    for i in range(n + 1):
        assert same(s.degeneracy(i), ref.degeneracy(i))
        if n:
            assert same(s.face(i), ref.face(i))
    if n >= 2:
        for j in range(n + 1):
            for i in range(j):
                assert s.face(j).face(i) == s.face(i).face(j - 1)
    # equality against a copy, and against a copy with one entry moved
    assert s == K0Simplex(ranks, [m.copy() for m in steps])
    moved = [m.copy() for m in steps]
    live = [k for k, m in enumerate(moved) if m.size]
    if live:
        k = data.draw(st.sampled_from(live), label="step")
        moved[k].flat[data.draw(st.integers(0, moved[k].size - 1), label="entry")] += 1
    other = K0Simplex(ranks, moved)
    assert (s == other) == (ref == RefK0.from_spine(ranks, moved))


M01 = np.array([[1, 1], [0, 1]], dtype=np.int64)
M12 = np.array([[2, 0], [1, 1]], dtype=np.int64)


def k0_two_simplex():
    s = K0Simplex((2, 2, 2), [M01, M12])
    return s, K0Simplex.face, K0Simplex.degeneracy, K0Simplex.apply_map


def ncorr_two_simplex():
    s = random_simplex(np.random.default_rng(0), 2, max_blocks=2, max_size=2, max_mult=1)
    return s, nerve.face, nerve.degeneracy, nerve.apply_map


@pytest.mark.parametrize("make", [k0_two_simplex, ncorr_two_simplex], ids=["k0", "ncorr"])
def test_face_index_out_of_range_and_empty_map_raise(make):
    s, face, degeneracy, apply_map = make()
    for i in (7, 3, -1):
        with pytest.raises(IndexOutOfRange):
            face(s, i)
        with pytest.raises(IndexOutOfRange):
            degeneracy(s, i)
    with pytest.raises(ShapeMismatch):
        apply_map(s, [])
    with pytest.raises(ShapeMismatch):
        face(apply_map(s, [1]), 0)


@pytest.mark.parametrize("oracle", [K0Oracle, NCorrOracle], ids=["k0", "ncorr"])
def test_fill_boundary_rejects_a_malformed_boundary(oracle):
    """Face keys other than 0..n and a face of the wrong dimension raise
    ShapeMismatch, a CorrLabError, before any face is read."""
    s = k0_two_simplex()[0] if oracle is K0Oracle else ncorr_two_simplex()[0]
    D = oracle()
    e = D.face(s, 0)
    with pytest.raises(ShapeMismatch, match=r"boundary needs faces 0..2, got \[0, 1, 5\]"):
        D.fill_boundary({0: e, 1: e, 5: e})
    with pytest.raises(ShapeMismatch, match="face 2 has dimension 0, expected 1"):
        D.fill_boundary({0: e, 1: e, 2: D.face(e, 0)})


@pytest.mark.parametrize("bad", [[[1.5]], [[np.nan]], [[np.inf]], [[1e30]], [[2**70]], [["a"]]])
def test_spine_rejects_entries_that_are_not_integers(bad):
    with pytest.raises(ShapeMismatch, match=r"step \(1,2\)"):
        K0Simplex((1, 1, 1), [[[1]], bad])


def test_spine_keeps_int64_steps_and_converts_exact_ones():
    s = K0Simplex((2, 2, 2), [M01, M12.astype(float)])
    assert s.steps[0] is M01
    assert s.steps[1].dtype == np.int64 and np.array_equal(s.steps[1], M12)
    assert s == K0Simplex((2, 2, 2), [M01.tolist(), M12])
    # the same bytes under other ranks are another simplex
    assert K0Simplex((1, 2), [[[1], [2]]]) != K0Simplex((2, 1), [[[1, 2]]])

"""Simplices of correspondences: coherence, simplicial identities, horn fills.

Inner fills in dimension 3 must recover a deleted unitary exactly (up to
rounding); that uniqueness is what makes the nerve behave like a quasi-
category rather than a bare coherence bookkeeping device.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import nerve
from corrlab.algebra import FdCstarAlgebra, StarHom, make_algebra
from corrlab.bicategory import find_corr_iso, is_equivalence
from corrlab.cli import main
from corrlab.errors import (
    EndpointMismatch,
    NotAnEquivalence,
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
    corr_close,
    identity_corr,
    iso_distance,
    left_unitor,
    make_correspondence,
    make_iso,
    make_module,
    right_unitor,
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
from corrlab.serialize import dump_value, load_value


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
    rng = np.random.default_rng(4)
    s = random_simplex(rng, 2, max_mult=1)
    with pytest.raises(ShapeMismatch):
        NCorrSimplex(s.algebras, s.edges | {(1, 1): s.edge(1, 1)}, s.cells)
    for key in [(0, 0, 2), (0, 2, 2), (1, 1, 1), (0, 1, 3), (2, 1, 0)]:
        with pytest.raises(ShapeMismatch):
            NCorrSimplex(s.algebras, s.edges, s.cells | {key: s.cells[(0, 1, 2)]})
    edges = dict(s.edges)
    e = edges.pop((0, 2))
    for key in [(2, 0), (2, 2), (0, 3)]:
        with pytest.raises(ShapeMismatch):
            NCorrSimplex(s.algebras, edges | {key: e}, s.cells)
    with pytest.raises(ShapeMismatch):
        NCorrSimplex(s.algebras, edges, s.cells)
    with pytest.raises(ShapeMismatch):
        make_simplex(s.algebras, s.edges, s.cells | {(0, 0, 1): s.cell(0, 0, 1)})


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


@pytest.mark.parametrize("seed", range(3))
def test_special_outer_fill_dim3(seed):
    rng = np.random.default_rng(200 + seed)
    s = equivalence_tail_simplex(rng, 2)
    assert is_equivalence(s.edges[(2, 3)])
    horn = HornSpec(3, 3, {j: face(s, j) for j in range(3)})
    filled = fill_special_outer_horn(horn)
    assert iso_distance(filled.cells[(0, 1, 2)], s.cells[(0, 1, 2)]) < 1e-9


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

    def counting(simplex, *quad):
        calls.append(quad)
        return real(simplex, *quad)

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

    def counting(simplex, *quad):
        calls.append(quad)
        return real(simplex, *quad)

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
    lam = np.stack([(s @ e @ np.linalg.inv(s)).ravel() for e in units], axis=1)
    return Correspondence(a, module, StarHom(a, module.compacts, lam.astype(complex)))


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

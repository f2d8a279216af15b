"""Subdivision combinatorics and the induced algebra diagram.

Chain counts are checked against brute-force enumerations built here from
itertools, independently of the library's own generators.
"""

import itertools
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import subdivision
from corrlab.algebra import (
    FdCstarAlgebra,
    _bratteli_hom,
    _compose_ws,
    _composite_residual,
    _gram_gap,
    compose_homs,
)
from corrlab.errors import (
    DimensionTooLarge,
    FunctorialityViolated,
    IndexOutOfRange,
    NotMonotone,
    NotNested,
    ShapeViolation,
)
from corrlab.generators import embedding_hom, random_simplex
from corrlab.linalg import EPS, frob
from corrlab.modules import CorrIso
from corrlab.nerve import NCorrSimplex, apply_map, gamma_simplex
from corrlab.subdivision import (
    AugChain,
    degeneracy,
    enumerate_csd,
    face,
    module_E_S,
    subdivision_functor,
)
from reference import _gram, all_triples_check, connecting_hom, is_nondegenerate, phi_star


def nonempty_subsets(n):
    out = []
    for r in range(1, n + 2):
        out.extend(itertools.combinations(range(n + 1), r))
    return out


def brute_sd_chains(n):
    """All strictly increasing subset chains, grouped by dimension."""
    subsets = nonempty_subsets(n)
    by_dim = {}
    frontier = [(s,) for s in subsets]
    while frontier:
        nxt = []
        for c in frontier:
            by_dim.setdefault(len(c) - 1, set()).add(c)
            for t in subsets:
                if set(c[-1]) < set(t):
                    nxt.append(c + (t,))
        frontier = nxt
    return by_dim


def brute_csd_chains(n):
    """All nondegenerate augmented chains, grouped by dimension."""
    big = [s for s in nonempty_subsets(n) if len(s) >= 2]
    suffixes = [()]
    frontier = [(s,) for s in big]
    while frontier:
        nxt = []
        for c in frontier:
            suffixes.append(c)
            for t in big:
                if set(c[-1]) < set(t):
                    nxt.append(c + (t,))
        frontier = nxt
    by_dim = {}
    for suf in suffixes:
        pool = suf[0] if suf else tuple(range(n + 1))
        for r in range(0, len(pool) + 1):
            if r == 0 and not suf:
                continue
            for vs in itertools.combinations(pool, r):
                d = r + len(suf) - 1
                by_dim.setdefault(d, set()).add((vs, suf))
    return by_dim


def as_aug(entries):
    """A chain of subsets as an AugChain: its singletons become vertices."""
    vs = tuple(s[0] for s in entries if len(s) == 1)
    return AugChain(vs, tuple(s for s in entries if len(s) > 1))


def sd_chains(n):
    """The chains of the subdivided n-simplex: the nondegenerate augmented
    chains with at most one vertex, keyed by dimension."""
    by_dim = {d: [c for c in cs if len(c.vertices) <= 1] for d, cs in enumerate_csd(n).items()}
    return {d: cs for d, cs in by_dim.items() if cs}


def test_sd2_counts():
    by_dim = sd_chains(2)
    assert {d: len(v) for d, v in by_dim.items()} == {0: 7, 1: 12, 2: 6}
    brute = brute_sd_chains(2)
    for d, chains in by_dim.items():
        assert set(chains) == {as_aug(c) for c in brute[d]}


@pytest.mark.parametrize("n", range(4))
def test_sd_chains_are_the_augmented_chains_with_one_vertex(n):
    """A nested run of subsets is the AugChain of its singletons and its
    larger subsets; dropping or doubling an entry commutes with that."""
    brute = brute_sd_chains(n)
    assert {d: {as_aug(c) for c in cs} for d, cs in brute.items()} == {
        d: set(cs) for d, cs in sd_chains(n).items()
    }
    for c in set().union(*brute.values()):
        for i in range(len(c)):
            assert degeneracy(as_aug(c), i) == as_aug(c[: i + 1] + c[i:])
            if len(c) > 1:
                assert face(as_aug(c), i) == as_aug(c[:i] + c[i + 1 :])


def test_csd_counts():
    one = enumerate_csd(1)
    assert {d: len(v) for d, v in one.items()} == {0: 3, 1: 3, 2: 1}
    two = enumerate_csd(2)
    assert {d: len(v) for d, v in two.items()} == {0: 7, 1: 15, 2: 13, 3: 4}
    brute = brute_csd_chains(2)
    for d, chains in two.items():
        assert {(c.vertices, c.subsets) for c in chains} == brute[d]
    assert all(is_nondegenerate(c) for chains in two.values() for c in chains)


def test_chain_shape_rules():
    with pytest.raises(ShapeViolation):
        AugChain((), ())
    with pytest.raises(ShapeViolation):
        AugChain((), ((),))
    with pytest.raises(ShapeViolation):
        AugChain((1, 0), ())
    with pytest.raises(ShapeViolation):
        AugChain((1,), ((0, 2),))
    with pytest.raises(ShapeViolation):
        AugChain((), ((0,),))
    with pytest.raises(NotNested):
        AugChain((), ((0, 1), (0, 2)))
    # vertices may repeat (degenerate chains are legal, just not enumerated)
    c = AugChain((0, 0), ((0, 1),))
    assert not is_nondegenerate(c)
    assert c.dim == 2


def chain_pool(n):
    """Nondegenerate chains of dim <= 3 plus one-step degeneracies."""
    pool = []
    for d, chains in enumerate_csd(n).items():
        if d > 3:
            continue
        pool.extend(chains)
        for c in chains:
            if d <= 2:
                pool.extend(degeneracy(c, i) for i in range(d + 1))
    return pool


@pytest.mark.parametrize("n", [1, 2])
def test_simplicial_identities_exhaustive(n):
    for c in chain_pool(n):
        l = c.dim
        if l >= 2:
            for j in range(l + 1):
                for i in range(j):
                    assert face(face(c, j), i) == face(face(c, i), j - 1)
        for i in range(l + 1):
            for j in range(i, l + 1):
                assert degeneracy(degeneracy(c, j), i) == degeneracy(
                    degeneracy(c, i), j + 1
                )
        for j in range(l + 1):
            s = degeneracy(c, j)
            for i in range(l + 2):
                if i < j:
                    assert face(s, i) == degeneracy(face(c, i), j - 1)
                elif i in (j, j + 1):
                    assert face(s, i) == c
                else:
                    assert face(s, i) == degeneracy(face(c, i - 1), j)


def test_face_bounds():
    c = AugChain((0,), ())
    with pytest.raises(ShapeViolation):
        face(c, 0)
    c2 = AugChain((0,), ((0, 1),))
    with pytest.raises(IndexOutOfRange):
        face(c2, 2)
    with pytest.raises(IndexOutOfRange):
        degeneracy(c2, -1)


def validated(chain):
    """The same entries passed through the validating public constructor."""
    return AugChain(chain.vertices, chain.subsets)


@pytest.mark.parametrize("n", range(5))
def test_trusted_faces_and_degeneracies_match_validated_chains(n):
    """face and degeneracy skip validation; their results must be exactly
    what the validating constructors build from the same entries."""
    pool = [c for chains in enumerate_csd(n).values() for c in chains]
    pool += [degeneracy(c, i) for c in list(pool) for i in range(c.dim + 1)]
    for c in pool:
        derived = [degeneracy(c, i) for i in range(c.dim + 1)]
        derived += [face(c, i) for i in range(c.dim + 1) if c.dim]
        for got in derived:
            want = validated(got)
            # repr spells out field types: tuples of plain ints, as validated
            assert repr(got) == repr(want) and vars(got) == vars(want)
            assert got == want and hash(got) == hash(want)


def test_chains_hash_as_the_pair_of_runs():
    """A chain hashes as hash((vertices, subsets)), the value the generated
    dataclass hash gave, so sets and dicts of chains keep their order;
    equality compares the two runs, and a chain is never equal to a tuple."""
    c, t = AugChain((0, 1), ((0, 1, 2),)), face(AugChain((0, 1, 1), ((0, 1, 2),)), 2)
    assert c == t and hash(c) == hash(t) == hash(((0, 1), ((0, 1, 2),)))
    assert AugChain((0,), ((0, 1),)) != AugChain((1,), ((0, 1),))
    assert AugChain((0,), ()) != ((0,), ())


MALFORMED = [
    (ShapeViolation, lambda: AugChain((1, 0), ((0, 1),))),  # vertices not monotone
    (NotNested, lambda: AugChain((0,), ((0, 1), (0, 2)))),
    (NotNested, lambda: AugChain((), ((0, 1), (1, 2)))),
    (ShapeViolation, lambda: AugChain((2,), ((0, 1), (0, 1, 2)))),  # vertex outside
    (ShapeViolation, lambda: AugChain((0,), ((0,), (0, 1)))),  # singleton subset
    (ShapeViolation, lambda: AugChain((), ((1, 0),))),  # subset not increasing
    (ShapeViolation, lambda: AugChain((-1,), ())),  # negative vertex
    (ShapeViolation, lambda: AugChain((), ((-1, 0),))),  # negative subset entry
    # non-integers follow nerve's rule; int() read (0, 1.5) as (0, 1)
    (ShapeViolation, lambda: AugChain((0, 1.5), ())),
    (ShapeViolation, lambda: AugChain((0,), ((0, 1.0),))),
    (ShapeViolation, lambda: AugChain(("0",), ())),
]


@pytest.mark.parametrize("err,build", MALFORMED)
def test_public_chain_constructors_still_validate(err, build):
    with pytest.raises(err):
        build()


@pytest.mark.parametrize("point,chain", [
    (AugChain((0,), ()), AugChain((0,), ((0, 1),))),
    (AugChain((), ((0, 1),)), AugChain((), ((0, 1), (0, 1, 2)))),
])
def test_face_and_degeneracy_bounds(point, chain):
    with pytest.raises(ShapeViolation):
        face(point, 0)
    for i in (-1, chain.dim + 1):
        with pytest.raises(IndexOutOfRange):
            face(chain, i)
        with pytest.raises(IndexOutOfRange):
            degeneracy(chain, i)


def test_phi_star():
    collapse = [0, 0, 1]
    c = AugChain((0, 2), ((0, 1, 2),))
    img = phi_star(collapse, c)
    assert img == AugChain((0, 1), ((0, 1),))
    # a fully collapsed subset turns into a vertex entry
    c2 = AugChain((), ((0, 1), (0, 1, 2)))
    img2 = phi_star([1, 1, 2], c2)
    assert img2 == AugChain((1,), ((1, 2),))
    with pytest.raises(NotMonotone):
        phi_star([1, 0], AugChain((0, 1), ()))
    # functoriality on the whole 2-skeleton
    phi, psi = [0, 1, 1], [0, 0, 1, 2]
    comp = [psi[v] for v in phi]
    for chains in enumerate_csd(2).values():
        for c in chains:
            assert phi_star(psi, phi_star(phi, c)) == phi_star(comp, c)


def test_module_E_S_shapes():
    for seed in (3, 5):  # A_1 = A_2 at seed 3, A_1 != A_2 at seed 5
        s = random_simplex(np.random.default_rng(seed), 2, max_mult=1)
        data = module_E_S(s, (0, 1, 2))
        want = tuple(
            sum(s.edge(v, 2).module.mult[k] for v in (0, 1, 2))
            for k in range(s.algebras[2].nblocks)
        )
        assert data.module.mult == want
        assert data.top == 2
        # E_{1} = E_11, the identity correspondence of A_1
        single = module_E_S(s, (1,))
        assert single.module.mult == s.edge(1, 1).module.mult == s.algebras[1].blocks
        with pytest.raises(IndexOutOfRange):
            module_E_S(s, (0, 3))


def test_connecting_hom_identity_and_composition():
    rng = np.random.default_rng(5)
    s = random_simplex(rng, 2, max_mult=1)
    f = connecting_hom(s, (0, 2), (0, 2))
    assert frob(f.matrix - np.eye(f.matrix.shape[0])) < 1e-9
    f01 = connecting_hom(s, (0,), (0, 1))
    f12 = connecting_hom(s, (0, 1), (0, 1, 2))
    f02 = connecting_hom(s, (0,), (0, 1, 2))
    assert frob(compose_homs(f12, f01).matrix - f02.matrix) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_subdivision_functor_triples(seed):
    rng = np.random.default_rng(seed + 20)
    n, n_nested, n_strict = (2, 37, 6) if seed < 4 else (3, 175, 60)
    s = random_simplex(rng, n, twist=bool(seed % 2), max_mult=1)
    sd = subdivision_functor(s, check=False)
    nested = [
        (a, b, c)
        for a in sd.subsets
        for b in sd.subsets
        if set(a) <= set(b)
        for c in sd.subsets
        if set(b) <= set(c)
    ]
    # brute-force triple census over the subsets of [n]
    assert len(nested) == n_nested
    assert sum(1 for a, b, c in nested if set(a) < set(b) < set(c)) == n_strict
    worst = 0.0
    for a, b, c in nested:
        lhs = compose_homs(sd.hom(b, c), sd.hom(a, b))
        resid = frob(lhs.matrix - sd.hom(a, c).matrix)
        if a == b or b == c:
            # an identity factor: exactly zero, which is why the check skips it
            assert resid == 0.0, (a, b, c)
        else:
            worst = max(worst, resid)
    assert worst < 1e-9


def scaling_chain_simplex(n, seed=0):
    """Gamma of the chain [n,1] -> [2n+1,n] -> [4n+2,n+1], multiplicities
    [[2,1],[1,0]] and [[2,0],[0,1]], conjugated by seeded unitaries."""
    rng = np.random.default_rng(seed)
    a, b, c = (FdCstarAlgebra(x) for x in ([n, 1], [2 * n + 1, n], [4 * n + 2, n + 1]))
    homs = [embedding_hom(a, b, [[2, 1], [1, 0]], rng), embedding_hom(b, c, [[2, 0], [0, 1]], rng)]
    return gamma_simplex(homs)


def strict_triples(subsets):
    return [
        (a, b, c) for a in subsets for b in subsets for c in subsets if set(a) < set(b) < set(c)
    ]


def gram_residual(psi, phi, chi):
    """The check's residual before the overlap bound: each block's Gram
    matrices compared entrywise, a block that one side lacks with zero."""
    worst = [0.0]
    for lhs, rhs in zip(_compose_ws(psi._ws, phi._ws), chi._ws):
        for i in lhs.keys() | rhs.keys():
            if i not in rhs:
                d = _gram(lhs[i])
            elif i not in lhs:
                d = _gram(rhs[i])
            else:
                d = _gram(lhs[i]) - _gram(rhs[i])
            worst.append(np.abs(d).max())
    return float(np.max(worst))


def passes_like_the_gram_residual(psi, phi, chi):
    """Whether the check passes psi . phi = chi, after asserting that its
    residual is at least the Gram residual and gives the same verdict."""
    old, new = gram_residual(psi, phi, chi), _composite_residual(psi, phi, chi)
    assert new >= old - 1e-14
    assert (new <= EPS) == (old <= EPS), (old, new)
    return new <= EPS


@pytest.mark.parametrize(
    "make",
    [
        *(
            lambda n=n: random_simplex(np.random.default_rng(60 + n), n, twist=n == 2, max_mult=1)
            for n in (1, 2, 3)
        ),
        lambda: scaling_chain_simplex(2),
        *(
            # block sizes shrink as n grows, so that multiplicity 2 fits
            lambda n=n: random_simplex(
                np.random.default_rng(74 + 3 * n), n, twist=True, max_size=4 - n, max_mult=2
            )
            for n in (1, 2, 3)
        ),
    ],
    ids=["random-n1", "random-n2", "random-n3", "scaling-chain-n2"]
    + [f"random-n{n}-mult2" for n in (1, 2, 3)],
)
def test_bratteli_residual_matches_the_dense_one(make):
    """The check's residual of every strict triple, computed from Bratteli
    data, bounds the largest entry of the dense difference from above and,
    on valid data, is within 1e-12 of it; the composite's multiplicities are
    the product of the factors'."""
    sd = subdivision_functor(make(), check=False)
    strict = strict_triples(sd.subsets)
    assert len(strict) == {1: 0, 2: 6, 3: 60}[sd.base.n]
    for a, b, c in strict:
        f_ab, f_bc, f_ac = sd.hom(a, b), sd.hom(b, c), sd.hom(a, c)
        dense = np.abs(compose_homs(f_bc, f_ab).matrix - f_ac.matrix).max()
        resid = _composite_residual(f_bc, f_ab, f_ac)
        assert dense <= resid + 1e-14 and resid <= 1e-12, (a, b, c)
        assert passes_like_the_gram_residual(f_bc, f_ab, f_ac), (a, b, c)
        ws = _compose_ws(f_bc._ws, f_ab._ws)
        mult = np.zeros_like(f_ac.mult_matrix)
        for l, per_i in enumerate(ws):
            for i, w in per_i.items():
                mult[i, l] = w.shape[2]
        assert np.array_equal(mult, f_ab.mult_matrix @ f_bc.mult_matrix), (a, b, c)


def without_blocks(f, l, keep=lambda i: False):
    """f with the Bratteli blocks (l, i) it does not keep dropped: a
    smaller *-hom."""
    ws = [dict(per_i) for per_i in f._ws]
    ws[l] = {i: w for i, w in ws[l].items() if keep(i)}
    return _bratteli_hom(f.src, f.dst, ws)


def scaling_chain_homs():
    """f_01, f_12 and f_02 of the subdivided scaling chain at n = 2, with
    the first Bratteli block (l, i) of f_02."""
    sd = subdivision_functor(scaling_chain_simplex(2), check=False)
    f01, f12, f02 = sd.hom((0,), (0, 1)), sd.hom((0, 1), (0, 1, 2)), sd.hom((0,), (0, 1, 2))
    l, i = next((l, i) for l, per_i in enumerate(f02._ws) for i in per_i)
    return f01, f12, f02, l, i


def test_bratteli_residual_compares_a_one_sided_block_with_zero():
    """Where only the composite or only the third hom has a block, the
    residual is still the dense one."""
    f01, f12, f02, l, i = scaling_chain_homs()
    only_lhs = (f12, without_blocks(f02, l, keep=lambda k: k != i))
    only_rhs = (without_blocks(f12, l), f02)
    for psi, chi in (only_lhs, only_rhs):
        dense = np.abs(compose_homs(psi, f01).matrix - chi.matrix).max()
        assert dense > 1e-3
        assert abs(_composite_residual(psi, f01, chi) - dense) <= 1e-12
        assert not passes_like_the_gram_residual(psi, f01, chi)


def test_bratteli_residual_fails_a_multiplicity_mismatch():
    """A block of f_02 with one column fewer than the composite's fails, as
    it did with Grams."""
    f01, f12, f02, l, i = scaling_chain_homs()
    fewer = [dict(per_i) for per_i in f02._ws]
    assert fewer[l][i].shape[2] == 4
    fewer[l][i] = fewer[l][i][:, :, :3]
    assert not passes_like_the_gram_residual(f12, f01, _bratteli_hom(f02.src, f02.dst, fewer))


def prefix(m):
    return tuple(range(m + 1))


def cut_place(sigma, pair):
    """Where the first block of f_ST, (S, T) = pair, lies in the prefix hom
    of its tops: that block's (l, j) in the prefix and in f_ST, and the rows
    and columns of the prefix's W_lj that f_ST keeps."""
    s, t = pair
    p, q = module_E_S(sigma, prefix(s[-1])), module_E_S(sigma, prefix(t[-1]))
    (_, js, cols), (_, ls, rows) = (
        subdivision._place(module_E_S(sigma, s), p),
        subdivision._place(module_E_S(sigma, t), q),
    )
    ranks = sigma.tp(s[-1], s[-1], t[-1]).r
    l_at, j_at = next(
        (lp, jp) for lp, l in enumerate(ls) for jp, j in enumerate(js) if ranks[p.module.kept[j]][q.module.kept[l]]
    )
    return (ls[l_at], js[j_at]), (l_at, j_at), rows[l_at], cols[j_at]


def move_in_cut(ws, place, move):
    """Move the largest entry of the cut's first block inside the prefix's
    data ``ws``; returns its index in the cut's block."""
    (l, j), _, rows, cols = place
    w = ws[l][j]
    k = np.unravel_index(np.argmax(np.abs(w[rows][:, cols])), (len(rows), len(cols), w.shape[2]))
    w[rows[k[0]], cols[k[1]], k[2]] = move(w[rows[k[0]], cols[k[1]], k[2]])
    return k


def corrupt_isometries(monkeypatch, pair, move=lambda x: x + 1e-6 * x / abs(x)):
    """Make the Bratteli data of the prefix hom that f_ST, for (S, T) = pair
    with distinct tops, is cut from move its largest entry that the cut
    keeps, in the cut's first block, by default by 1e-6 along its own
    phase.  The check reads the data, not the dense matrices: a dense f_ST
    is _conjugation_matrix of its data by construction, which the dense
    oracles over all triples cover."""
    isometries, (s, t) = subdivision._isometries, pair
    assert s[-1] < t[-1]

    def corrupted(sigma, data_s, data_t):
        ws = isometries(sigma, data_s, data_t)
        if (data_s.subset, data_t.subset) == (prefix(s[-1]), prefix(t[-1])):
            move_in_cut(ws, cut_place(sigma, pair), move)
        return ws

    monkeypatch.setattr(subdivision, "_isometries", corrupted)


def assert_the_cut_moved(f, clean, place, k, by):
    """f's data is the clean per-pair build's but at entry k of the cut's
    first block, which moved by ``by``."""
    _, (l, j), _, _ = place
    for lp, (w_l, c_l) in enumerate(zip(f._ws, clean._ws)):
        assert w_l.keys() == c_l.keys()
        for jp in w_l:
            d = w_l[jp] - c_l[jp]
            if (lp, jp) == (l, j):
                assert abs(d[k] - by) < 1e-12 and np.count_nonzero(d) == 1
            else:
                assert not d.any()


def bit_equal(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def same_bits(f, g):
    """Whether two homs have the same multiplicities and Bratteli data, bit
    for bit, block for block."""
    return (
        bit_equal(f.mult_matrix, g.mult_matrix)
        and len(f._ws) == len(g._ws)
        and all(
            x.keys() == y.keys() and all(bit_equal(x[i], y[i]) for i in x) for x, y in zip(f._ws, g._ws)
        )
    )


STRICT_PAIRS_N2 = [
    (s, t) for t in nonempty_subsets(2) for s in nonempty_subsets(2) if set(s) < set(t)
]


# cut from summand 1 of f_(01),(012), the left unitor of E_12: at n = 2 the
# one prefix hom that is only ever a second factor, on a summand outside its
# first factor's image, so every strict triple that reads these bits reads
# them on both sides (below); at n = 3 the prefix triple (1, 2, 3) reads them
UNITOR_CUTS_N2 = {((1,), (1, 2)), ((1,), (0, 1, 2))}


@pytest.mark.parametrize("pair", STRICT_PAIRS_N2)
def test_subdivision_check_rejects_a_corrupted_hom(monkeypatch, pair):
    """Moving the entry of the prefix hom of a strictly nested pair's tops
    that is the largest of the pair's cut moves the cut, and the check's
    verdict is that of every strict triple over the same homs, each triple's
    verdict being the Gram residual's.

    With distinct tops the prefix is built by _isometries and a move of
    1e-6 breaks a strict triple, which the check catches, but for the two
    cuts of UNITOR_CUTS_N2: every hom cut from that summand carries the
    same moved bits, so no strict triple sees a difference at n = 2 (the
    per-pair builds saw one only as two builds of one unitor disagreeing,
    which one build cannot do), and at n = 3 the check catches it.  With
    equal tops the prefix is the identity, exact by construction and, like
    f_SS before cutting, read by no triple of the check; the cut is an exact
    0/1 summand inclusion, equal to the per-pair build from the unitor
    cells."""
    assert len(STRICT_PAIRS_N2) == 12
    s = random_simplex(np.random.default_rng(21), 2, max_mult=1)
    clean, place = connecting_hom(s, *pair), cut_place(s, pair)
    if pair[0][-1] == pair[1][-1]:
        cut = subdivision_functor(s, check=True).homs[pair]
        assert same_bits(cut, clean)
        assert all(np.isin(w, (0.0, 1.0)).all() for w_l in cut._ws for w in w_l.values())
        real, moved = subdivision.identity_hom, []

        def corrupted(a):
            ws = [{i: w.copy() for i, w in w_l.items()} for w_l in real(a)._ws]
            if a is module_E_S(s, prefix(pair[0][-1])).algebra:
                moved.append(move_in_cut(ws, place, lambda x: x + 1e-6))
            return _bratteli_hom(a, a, ws)

        monkeypatch.setattr(subdivision, "identity_hom", corrupted)
        assert_the_cut_moved(subdivision_functor(s, check=False).homs[pair], clean, place, moved[0], 1e-6)
        return
    corrupt_isometries(monkeypatch, pair)
    sd = subdivision_functor(s, check=False)
    w = clean._ws[place[1][0]][place[1][1]]
    k = np.unravel_index(np.argmax(np.abs(w)), w.shape)
    assert_the_cut_moved(sd.homs[pair], clean, place, k, 1e-6 * w[k] / abs(w[k]))
    verdicts = [
        passes_like_the_gram_residual(sd.homs[(b, c)], sd.homs[(a, b)], sd.homs[(a, c)])
        for a, b, c in strict_triples(sd.subsets)
    ]
    assert all(verdicts) == (pair in UNITOR_CUTS_N2)
    if pair in UNITOR_CUTS_N2:
        subdivision_functor(s, check=True)
        s = random_simplex(np.random.default_rng(21), 3, max_mult=1)
    with pytest.raises(FunctorialityViolated):
        subdivision_functor(s, check=True)


def test_subdivision_check_rejects_a_nan_entry(monkeypatch):
    s = random_simplex(np.random.default_rng(21), 2, max_mult=1)
    corrupt_isometries(monkeypatch, ((0,), (0, 1)), move=lambda x: np.nan)
    with pytest.raises(FunctorialityViolated, match="nan"):
        subdivision_functor(s, check=True)


def test_subdivision_check_rejects_a_nan_entry_of_the_third_hom(monkeypatch):
    """A NaN in the data of f_SU, in a block that the composite also has
    with the same multiplicity r = 4, is reported as a NaN residual; the
    polar step never runs an SVD on it."""
    pair = ((0,), (0, 1, 2))
    corrupt_isometries(monkeypatch, pair, move=lambda x: np.nan)
    sigma = scaling_chain_simplex(2)
    with np.errstate(invalid="ignore"):  # the NaN reaches chi's multiplicity traces
        sd = subdivision_functor(sigma, check=False)
        with pytest.raises(FunctorialityViolated, match="nan"):
            subdivision_functor(sigma, check=True)
    chi = sd.homs[pair]
    lhs = _compose_ws(sd.homs[((0, 1), (0, 1, 2))]._ws, sd.homs[((0,), (0, 1))]._ws)
    l, i = next((l, i) for l, per_i in enumerate(chi._ws) for i in per_i)
    assert np.isnan(chi._ws[l][i]).any()
    assert chi._ws[l][i].shape == lhs[l][i].shape and lhs[l][i].shape[2] == 4
    assert np.isnan(_gram_gap(lhs[l][i], chi._ws[l][i]))


def moved_cell(sigma, key, move):
    """sigma with the largest entry of the first block of its strict cell
    u_key moved, unchecked: the subdivision reads cells without checking."""
    u = sigma.cells[key]
    blocks = [b.copy() for b in u.blocks]
    b = blocks[0]
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    b[k] = move(b[k])
    return NCorrSimplex(sigma.algebras, sigma.edges, {**sigma.cells, key: CorrIso._trusted(u.src, u.dst, blocks)})


def rejects(check, sigma) -> bool:
    try:
        check(sigma)
    except FunctorialityViolated:
        return True
    return False


@pytest.mark.parametrize("twist", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_prefix_check_agrees_with_every_strict_triple(n, twist):
    """Differential test of the prefix-triple check against the check over
    every strictly nested triple of per-pair builds (reference), on the
    acceptance sweep's draws at seeds 0-7 (block size 1 at n = 4, so the
    subdivision fits MAX_HOM_BYTES): each clean draw passes both, and each
    draw with one strict cell moved by 1e-6 (every cell in turn, n <= 3) or
    with one NaN cell is rejected by both."""
    verdicts = Counter()
    for seed in range(8):
        sigma = random_simplex(
            np.random.default_rng(seed), n, twist=twist, max_blocks=2, max_size=2 if n < 4 else 1, max_mult=1
        )
        keys = sorted(sigma.cells)
        draws = [(sigma, False)]
        if n <= 3:
            draws += [(moved_cell(sigma, key, lambda x: x + 1e-6 * x / abs(x)), True) for key in keys]
        draws.append((moved_cell(sigma, keys[seed % len(keys)], lambda x: np.nan), True))
        with np.errstate(invalid="ignore"):  # the NaN reaches the residuals' SVD-free paths
            for s, corrupt in draws:
                ref = rejects(all_triples_check, s)
                assert ref == corrupt, (seed, corrupt)
                assert rejects(lambda s: subdivision_functor(s, check=True), s) == ref, (seed, corrupt)
                verdicts[corrupt] += 1
    cells = {2: 1, 3: 4, 4: 0}[n]
    assert verdicts == {False: 8, True: 8 * (cells + 1)}


def subdivision_draws():
    """n = 1..4 at mixed block sizes and multiplicities, and the scaling chain."""
    for n in (1, 2, 3, 4):
        for seed in range(3):
            yield random_simplex(
                np.random.default_rng(90 + seed), n, twist=bool(seed % 2), max_blocks=2, max_size=2,
                max_mult=2 if n < 3 else 1,
            )
    yield scaling_chain_simplex(2)


@pytest.mark.parametrize("sigma", list(subdivision_draws()), ids=lambda s: f"n{s.n}")
def test_every_connecting_hom_is_the_per_pair_build_bit_for_bit(sigma):
    """Each hom the functor cuts from a prefix hom, and each prefix hom, has
    the per-pair build's multiplicities, Bratteli data and dense view, bit
    for bit; the per-pair build reads the pair's own cells, unitors
    included, and the cut reads the prefix's data or the identity."""
    sd = subdivision_functor(sigma, check=True)
    assert len(sd.homs) == 3 ** (sigma.n + 1) - 2 ** (sigma.n + 1)
    for (s, t), f in sd.homs.items():
        g = connecting_hom(sigma, s, t)
        assert same_bits(f, g), (s, t)
        assert bit_equal(f.matrix, g.matrix), (s, t)


@pytest.mark.parametrize("n, calls", [(1, 0), (2, 1), (3, 4), (4, 10)])
def test_the_check_reads_the_prefix_triples_only(monkeypatch, n, calls):
    """check=True computes C(n+1, 3) residuals, one per prefix triple
    a < b < c, on the prefix homs, and builds the data of no other hom."""
    seen, real = [], subdivision._composite_residual

    def counting(psi, phi, chi):
        seen.append((psi, phi, chi))
        return real(psi, phi, chi)

    monkeypatch.setattr(subdivision, "_composite_residual", counting)
    sigma = random_simplex(np.random.default_rng(n), n, max_blocks=2, max_size=1, max_mult=1)
    sd = subdivision_functor(sigma, check=True)
    pre = {(prefix(a), prefix(b)): (a, b) for a in range(n + 1) for b in range(a, n + 1)}
    by_hom = {id(f): pre.get(st) for st, f in sd.homs.items()}
    assert [tuple(by_hom[id(f)] for f in t) for t in seen] == [
        ((b, c), (a, b), (a, c)) for a, b, c in itertools.combinations(range(n + 1), 3)
    ]
    assert len(seen) == calls
    assert all("_ws" not in vars(f) for st, f in sd.homs.items() if st not in pre)


def test_the_restriction_argument():
    """Why the prefix triples cover every strict triple S < T < U, tops
    m <= M <= N: with two tops equal, the composite's data is f_SU's, value
    for value; with m < M < N, the dense difference's largest entry is at
    most the prefix triple's, of which it is a compression."""
    for sigma in subdivision_draws():
        sd = subdivision_functor(sigma, check=False)
        for a, b, c in strict_triples(sd.subsets):
            tops = a[-1], b[-1], c[-1]
            f_ab, f_bc, f_ac = sd.hom(a, b), sd.hom(b, c), sd.hom(a, c)
            if len(set(tops)) < 3:
                lhs = _compose_ws(f_bc._ws, f_ab._ws)
                for x, y in zip(lhs, f_ac._ws):
                    assert x.keys() == y.keys() and all(np.array_equal(x[i], y[i]) for i in x)
                continue
            p = [prefix(m) for m in tops]
            cut = np.abs(compose_homs(f_bc, f_ab).matrix - f_ac.matrix).max()
            whole = compose_homs(sd.hom(p[1], p[2]), sd.hom(p[0], p[1])).matrix - sd.hom(p[0], p[2]).matrix
            assert cut <= np.abs(whole).max() + 1e-15, (a, b, c)


@st.composite
def gram_pairs(draw):
    """Two complex arrays of one shape (m, n, r), isometries or not: the
    second unrelated to the first, or the first rotated by a unitary and
    moved by a perturbation of a drawn size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    m, n, r = shape

    def gaussian(scale):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    w1 = gaussian(draw(st.sampled_from([1e-9, 1.0, 3.0])))
    if m * n >= r and draw(st.booleans()):
        w1 = np.linalg.qr(w1.reshape(m * n, r))[0].reshape(shape)
    if draw(st.booleans()):
        return w1, gaussian(draw(st.sampled_from([0.0, 1e-9, 1.0, 3.0])))
    u = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))[0]
    w2 = (w1.reshape(m * n, r) @ u).reshape(shape)
    return w1, w2 + gaussian(draw(st.sampled_from([0.0, 1e-12, 1e-6, 1.0])))


@settings(max_examples=200)
@given(pair=gram_pairs())
def test_gram_gap_bounds_the_dense_gap(pair):
    """The overlap bound is never below max |W1 W1^* - W2 W2^*|, up to the
    rounding of the dense difference, and a one-sided block is exact."""
    w1, w2 = pair
    scale = 1.0 + max(np.abs(w1).max(), np.abs(w2).max()) ** 2
    dense = np.abs(_gram(w1) - _gram(w2)).max()
    assert _gram_gap(w1, w2) >= dense - 1e-13 * scale
    assert abs(_gram_gap(w1, None) - np.abs(_gram(w1)).max()) <= 1e-13 * scale
    assert _gram_gap(None, w2) == _gram_gap(w2, None)


def test_bratteli_check_runs_at_the_generator_default_sizes():
    """All 60 strict triples of a 3-simplex at random_simplex's default
    sizes, whose dense homs would take 8.9 GiB, checked on objects that hold
    only their Bratteli data, under a traced peak of 64 MiB."""
    sigma = random_simplex(np.random.default_rng(5), 3)
    subsets = nonempty_subsets(3)
    tracemalloc.start()
    try:
        data = {s: module_E_S(sigma, s) for s in subsets}
        pairs = [(s, t) for s in subsets for t in subsets if set(s) <= set(t)]
        homs = {
            (s, t): types.SimpleNamespace(_ws=subdivision._isometries(sigma, data[s], data[t]))
            for s, t in pairs
            if s != t
        }
        triples = strict_triples(subsets)
        worst = max(
            _composite_residual(homs[(b, c)], homs[(a, b)], homs[(a, c)]) for a, b, c in triples
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = sum(16 * data[s].algebra.dim * data[t].algebra.dim for s, t in pairs)
    assert dense > 8 * 2**30 > subdivision.MAX_HOM_BYTES
    assert len(triples) == 60
    assert worst <= EPS
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "lookup, error",
    [
        (("hom", (1,), (0,)), NotNested),
        (("hom", (0,), (0, 7)), IndexOutOfRange),
        (("hom", (2, 5), (0, 2)), IndexOutOfRange),
        (("algebra", (5,)), IndexOutOfRange),
        (("hom", (), (0,)), ShapeViolation),
    ],
)
def test_functor_lookups_raise_like_connecting_hom(lookup, error):
    s = random_simplex(np.random.default_rng(1), 2, max_mult=1)
    sd = subdivision_functor(s, check=False)
    name, *subsets = lookup
    with pytest.raises(error):
        getattr(sd, name)(*subsets)
    with pytest.raises(error):
        connecting_hom(s, *subsets) if name == "hom" else module_E_S(s, *subsets)
    assert sd.hom((0,), (0, 2)) is sd.homs[((0,), (0, 2))]


def test_subdivision_functor_self_check_passes():
    rng = np.random.default_rng(9)
    s = random_simplex(rng, 3, max_blocks=1, max_size=2, max_mult=1)
    subdivision_functor(s, check=True)


def test_dimension_caps():
    rng = np.random.default_rng(1)
    s5 = random_simplex(rng, 5, max_blocks=1, max_size=1, max_mult=1)
    with pytest.raises(DimensionTooLarge):
        subdivision_functor(s5)
    with pytest.raises(DimensionTooLarge):
        enumerate_csd(5)


def proper_faces(n):
    return [sub for r in range(1, n + 1) for sub in itertools.combinations(range(n + 1), r)]


def assert_same_functor(got, want):
    assert got.subsets == want.subsets
    for t in want.subsets:
        assert got.data[t].subset == t
        assert got.data[t].starts == want.data[t].starts
        assert got.algebra(t).blocks == want.algebra(t).blocks
        assert got.data[t].module == want.data[t].module
    assert got.homs.keys() == want.homs.keys()
    for key, h in want.homs.items():
        g = got.homs[key]
        assert g.matrix.shape == h.matrix.shape and g.matrix.tobytes() == h.matrix.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("twist", [False, True])
def test_restricted_functor_equals_a_fresh_build_of_the_face(n, twist):
    """Every proper face, and every face of a face, restricted from the
    checked functor is byte-equal to the face's own build."""
    s = random_simplex(np.random.default_rng(40 + n), n, twist=twist, max_mult=2)
    sd = subdivision_functor(s)
    for sub in proper_faces(n):
        f = apply_map(s, sub)
        got = sd.restrict(f, sub)
        assert got.base is f
        assert_same_functor(got, subdivision_functor(f, check=False))
        for sub2 in proper_faces(f.n):
            f2 = apply_map(f, sub2)
            assert_same_functor(got.restrict(f2, sub2), subdivision_functor(f2, check=False))


def test_subdivision_reads_subsets_by_the_vertex_rule():
    """A subset with a non-integer vertex is refused: (0, 1.5) used to be
    read as (0, 1), so hom((0,), (0, 1.5)) returned f_{0},{0,1}; numpy
    integers are vertices like ints."""
    s = random_simplex(np.random.default_rng(0), 2, max_blocks=2, max_size=2, max_mult=1)
    sd = subdivision_functor(s)
    with pytest.raises(ShapeViolation, match="integers"):
        sd.hom((0,), (0, 1.5))
    with pytest.raises(ShapeViolation, match="integers"):
        sd.algebra((1.0,))
    assert sd.hom((np.int64(0),), (0, np.int64(1))) is sd.hom((0,), (0, 1))
    with pytest.raises(ShapeViolation, match="nonnegative"):
        enumerate_csd(-1)

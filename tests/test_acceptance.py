"""Acceptance gate: the ten verification sweeps at full scale.

Each criterion is one parametrized test, so a verbose run shows one
pass/fail line per criterion; the body also prints the suite's case count,
worst residual and wall time.  The time budgets in the table below are
asserted, as are exact-zero residuals for the integer-arithmetic sweeps,
which also run at a second seed.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from corrlab import acceptance, algebra
from corrlab.acceptance import CaseReport, run_suite
from corrlab.algebra import StarHom, make_algebra
from corrlab.cli import main
from corrlab.errors import NotIntertwining, NotUnitary
from corrlab.linalg import frob, worst_of
from corrlab.modules import CorrIso, _iso_faults, identity_corr
from corrlab.nerve import NCorrSimplex, identity_iso
from corrlab.serialize import _Sink
from corrlab.subdivision import AugChain

# (criterion, suite, time budget in seconds, exact-arithmetic suite)
CRITERIA = [
    ("c01", "gamma-mult", 5.0, False),
    ("c02", "nerve-coherence", 10.0, False),
    ("c03", "subdivision-functor", 10.0, False),
    ("c04", "corner-unitary", None, False),
    ("c05", "morita-inverse", None, False),
    ("c06", "horn-uniqueness", None, False),
    ("c07", "k0-extension", 10.0, True),
    ("c08", "section-exact", 10.0, True),
    ("c09", "relative-prism", None, True),
    ("c10", "csd-combinatorics", 1.5, True),
]

MIN_CASES = {
    "gamma-mult": 200,
    "nerve-coherence": 100,
    "subdivision-functor": 50,
    "corner-unitary": 100,
    "morita-inverse": 50,
    "horn-uniqueness": 50,
    "k0-extension": 70,
    "section-exact": 30,
    "relative-prism": 10,
    "csd-combinatorics": 5,
}


@pytest.mark.parametrize(
    "cid,suite,budget,exact",
    CRITERIA,
    ids=[f"{cid}-{suite}" for cid, suite, _, _ in CRITERIA],
)
def test_criterion(cid, suite, budget, exact):
    report = run_suite(suite, seed=42, eps=1e-9)
    verdict = "PASS" if report.ok else "FAIL"
    print(
        f"{cid} {suite}: {verdict} "
        f"({len(report.cases)} cases, worst residual {report.worst:.3e}, "
        f"{report.seconds:.1f}s)"
    )
    failed = [c.case for c in report.cases if not c.ok]
    assert report.ok, f"{suite} failed cases: {failed[:5]}"
    assert len(report.cases) >= MIN_CASES[suite]
    if exact:
        assert report.worst == 0.0
    else:
        assert report.worst <= 1e-9
    if budget is not None:
        assert report.seconds < budget, f"{suite} took {report.seconds:.1f}s"


EXACT = [row for row in CRITERIA if row[3]]


@pytest.mark.parametrize(
    "cid,suite,budget,exact", EXACT, ids=[f"{cid}-{suite}" for cid, suite, _, _ in EXACT]
)
def test_exact_criterion_at_seed_7(cid, suite, budget, exact):
    """The exact-arithmetic sweeps at a second seed: a change of float bits
    elsewhere must leave them exactly zero."""
    report = run_suite(suite, seed=7, eps=1e-9)
    assert report.ok, f"{suite} failed cases: {[c.case for c in report.cases if not c.ok][:5]}"
    assert len(report.cases) >= MIN_CASES[suite]
    assert report.worst == 0.0
    if budget is not None:
        assert report.seconds < budget, f"{suite} took {report.seconds:.1f}s"


def nan_copy(u):
    """The intertwiner u with every block entry NaN, built unchecked."""
    nan = [np.full(b.shape, np.nan, dtype=complex) for b in u.blocks]
    return CorrIso._trusted(u.src, u.dst, nan)


def test_horn_uniqueness_refuses_a_nan_refill(monkeypatch):
    """A refill whose recovered cell is NaN fails its case, and the case's
    residual is NaN, not the 0.0 that the builtin max(0.0, nan) gives."""
    real = acceptance.fill_inner_horn

    def nan_refill(horn, *, eps):
        s = real(horn, eps=eps)
        missing = tuple(x for x in range(4) if x != horn.k)
        cells = dict(s.cells)
        cells[missing] = nan_copy(s.cells[missing])
        return NCorrSimplex(s.algebras, s.edges, cells)

    monkeypatch.setattr(acceptance, "fill_inner_horn", nan_refill)
    (case,) = acceptance.suite_horn_uniqueness(trials=1).cases
    assert not case.ok and math.isnan(case.residual)


# Each judge below gathered its residuals with the builtin max, which drops
# a NaN that follows a number; each now fails the case and reports NaN.


def assert_nan_case(report):
    (case,) = report.cases
    assert not case.ok and math.isnan(case.residual)
    assert not report.ok and math.isnan(report.worst)


def test_iso_residuals_report_nan_blocks():
    a = make_algebra((2, 1))
    u = nan_copy(identity_iso(identity_corr(a)))
    assert all(math.isnan(r) for r in acceptance._iso_residuals(u))


def test_finish_keeps_a_nan_case_as_the_worst():
    cases = [CaseReport("a", True, 2e-15, 0.0), CaseReport("b", False, math.nan, 0.0)]
    assert math.isnan(acceptance._finish("x", cases, 0.0).worst)
    cases = [CaseReport("a", True, 2e-15, 0.0), CaseReport("b", True, 3e-15, 0.0)]
    assert repr(acceptance._finish("x", cases, 0.0).worst) == repr(3e-15)


def test_gamma_mult_refuses_a_nan_intertwiner(monkeypatch):
    real = acceptance.gamma_multiplicativity

    def nan_cell(psi, phi):
        return nan_copy(real(psi, phi))

    monkeypatch.setattr(acceptance, "gamma_multiplicativity", nan_cell)
    assert_nan_case(acceptance.suite_gamma_mult(trials=1))


def test_corner_unitary_refuses_a_nan_factorization(monkeypatch):
    real = acceptance.u_of_corr

    def nan_fact(corr):
        fact = real(corr)
        return dataclasses.replace(fact, iso=nan_copy(fact.iso))

    monkeypatch.setattr(acceptance, "u_of_corr", nan_fact)
    assert_nan_case(acceptance.suite_corner_unitary(trials=1))


def test_morita_refuses_a_nan_counit(monkeypatch):
    real = acceptance.equivalence_inverse

    def nan_counit(e, *, eps):
        w = real(e, eps=eps)
        return dataclasses.replace(w, counit_right=nan_copy(w.counit_right))

    monkeypatch.setattr(acceptance, "equivalence_inverse", nan_counit)
    assert_nan_case(acceptance.suite_morita(trials=1))


def test_nerve_coherence_refuses_a_nan_pentagon(monkeypatch):
    real = acceptance.pentagon_residual

    def nan_after_first(s, *ijkl, **kw):
        return real(s, *ijkl, **kw) if ijkl == (0, 0, 0, 0) else math.nan

    monkeypatch.setattr(acceptance, "pentagon_residual", nan_after_first)
    assert_nan_case(acceptance.suite_nerve_coherence(trials=1))


def test_subdivision_refuses_a_nan_connecting_hom(monkeypatch):
    real = acceptance.subdivision_functor

    def nan_hom(s, *, eps, check):
        sd = real(s, eps=eps, check=check)
        f = sd.homs[((0,), (0, 1))]
        nan = np.full(f.matrix.shape, np.nan)
        sd.homs[((0,), (0, 1))] = StarHom(f.src, f.dst, nan, f.mult_matrix)
        return sd

    monkeypatch.setattr(acceptance, "subdivision_functor", nan_hom)
    with np.errstate(invalid="ignore"):
        assert_nan_case(acceptance.suite_subdivision(trials=1))


def test_cli_iso_check_refuses_nan_blocks():
    """The checks corrlab validate reports for an intertwiner fail on NaN
    blocks, with NaN residuals, as the constructor does."""
    u = nan_copy(identity_iso(identity_corr(make_algebra((2, 1)))))
    report = _Sink([])
    report(_iso_faults(u, 1e-9))
    assert [text for text, _ in report.lines] == [
        "unitary: FAIL (residual nan)",
        "intertwining: FAIL (residual nan)",
    ]
    assert [type(err) for _, err in report.lines] == [NotUnitary, NotIntertwining]


# The CorrIso constructor and the judges share modules._iso_residuals, so a
# refused intertwiner carries the number a judge reports for its blocks.

MOVED = np.exp(0.3j) * np.eye(2, dtype=complex)
MOVED[0, 1] += 1e-6
SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.mark.parametrize(
    "block,error", [(MOVED, NotUnitary), (SWAP, NotIntertwining)], ids=["moved-1e-6", "swap"]
)
def test_constructor_and_judge_report_the_same_residual(block, error):
    ic = identity_corr(make_algebra((2, 1)))
    blocks = [block, np.eye(1, dtype=complex)]
    with pytest.raises(error) as err:
        CorrIso(ic, ic, blocks)
    r1, r2, r3 = acceptance._iso_residuals(CorrIso._trusted(ic, ic, blocks))
    want = worst_of((r1, r2)) if error is NotUnitary else r3
    assert want > 1e-9
    assert err.value.residual.hex() == want.hex()


def raise_on_second_call(monkeypatch):
    """Patch the gamma-mult cell builder to raise ValueError once."""
    real, calls = acceptance.gamma_multiplicativity, []

    def flaky(psi, phi):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected")
        return real(psi, phi)

    monkeypatch.setattr(acceptance, "gamma_multiplicativity", flaky)


def test_a_raising_case_fails_its_sweep(monkeypatch):
    raise_on_second_call(monkeypatch)
    report = acceptance.suite_gamma_mult(trials=3)
    assert [c.case for c in report.cases] == ["pair-000", "pair-001", "pair-002"]
    assert [c.ok for c in report.cases] == [True, False, True]
    assert report.cases[1].residual == math.inf
    assert not report.ok and report.worst == math.inf


def test_selftest_exits_1_on_a_raising_case(monkeypatch, capsys):
    raise_on_second_call(monkeypatch)
    assert main(["selftest", "--suite", "gamma-mult"]) == 1
    err = capsys.readouterr().err
    assert "gamma-mult: FAIL (200 cases, worst residual inf" in err
    assert "Traceback" not in err


# section-exact and csd-combinatorics run their own loops; a raising case
# fails there too, with exit 1 and no traceback.


def raise_value_error(*args, **kwargs):
    raise ValueError("injected")


@pytest.mark.parametrize(
    "suite,target", [("section-exact", "bar_F"), ("csd-combinatorics", "chain_face")]
)
def test_selftest_exits_1_when_a_looping_sweep_raises(monkeypatch, capsys, suite, target):
    monkeypatch.setattr(acceptance, target, raise_value_error)
    assert main(["selftest", "--suite", suite]) == 1
    err = capsys.readouterr().err
    assert f"{suite}: FAIL" in err and "worst residual inf" in err
    assert "Traceback" not in err


# The subdivision judge reads each hom's nonzero entries (StarHom.entries,
# algebra._entries for a hom given a matrix) and sums the products of listed entries
# (acceptance._product_residual); it must agree with the dense
# frob(X @ Y - Z) it replaces.


def sparse(rng, p, q, density):
    m = np.zeros((p, q), dtype=complex)
    mask = rng.random((p, q)) < density
    m[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    return m


def kernel(x, y, z):
    e = algebra._entries
    return acceptance._product_residual(e(x), e(y), e(z))


def dense(x, y, z):
    with np.errstate(invalid="ignore", over="ignore"):
        return frob(x @ y - z)


def test_product_residual_matches_the_dense_product():
    """Random sparse complex matrices with a zero row and column, empty
    shapes, identity factors and exact composites, to 1e-12 of the scale."""
    rng = np.random.default_rng(0)
    checked = 0
    for p, m, n in [(5, 7, 3), (0, 4, 3), (4, 0, 3), (4, 3, 0), (1, 1, 1), (16, 40, 9)]:
        for density in (0.0, 0.05, 0.3, 1.0):
            x, y, z = sparse(rng, p, m, density), sparse(rng, m, n, density), sparse(rng, p, n, density)
            if p and m:
                x[rng.integers(p)], x[:, rng.integers(m)] = 0, 0
            if m and n:
                y[rng.integers(m)], y[:, rng.integers(n)] = 0, 0
            for args in [(x, y, z), (x, y, x @ y), (np.eye(p), z, z), (x, np.eye(m), x)]:
                scale = frob(args[0]) * frob(args[1]) + frob(args[2]) + 1.0
                assert abs(kernel(*args) - dense(*args)) <= 1e-12 * scale
                checked += 1
    assert checked == 96


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["x", "y"])
def test_product_residual_is_nan_where_the_other_factor_is_zero(bad, where):
    """A non-finite entry of Y in a row that X annihilates (or of X in a
    column that meets a zero row of Y) makes the dense product NaN; a kernel
    that visits only products of two nonzero entries would miss it."""
    rng = np.random.default_rng(1)
    x, y = sparse(rng, 4, 5, 0.5), sparse(rng, 5, 3, 0.5)
    z = x @ y
    x[:, 2], y[2] = 0, 0
    if where == "x":
        x[1, 2] = bad
    else:
        y[2, 1] = bad
    assert math.isnan(dense(x, y, z))
    assert math.isnan(kernel(x, y, z))


def corrupt_third_case(monkeypatch, key, edit):
    """Patch the third subdivision a sweep draws (an n = 3 simplex): hom
    ``key``'s matrix through ``edit(sd, m)``, its multiplicities kept."""
    real, calls = acceptance.subdivision_functor, []

    def patched(s, *, eps, check):
        sd = real(s, eps=eps, check=check)
        calls.append(None)
        if len(calls) == 3:
            f = sd.homs[key]
            m = np.array(f.matrix)
            edit(sd, m)
            sd.homs[key] = StarHom(f.src, f.dst, m, f.mult_matrix)
        return sd

    monkeypatch.setattr(acceptance, "subdivision_functor", patched)


def first(mask):
    return tuple(np.argwhere(mask)[0])


def add_where_zero(sd, m):
    m[first(m == 0)] += 1e-6


def move_a_nonzero(sd, m):
    m[first(m != 0)] += 1e-6


def nan_in_an_annihilated_row(sd, m):
    # m is the identity of A_(1); f_(1),(1,2) kills one of its blocks
    (k,) = np.flatnonzero(~sd.homs[((1,), (1, 2))].matrix.any(axis=0))
    m[k, k] = np.nan


def inf_where_zero(sd, m):
    m[first(m == 0)] = np.inf


@pytest.mark.parametrize(
    "key,edit,nan",
    [
        (((0,), (0, 1)), add_where_zero, False),
        (((0,), (0, 1)), move_a_nonzero, False),
        (((1,), (1,)), nan_in_an_annihilated_row, True),
        (((0, 1), (0, 1, 2)), inf_where_zero, True),
    ],
    ids=["zero-plus-1e-6", "nonzero-plus-1e-6", "nan-in-annihilated-row", "inf"],
)
def test_subdivision_refuses_a_corrupted_connecting_hom(monkeypatch, key, edit, nan):
    corrupt_third_case(monkeypatch, key, edit)
    report = acceptance.suite_subdivision(trials=3)
    assert [c.ok for c in report.cases] == [True, True, False]
    resid = report.cases[2].residual
    assert math.isnan(resid) if nan else resid >= 1e-7


def test_subdivision_sweep_at_seed_7_peaks_under_48_mib():
    """The judge reads each connecting hom's entries, written from its
    Bratteli data, and builds no dense view: the seed-7 sweep, whose dense
    views took 408 MiB of traced peak when the judge scanned them, stays
    under 48 MiB."""
    tracemalloc.start()
    try:
        report = acceptance.suite_subdivision(seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("name", ["chain_face", "chain_degeneracy"])
def test_csd_refuses_a_map_corrupted_at_one_chain(monkeypatch, name):
    """d_0 (or s_0) of the one chain (0 | 01) answers with index 1's value;
    faces and degeneracies are shared between identity instances, and the
    sweep still fails."""
    real, target = getattr(acceptance, name), AugChain((0,), ((0, 1),))

    def corrupted(c, i):
        return real(c, 1) if (c, i) == (target, 0) else real(c, i)

    monkeypatch.setattr(acceptance, name, corrupted)
    report = acceptance.suite_combinatorics(trials=2)
    assert [c.ok for c in report.cases] == [True, False, True]
    assert 0 < report.cases[1].residual < math.inf

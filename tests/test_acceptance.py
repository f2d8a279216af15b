"""Acceptance gate: the ten verification sweeps at full scale.

Each criterion is one parametrized test, so a verbose run shows one
pass/fail line per criterion; the body also prints the suite's case count,
worst residual and wall time.  The time budgets in the table below are
asserted, as are exact-zero residuals for the integer-arithmetic sweeps.
"""

import dataclasses
import math

import numpy as np
import pytest

from corrlab import acceptance
from corrlab.acceptance import CaseReport, run_suite
from corrlab.algebra import StarHom, make_algebra
from corrlab.cli import _iso_checks, main
from corrlab.errors import NotIntertwining, NotUnitary
from corrlab.modules import CorrIso, identity_corr
from corrlab.nerve import NCorrSimplex, identity_iso

# (criterion, suite, time budget in seconds, exact-arithmetic suite)
CRITERIA = [
    ("c01", "gamma-mult", 30.0, False),
    ("c02", "nerve-coherence", 60.0, False),
    ("c03", "subdivision-functor", 120.0, False),
    ("c04", "corner-unitary", None, False),
    ("c05", "morita-inverse", None, False),
    ("c06", "horn-uniqueness", None, False),
    ("c07", "k0-extension", 120.0, True),
    ("c08", "section-exact", 40.0, True),
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

    def nan_cell(psi, phi, *, eps):
        return nan_copy(real(psi, phi, eps=eps))

    monkeypatch.setattr(acceptance, "gamma_multiplicativity", nan_cell)
    assert_nan_case(acceptance.suite_gamma_mult(trials=1))


def test_corner_unitary_refuses_a_nan_factorization(monkeypatch):
    real = acceptance.u_of_corr

    def nan_fact(corr, *, eps):
        fact = real(corr, eps=eps)
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

    def nan_after_first(s, *ijkl):
        return real(s, *ijkl) if ijkl == (0, 0, 0, 0) else math.nan

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


def test_cli_iso_check_refuses_nan_blocks(capsys):
    u = nan_copy(identity_iso(identity_corr(make_algebra((2, 1)))))
    assert not _iso_checks(u, 1e-9)
    assert capsys.readouterr().out == (
        "unitary: FAIL (residual nan)\nintertwining: FAIL (residual nan)\n"
    )


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
    want = acceptance._worst((r1, r2)) if error is NotUnitary else r3
    assert want > 1e-9
    assert err.value.residual.hex() == want.hex()


def raise_on_second_call(monkeypatch):
    """Patch the gamma-mult cell builder to raise ValueError once."""
    real, calls = acceptance.gamma_multiplicativity, []

    def flaky(psi, phi, *, eps):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected")
        return real(psi, phi, eps=eps)

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

"""Acceptance suite: one test per numbered criterion, printed pass/fail lines.

Each test drives the corresponding criterion of :mod:`stefanlab.verify` at
its stated tolerance against the shared session context, prints the
criterion line, and asserts the outcome.  Two more tests check that a
criterion's time budget counts into its verdict and that criteria 2 and 3
solve each drift parameter's eigenpairs once.

Criterion 3 is marked as a strict expected failure: the unit-norm
eigenpair's boundary slope obeys an exact first-order law with constant
sqrt(2 lam_k)/4 (about 0.85, 1.95, 3.06 for the first three modes), so the
stated 0.5 ceiling cannot be met by any correct implementation.  The
criterion still runs and reports the measured constants; if it ever starts
passing, something changed and the strict marker will flag it.
"""

import itertools

import pytest

from stefanlab import spectrum, verify


def _check(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_01_spectral_table(ctx):
    _check(verify.criterion_1(ctx))


def test_criterion_02_perturbation_law(ctx):
    _check(verify.criterion_2(ctx))


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the measured drift constant of the "
           "unit-norm eigenpair slope is sqrt(2 lam_k)/4 >= 0.85 > 0.5 "
           "(Rellich identity); see the decisions ledger and README",
)
def test_criterion_03_boundary_slopes(ctx):
    _check(verify.criterion_3(ctx))


def test_criterion_04_scaling_identity(ctx):
    _check(verify.criterion_4(ctx))


def test_criterion_05_conservation(ctx):
    _check(verify.criterion_5(ctx))


def test_criterion_06_terminal_radius(ctx):
    _check(verify.criterion_6(ctx))


def test_criterion_07_rate_law_ground(ctx):
    _check(verify.criterion_7(ctx))


def test_criterion_08_rate_law_excited(ctx):
    _check(verify.criterion_8(ctx))


def test_criterion_09_modulation_fidelity(ctx):
    _check(verify.criterion_9(ctx))


def test_criterion_10_energy_bootstrap(ctx):
    _check(verify.criterion_10(ctx))


def test_criterion_11_oracle_equivalence(ctx):
    _check(verify.criterion_11(ctx))


def test_time_budget_counts_into_the_verdict(ctx, monkeypatch):
    # criterion 1 appears to take 2 s against its 1 s budget
    ticks = itertools.chain([0.0], itertools.repeat(2.0))
    monkeypatch.setattr(verify.time, "perf_counter", lambda: next(ticks))
    result = verify.criterion_1(ctx)
    assert result.passed is False
    assert result.details.endswith(", time budget 1s")
    assert result.seconds == 2.0


def test_criteria_2_and_3_share_their_eigensolves(monkeypatch):
    # criterion 3 sweeps b = 0, +-0.005, +-0.01 and +-0.02, of which
    # criterion 2 solved b = 0, 0.005, 0.01 and 0.02 already; a context per
    # criterion, each solving its own, gives the same details
    alone = [verify.criterion_2(verify.VerificationContext(), quick=True),
             verify.criterion_3(verify.VerificationContext())]
    solve = spectrum.eigenpairs
    calls = []

    def counted(grid, w, count):
        calls.append((w.b, count))
        return solve(grid, w, count)

    monkeypatch.setattr(spectrum, "eigenpairs", counted)
    shared = verify.VerificationContext()
    both = [verify.criterion_2(shared, quick=True), verify.criterion_3(shared)]
    assert calls == [(b, 3) for b in (0.0, 0.005, 0.01, 0.02,
                                      -0.02, -0.01, -0.005)]
    assert [c.details for c in both] == [c.details for c in alone]

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 10b and 11b are implemented exactly as stated and are expected to
fail: the exact dynamic-programming and generating-function analysis of the
underlying processes (see notes in the repository root README and the test
comments below) shows the stated targets are not attainable by any correct
implementation.  Everything else passes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from kmmix import bound_coefficients, build_measure, drift_identity_residual, \
    hitting_pmf_exact_curve, hitting_pmf_multinomial, integrate_psi, kernel_matrix, \
    kernel_oracle, q_bracket_matrix, q_log_sup, rate_fit, reversibility, \
    simulate_classical, simulate_modified, spectral_integral, stationary_hitting_survival, \
    t_mix, tv_curve, tv_envelope, tv_oracle
from kmmix.cli import DEFAULT_SEED, main

import oracles
from conftest import GRID, EXAMPLE, RANDOM_CHAINS

REPLICAS = 100_000
HORIZON = 100


def report(num, name, passed, detail=""):
    print(f"[ACCEPTANCE] criterion {num:>3}: {'PASS' if passed else 'FAIL'} "
          f"{name} {detail}")


@pytest.fixture(scope="module")
def classical_curve():
    return simulate_classical(EXAMPLE, HORIZON, REPLICAS, DEFAULT_SEED)


@pytest.fixture(scope="module")
def modified_curve():
    return simulate_modified(EXAMPLE, HORIZON, REPLICAS, DEFAULT_SEED)


def test_c01_worked_example_constants():
    co = bound_coefficients(EXAMPLE)
    errs = {
        "A": abs(co.A - 91 / 171),
        "B": abs(co.B - 39 / 28),
        "alpha": abs(co.alpha - 9 / 10),
        "beta": abs(co.beta - 7 / 11),
    }
    passed = all(v <= 1e-12 for v in errs.values())
    report(1, "worked-example envelope constants", passed, f"max err {max(errs.values()):.2e}")
    assert passed, errs


def test_c02_measure_sanity():
    # every worst error reduces with np.max, so a NaN fails
    totals, acs = [], []
    for c in GRID:
        m = build_measure(c)
        ac = integrate_psi(m, lambda x: np.ones_like(x), atoms=False)
        totals.append(abs(m.atom1[1] + m.atom2[1] + ac - 1.0))
        acs.append(abs(ac - c.p / (c.q + c.r)))
    worst_total, worst_ac = float(np.max(totals)), float(np.max(acs))
    m = build_measure(EXAMPLE)
    ac = integrate_psi(m, lambda x: np.ones_like(x), atoms=False)
    example_err = float(np.max([abs(m.atom1[1] - 8 / 19), abs(m.atom2[1] - 91 / 190),
                                abs(ac - 1 / 10)]))
    passed = worst_total <= 1e-10 and worst_ac <= 1e-10 and example_err <= 1e-10
    report(2, f"spectral measure sanity on {len(GRID)} chains", passed,
           f"worst total {worst_total:.2e}, worst ac {worst_ac:.2e}, example {example_err:.2e}")
    assert passed


def test_c03_orthogonality():
    errors = []
    for c in [EXAMPLE] + RANDOM_CHAINS:
        m = build_measure(c)
        rev = reversibility(c)
        for mm in range(21):
            for nn in range(21):
                val = integrate_psi(
                    m, lambda x: np.prod(q_bracket_matrix(c, max(mm, nn), x)[[mm, nn]], axis=0),
                    log_sup=q_log_sup(c, mm, nn))
                target = 1.0 if mm == nn else 0.0
                errors.append(abs(float(rev.pi(nn)) * val - target))
    worst = float(np.max(errors))  # a NaN fails
    passed = worst <= 1e-8
    report(3, "orthonormality of Q under psi (degrees to 20, 6 chains)", passed,
           f"worst {worst:.2e}")
    assert passed


def test_c04_kernel_equivalence():
    # entry by entry: one kernel_matrix call per (i, j) over every t, its
    # pass sized for that entry alone
    dp = kernel_oracle(EXAMPLE, range(61), 12)
    worst = float(np.max([np.abs(kernel_matrix(EXAMPLE, range(61), max(i, j), rows=[i], cols=[j])
                                 [:, 0, 0] - dp[:, i, j]) for i in range(13) for j in range(13)]))
    passed = worst <= 1e-9
    report(4, "spectral kernel vs DP oracle (t<=60, i,j<=12)", passed, f"worst {worst:.2e}")
    assert passed


def test_c05_tv_equivalence_and_sandwich():
    worst_eq = float(np.max([abs(tv_curve(EXAMPLE, [t])[0] - tv_oracle(EXAMPLE, t))
                             for t in range(61)]))  # a NaN fails
    sandwich_ok = True
    for t, upper, lower, valid in zip(range(101), *tv_envelope(EXAMPLE, range(101))):
        val = tv_curve(EXAMPLE, [t])[0]
        if not val <= upper or (valid and not val >= lower):  # a NaN fails
            sandwich_ok = False
    passed = worst_eq <= 1e-8 and sandwich_ok
    report(5, "TV series vs oracle and envelope sandwich", passed,
           f"worst |exact-oracle| {worst_eq:.2e}, sandwich {'ok' if sandwich_ok else 'violated'}")
    assert passed


def test_c06_rate_recovery():
    vals = np.array([tv_curve(EXAMPLE, [t])[0] for t in range(30, 81)])
    slope = oracles.log_slope(vals, 0, 50)
    rel = abs(slope - math.log(0.9)) / abs(math.log(0.9))
    passed = rel <= 0.01
    report(6, "TV log-slope over t in [30,80] vs log(0.9)", passed, f"rel dev {rel:.2e}")
    assert passed


def test_c07_route_equivalence():
    # interval: I_t(n) = p_t(0, n)/pi_n - w1, kernel_matrix's entries;
    # contour: spectral_integral
    interval = kernel_matrix(EXAMPLE, range(61), 20, rows=[0])[:, 0] \
        / reversibility(EXAMPLE).pi(np.arange(21)) - build_measure(EXAMPLE).atom1[1]
    worst_ratio = float(np.max([abs(interval[t, n] - spectral_integral(EXAMPLE, t, n))
                                / (1e-8 * max(1.0, (7 / 11) ** t * 9.0 ** (n / 2.0)))
                                for t in range(61) for n in range(21)]))  # a NaN fails
    passed = worst_ratio <= 1.0
    report(7, "interval vs contour spectral integral (t<=60, n<=20)", passed,
           f"worst |diff|/tol {worst_ratio:.2e}")
    assert passed


def test_c08_mixing_time_scaling():
    ok_order = all(
        t_mix(EXAMPLE, eps, method="exact") <= t_mix(EXAMPLE, eps, method="bound")
        for eps in (1e-2, 1e-4, 1e-6))
    ratio = t_mix(EXAMPLE, 1e-12) / t_mix(EXAMPLE, 1e-6)
    ok_ratio = abs(ratio - 2.0) <= 0.2
    passed = ok_order and ok_ratio
    report(8, "mixing-time bound dominance and log-eps scaling", passed,
           f"t(eps^2)/t(eps) = {ratio:.4f}")
    assert passed


def test_c09_drift_identity():
    worst = float(np.max([abs(drift_identity_residual(c, x))  # relative to V(x); a NaN fails
                          for c in GRID for x in range(51)]))
    passed = worst <= 1e-12
    report(9, "geometric drift identity (x<=50, full grid)", passed, f"worst rel {worst:.2e}")
    assert passed


def test_c10a_hitting_pmf_cross_check():
    errors, sample = [], None
    for n in range(1, 11):
        curve = hitting_pmf_exact_curve(EXAMPLE, n, 40)
        for k in range(n, 41):
            lhs = hitting_pmf_multinomial(EXAMPLE, n, k)
            rhs = (k / n) * curve[k]
            errors.append(abs(lhs - rhs))
            if (n, k) == (2, 9):
                sample = (lhs, curve[k])
    worst = float(np.max(errors))  # a NaN fails
    passed = worst <= 1e-12
    report("10a", "multinomial pmf = (k/n) x first-passage pmf", passed,
           f"worst {worst:.2e}; sample n=2,k=9: multinomial {sample[0]:.6e}, exact {sample[1]:.6e}")
    assert passed


def test_c10b_stationary_tail_slope():
    """Stated target: DP stationary-start tail log-slope within 2% of
    log(7/11) over t in [40, 100].

    The exact absorbing-chain DP gives a slope about 4.6% steep of
    log(7/11): the survival carries a t^(-3/2) spectral-edge prefactor that
    the pure geometric-order model drops, and over this window the prefactor
    contributes about -1.5 * d(log t)/dt of extra slope.  The 2% target is
    not attainable by a correct implementation; kept as stated."""
    surv = stationary_hitting_survival(EXAMPLE, 100)
    slope = oracles.log_slope(surv, 40, 100)
    rel = abs(slope - math.log(7 / 11)) / abs(math.log(7 / 11))
    passed = rel <= 0.02
    report("10b", "stationary hitting tail slope vs log(7/11)", passed,
           f"rel dev {rel:.4f} (slope {slope:.6f} vs {math.log(7/11):.6f})")
    assert passed, (
        f"relative deviation {rel:.4f} exceeds 0.02: exact DP slope includes the "
        "t^(-3/2) first-passage prefactor; see this test's docstring")


def test_c10b_true_slope_carries_the_edge_prefactor():
    """The value behind c10b: the exact slope is log(7/11) plus the
    least-squares slope of the -1.5 log t prefactor over the same window."""
    slope = oracles.log_slope(stationary_hitting_survival(EXAMPLE, 100), 40, 100)
    t = np.arange(40, 101, dtype=float)
    target = math.log(7 / 11) + float(np.polyfit(t, -1.5 * np.log(t), 1)[0])
    assert abs(slope - target) <= 0.005 * abs(target)


def test_c11a_coupling_inequality(classical_curve, modified_curve):
    ok = True
    worst_margin = math.inf
    for t in range(HORIZON + 1):
        tv = tv_oracle(EXAMPLE, t)
        for curve in (classical_curve, modified_curve):
            margin = curve.survival[t] + 3.0 * curve.stderr[t] - tv
            worst_margin = min(worst_margin, margin)
            if margin < 0:
                ok = False
    report("11a", "coupling inequality tv <= survival + 3 sigma (both modes)",
           ok, f"worst margin {worst_margin:.2e}")
    assert ok


def test_c11b_modified_rate_ci(modified_curve):
    """Stated target: modified-coupling fitted rate within its 95% CI of 0.9.

    The modified coupling's survival decays at q(q+p-r)/(q-r) = 81/88
    (0.9204...), not q/(q+r) = 0.9: the boundary dance persists with
    probability q per step but also escapes upward with probability p, and
    the escaped pair survives its excursion before re-entering the dance.
    The two-state geometric picture holds only in the p -> 0 limit.  Exact
    pair-process DP confirms the windowed slope, so a fitted CI of width
    about 1e-3 cannot contain 0.9; kept as stated."""
    fit = rate_fit(modified_curve, (20, HORIZON))
    ci = 1.96 * fit.stderr
    passed = abs(fit.rate - 0.9) <= ci
    report("11b", "modified-coupling fitted rate CI covers 0.9", passed,
           f"rate {fit.rate:.5f} +- {fit.stderr:.5f}")
    assert passed, (
        f"fitted rate {fit.rate:.5f} (95% CI +-{ci:.5f}) excludes 0.9: the "
        "coupling's true decay rate is q(q+p-r)/(q-r) = 81/88; see this test's docstring")


def test_c11b_true_rate_is_81_over_88():
    """The value behind c11b: the exact pair-process DP decays at 81/88."""
    surv = oracles.coupling_survival_dp(EXAMPLE, HORIZON, synchronized=True)
    assert math.exp(oracles.log_slope(surv, 20, HORIZON)) == pytest.approx(81 / 88, abs=1e-8)


def test_c12_cli_determinism(capsys):
    args = ["couple", "--p", "1/11", "--q", "9/11", "--mode", "modified",
            "--horizon", "60", "--replicas", str(REPLICAS), "--format", "csv"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    args_tv = ["tv", "--p", "1/11", "--q", "9/11", "--t-max", "25", "--format", "json"]
    main(args_tv)
    third = capsys.readouterr().out
    main(args_tv)
    fourth = capsys.readouterr().out
    passed = (first == second) and (third == fourth) and first and third
    report(12, "byte-identical CLI output for identical configuration", bool(passed))
    assert passed

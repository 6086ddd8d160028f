import math

import numpy as np
import pytest

from kmmix import ChainParams, ConvergenceError, QuadratureConfig, TailControl, \
    bound_coefficients, build_measure, contour_envelope, kernel_spectral, reversibility, \
    spectral_integral, t_mix, tv_curve, tv_exact, tv_lower, tv_oracle, tv_oracle_curve, \
    tv_upper
from kmmix.chain import DistributionVector, evolve
from kmmix.mixing import _pole_pair, _series_cutoff

import oracles


class TestBoundCoefficients:
    def test_worked_example_constants(self, example_chain):
        co = bound_coefficients(example_chain)
        assert co.A == pytest.approx(91 / 171, abs=1e-12)
        assert co.B == pytest.approx(39 / 28, abs=1e-12)
        assert co.alpha == pytest.approx(9 / 10, abs=1e-12)
        assert co.beta == pytest.approx(7 / 11, abs=1e-12)
        assert co.m == pytest.approx(9 / 10, abs=1e-12)

    def test_m_below_one_and_positive_constants(self, chain_grid, random_chains):
        for c in chain_grid + random_chains:
            co = bound_coefficients(c)
            assert 0.0 < co.alpha < 1.0 and 0.0 < co.beta < 1.0 and co.m < 1.0
            assert 0.0 < co.A < math.inf and 0.0 < co.B < math.inf

    def test_beta_identity(self, chain_grid):
        # beta = 1 - (sqrt(q) - sqrt(p))^2
        for c in chain_grid:
            co = bound_coefficients(c)
            assert co.beta == pytest.approx(
                1.0 - (math.sqrt(c.q) - math.sqrt(c.p)) ** 2, rel=1e-13)

    def test_envelope_ties_to_B(self, chain_grid):
        for c in chain_grid:
            co = bound_coefficients(c)
            m_env = contour_envelope(c)
            expect = 0.5 * m_env * (c.p / (c.q + c.r)) * (1.0 + 1.0 / (c.sqrt_pq - c.p))
            assert co.B == pytest.approx(expect, rel=1e-14)

    def test_pole_pair_simplifies(self, chain_grid):
        # z_a = sqrt(p/q), z_b = -sqrt(pq)/(q+r), both strictly inside |z| = 1
        for c in chain_grid:
            za, zb = _pole_pair(c)
            assert za == pytest.approx(math.sqrt(c.p / c.q), rel=1e-12)
            assert zb == pytest.approx(-c.sqrt_pq / (c.q + c.r), rel=1e-12)
            assert abs(za) < 1.0 and abs(zb) < 1.0


class TestSpectralIntegral:
    def test_t0_n0_total_mass_minus_top_atom(self, example_chain):
        for route in ("interval", "contour"):
            val = spectral_integral(example_chain, 0, 0, route=route)
            assert val == pytest.approx(11 / 19, abs=1e-10)

    def test_t0_positive_degree_orthogonality(self, example_chain):
        for n in (1, 2, 5, 9):
            for route in ("interval", "contour"):
                val = spectral_integral(example_chain, 0, n, route=route)
                assert val == pytest.approx(-8 / 19, abs=1e-9)

    def test_route_agreement_grid(self, example_chain):
        for t in range(0, 61, 6):
            for n in range(0, 21, 5):
                spectral_integral(example_chain, t, n, route="both")  # raises on mismatch

    def test_contour_node_doubling_stable(self, example_chain):
        for (t, n) in ((0, 0), (10, 4), (40, 15), (60, 20)):
            m0 = 2 * (t + n) + 64
            a = spectral_integral(example_chain, t, n, route="contour", contour_node_count=m0)
            b = spectral_integral(example_chain, t, n, route="contour", contour_node_count=2 * m0)
            assert abs(a - b) <= 1e-10

    def test_rejects_bad_route(self, example_chain):
        with pytest.raises(ValueError, match="route"):
            spectral_integral(example_chain, 1, 1, route="spiral")

    def test_routes_agree_with_poles_near_circle(self):
        # q barely above p pushes a contour pole to sqrt(p/q) ~ 1; the
        # default node count must grow to damp the inner aliases
        for c in (ChainParams(0.30, 0.38, 0.32), ChainParams(0.32, 0.34, 0.34)):
            for (t, n) in ((0, 0), (10, 5), (25, 12)):
                spectral_integral(c, t, n, route="both")


class TestTvExact:
    def test_t0_worked_example(self, example_chain):
        assert tv_exact(example_chain, 0) == pytest.approx(11 / 19, abs=1e-10)

    def test_matches_oracle_through_60(self, example_chain):
        for t in range(61):
            assert tv_exact(example_chain, t) == pytest.approx(
                tv_oracle(example_chain, t), abs=1e-8)

    def test_matches_oracle_other_chains(self, chain_grid):
        for c in chain_grid[::6]:
            for t in (0, 3, 17, 45):
                assert tv_exact(c, t) == pytest.approx(tv_oracle(c, t), abs=1e-8)

    def test_sandwich_through_100(self, example_chain):
        for t in range(101):
            val = tv_exact(example_chain, t)
            assert val <= tv_upper(example_chain, t)
            lower, valid = tv_lower(example_chain, t)
            if valid:
                assert lower <= val

    def test_series_cap_diagnostic(self, example_chain):
        ctl = TailControl(series_tol=1e-300, n_cap=3)
        with pytest.raises(ConvergenceError) as info:
            tv_exact(example_chain, 0, ctl=ctl)
        assert info.value.achieved_bound > 0.0
        with pytest.raises(ConvergenceError) as info:
            tv_curve(example_chain, [4, 0, 9], ctl=ctl)
        assert info.value.achieved_bound > 0.0

    def test_single_pass_without_doublings(self, example_chain):
        cfg = QuadratureConfig(max_doublings=0)
        assert tv_exact(example_chain, 7, cfg=cfg) == pytest.approx(
            tv_oracle(example_chain, 7), abs=1e-8)


NEAR_CRITICAL = ChainParams(0.3, 0.32, 0.38)


def _series_cutoff_scan(chain, co, t, ctl):
    """The cutoff by scanning N upward from 0, one tail evaluation per step."""
    p, q, r = chain.p, chain.q, chain.r
    x = p / (q + r)
    y = math.sqrt(p / q)
    w2 = ((1.0 + q - p) * (q + r) - q) / ((1.0 + q - p) * (q + r))
    amp_atom = 0.5 * w2 * co.alpha ** t / p / (1.0 - x)
    amp_cont = 0.5 * contour_envelope(chain) * x * co.beta ** t / p / (1.0 - y)
    tol = max(min(ctl.series_tol, 0.05 * co.B * co.beta ** t), 5e-324)
    n_cut = 0
    while True:
        tail = amp_atom * x ** (n_cut + 1) + amp_cont * y ** (n_cut + 1)
        if tail <= tol:
            return n_cut, tail
        n_cut += 1
        if n_cut > ctl.n_cap:
            raise ConvergenceError(f"series cutoff exceeded n_cap={ctl.n_cap} at t={t}", tail)


def _cutoff_or_error(chain, co, t, ctl, cutoff):
    try:
        return cutoff(chain, co, t, ctl)
    except ConvergenceError as exc:
        return str(exc), exc.achieved_bound


class TestSeriesCutoff:
    def test_matches_scan(self, chain_grid):
        for c in chain_grid + [NEAR_CRITICAL]:
            co = bound_coefficients(c)
            for t in (0, 1, 7, 40, 300, 5000):
                for tol in (1e-6, 1e-12, 1e-20, 1e-300):
                    for n_cap in (100_000, 25, 1):
                        ctl = TailControl(series_tol=tol, n_cap=n_cap)
                        got = _cutoff_or_error(c, co, t, ctl, _series_cutoff)
                        want = _cutoff_or_error(c, co, t, ctl, _series_cutoff_scan)
                        assert got == want, (c, t, tol, n_cap)

    def test_cap_error_carries_scan_bound(self):
        # q - p = 1e-5: the sqrt(p/q) series needs more than n_cap = 1e5 terms
        c = ChainParams(0.3, 0.30001, 0.39999)
        co, ctl = bound_coefficients(c), TailControl()
        got = _cutoff_or_error(c, co, 20, ctl, _series_cutoff)
        assert isinstance(got[0], str) and "n_cap=100000" in got[0]
        assert got == _cutoff_or_error(c, co, 20, ctl, _series_cutoff_scan)


class TestTailControl:
    @pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
    def test_series_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="series_tol must be positive"):
            TailControl(series_tol=tol)


class TestTvCurve:
    def test_matches_oracle_on_grid(self, chain_grid):
        for c in chain_grid + [NEAR_CRITICAL]:
            for t, (exact, oracle) in enumerate(zip(tv_curve(c, range(41)),
                                                    tv_oracle_curve(c, 40))):
                assert abs(exact - oracle) <= 1e-8, (c, t)

    def test_unsorted_and_duplicate_times(self, example_chain):
        for c in (example_chain, NEAR_CRITICAL):
            ts = [17, 3, 40, 3, 0, 17, 25, 120]
            for t, value in zip(ts, tv_curve(c, ts)):
                assert value == pytest.approx(tv_exact(c, t), rel=1e-12, abs=0.0)

    def test_rejects_empty_and_negative_times(self, example_chain):
        for ts in ([], [3, -1]):
            with pytest.raises(ValueError):
                tv_curve(example_chain, ts)


class TestEnvelopes:
    def test_upper_t10_frozen_fraction_value(self, example_chain):
        # (91/171)(9/10)^10 + (39/28)(7/11)^10 evaluated in exact arithmetic
        assert tv_upper(example_chain, 10) == pytest.approx(0.2007231345024958, abs=1e-12)

    def test_lower_t10_frozen_fraction_value(self, example_chain):
        value, valid = tv_lower(example_chain, 10)
        assert valid
        assert value == pytest.approx(0.17038491285539895, abs=1e-12)

    def test_lower_invalid_when_beta_dominates(self):
        c = ChainParams(0.05, 0.15, 0.80)   # alpha = 3/19 << beta
        value, valid = tv_lower(c, 10)
        assert not valid

    def test_lower_validity_requires_positive_value(self, example_chain):
        value, valid = tv_lower(example_chain, 0)
        assert value < 0.0 and not valid


class TestTMix:
    def test_exact_below_bound(self, example_chain):
        for eps in (1e-2, 1e-4, 1e-6):
            exact = t_mix(example_chain, eps, method="exact")
            bound = t_mix(example_chain, eps, method="bound")
            assert exact <= bound

    def test_bound_is_first_crossing(self, example_chain):
        for eps in (1e-2, 1e-5):
            t = t_mix(example_chain, eps, method="bound")
            assert tv_upper(example_chain, t) <= eps
            assert t == 0 or tv_upper(example_chain, t - 1) > eps

    def test_exact_is_first_crossing(self, example_chain):
        eps = 1e-3
        t = t_mix(example_chain, eps)
        assert tv_exact(example_chain, t) <= eps
        assert tv_exact(example_chain, t - 1) > eps

    def test_single_term_inversion_sanity(self, example_chain):
        # when the alpha term dominates, the bound crossing inverts one geometric
        co = bound_coefficients(example_chain)
        for eps in (1e-6, 1e-9):
            t = t_mix(example_chain, eps, method="bound")
            approx = math.ceil(math.log(eps / co.A) / math.log(co.alpha))
            assert abs(t - approx) <= 1

    def test_scaling_ratio_near_two(self, example_chain):
        t1 = t_mix(example_chain, 1e-6)
        t2 = t_mix(example_chain, 1e-12)
        assert abs(t2 / t1 - 2.0) <= 0.2

    def test_eps_domain(self, example_chain):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                t_mix(example_chain, eps)


class TestKernelSpectral:
    def test_identity_at_t0(self, example_chain):
        for i in (0, 1, 4, 9):
            for j in (0, 1, 4, 9):
                expect = 1.0 if i == j else 0.0
                assert kernel_spectral(example_chain, 0, i, j) == pytest.approx(
                    expect, abs=1e-10)

    def test_forced_return_probability(self, chain_grid):
        # the only length-2 loop at the origin is 0 -> 1 -> 0
        for c in chain_grid[::4]:
            assert kernel_spectral(c, 2, 0, 0) == pytest.approx(c.q, abs=1e-10)

    def test_long_run_reaches_stationarity(self, example_chain):
        rev = reversibility(example_chain)
        for j in (0, 1, 3):
            assert kernel_spectral(example_chain, 200, 0, j) == pytest.approx(
                float(rev.nu(j)), abs=1e-8)

    def test_matches_dp_oracle_subset(self, example_chain):
        for i in (0, 3, 8, 12):
            mu = DistributionVector.point(i)
            for t in range(31):
                if t:
                    mu = evolve(example_chain, mu, 1)
                for j in (0, 2, 7, 12):
                    assert kernel_spectral(example_chain, t, i, j) == pytest.approx(
                        mu.prob(j), abs=1e-9)

    def test_row_sums_to_one(self, example_chain):
        total = sum(kernel_spectral(example_chain, 7, 2, j) for j in range(30))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestDecayRate:
    def test_log_slope_recovers_mixing_rate(self, example_chain):
        vals = np.array([tv_exact(example_chain, t) for t in range(30, 81)])
        slope = oracles.log_slope(vals, 0, 50)
        assert abs(slope - math.log(0.9)) <= 0.01 * abs(math.log(0.9))

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from kmmix import ChainParams, ConvergenceError, QuadratureConfig, QuadratureError, \
    RegimeError, TailControl, bound_coefficients, build_measure, contour_envelope, integrate_psi, \
    kernel_matrix, kernel_spectral, reversibility, spectral_integral, t_mix, tv_curve, \
    tv_lower, tv_oracle, tv_oracle_curve, tv_upper
from kmmix import mixing
from kmmix.chain import DistributionVector, evolve
from kmmix.mixing import _cutoff_rule, _pole_pair, tv_quadrature
from kmmix.spectral import NODE_CAP, theta_nodes

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

    def test_rejects_bad_arguments(self, example_chain):
        for t, n in ((2.5, 1), (2, 1.5), (-1, 0), (0, -2)):
            with pytest.raises(ValueError, match="nonnegative integers"):
                spectral_integral(example_chain, t, n)
        for count in (0, -4):
            with pytest.raises(ValueError, match="contour_node_count"):
                spectral_integral(example_chain, 3, 2, route="contour", contour_node_count=count)

    def test_interval_route_is_the_kernel_entry(self, example_chain):
        # both read entry (0, n) of one quadrature core; the atoms are added
        # in a different order, so they agree to a few ulps of the summands
        for c in (example_chain, NEAR_CRITICAL):
            w1 = build_measure(c).atom1[1]
            for t in (0, 1, 7, 30):
                for n in (0, 1, 4, 12):
                    pi_n = reversibility(c).pi(n)
                    value = spectral_integral(c, t, n, route="interval")
                    want = kernel_matrix(c, [t], n, rows=[0], cols=[n])[0, 0, 0]
                    ulp = np.spacing(pi_n * (w1 + abs(value)))
                    assert abs(pi_n * (w1 + value) - want) <= 4 * ulp, (c, t, n)

    def test_routes_agree_with_poles_near_circle(self):
        # q barely above p pushes a contour pole to sqrt(p/q) ~ 1; the
        # default node count must grow to damp the inner aliases
        for c in (ChainParams(0.30, 0.38, 0.32), ChainParams(0.32, 0.34, 0.34)):
            for (t, n) in ((0, 0), (10, 5), (25, 12)):
                spectral_integral(c, t, n, route="both")


class TestTvExact:
    def test_t0_worked_example(self, example_chain):
        assert tv_curve(example_chain, [0])[0] == pytest.approx(11 / 19, abs=1e-10)

    def test_matches_oracle_through_60(self, example_chain):
        for t in range(61):
            assert tv_curve(example_chain, [t])[0] == pytest.approx(
                tv_oracle(example_chain, t), abs=1e-8)

    def test_matches_oracle_other_chains(self, chain_grid):
        for c in chain_grid[::6]:
            for t in (0, 3, 17, 45):
                assert tv_curve(c, [t])[0] == pytest.approx(tv_oracle(c, t), abs=1e-8)

    def test_sandwich_through_100(self, example_chain):
        for t in range(101):
            val = tv_curve(example_chain, [t])[0]
            assert val <= tv_upper(example_chain, t)
            lower, valid = tv_lower(example_chain, t)
            if valid:
                assert lower <= val

    def test_series_cap_diagnostic(self, example_chain):
        ctl = TailControl(series_tol=1e-300, n_cap=3)
        with pytest.raises(ConvergenceError) as info:
            tv_curve(example_chain, [0], ctl=ctl)
        assert info.value.achieved_bound > 0.0
        with pytest.raises(ConvergenceError) as info:
            tv_curve(example_chain, [4, 0, 9], ctl=ctl)
        assert info.value.achieved_bound > 0.0

    def test_single_pass_without_doublings(self, example_chain):
        cfg = QuadratureConfig(node_count=64)  # an override: one pass at 64 nodes
        assert tv_curve(example_chain, [7], cfg=cfg)[0] == pytest.approx(
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


def _series_cutoff(chain, co, t, ctl):
    return _cutoff_rule(chain, co, ctl)(t)


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


    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300])
    @pytest.mark.parametrize("ts", [range(501), [500, 3, 41, 3, 0, 260, 7, 8, 1999, 9]],
                             ids=["dense", "sparse"])
    def test_warm_started_cuts_equal_cold_ones(self, chain_grid, tol, ts):
        # tv_quadrature hands each sorted t's N to the next t as its guess
        for c in chain_grid + [NEAR_CRITICAL, ChainParams(0.3, 0.305, 0.395)]:
            ctl = TailControl(series_tol=tol)
            cold = _cutoff_rule(c, bound_coefficients(c), ctl)
            cuts = tv_quadrature(c, ts, ctl)[0]
            assert cuts == {t: cold(t)[0] for t in sorted(set(ts))}, c

    def test_a_wrong_guess_falls_back_to_the_search(self, example_chain):
        cutoff = _cutoff_rule(example_chain, bound_coefficients(example_chain), TailControl())
        want = cutoff(40)
        assert all(cutoff(40, near) == want for near in (0, want[0] - 1, want[0] + 1, 10 ** 4))
        assert cutoff(40, want[0]) == want


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

    def test_relative_to_exact_rational_dp_to_500(self, example_chain):
        ctl = TailControl(series_tol=1e-300)
        ts = [0, 1, 2, 10, 60, 150, 300, 450, 499, 500]
        for t, value in zip(ts, tv_curve(example_chain, ts, ctl=ctl)):
            exact = float(oracles.tv_by_fraction(Fraction(1, 11), Fraction(9, 11),
                                                 Fraction(1, 11), t))
            assert abs(value - exact) <= 1e-13 * exact, t

    def test_matches_oracle_past_twice_the_nodes(self):
        # N is about 4600 here, past 2K at every node count up to 2048, so the
        # sine sums are read through their fold and period
        c = ChainParams(0.3, 0.305, 0.395)
        ts = list(range(41)) + [300]
        oracle = tv_oracle_curve(c, 300)
        for t, exact in zip(ts, tv_curve(c, ts)):
            assert abs(exact - oracle[t]) <= 1e-8, t

    @pytest.mark.parametrize("chain", [ChainParams(1 / 11, 9 / 11, 1 / 11), NEAR_CRITICAL])
    def test_sine_transform_and_bracket_matrix_agree(self, chain):
        ts = list(range(0, 61, 3)) + [200]
        np.testing.assert_allclose(tv_curve(chain, ts), oracles.tv_by_bracket_matrix(chain, ts),
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("chain, ts", [(ChainParams(1 / 11, 9 / 11, 1 / 11), range(61)),
                                           (NEAR_CRITICAL, range(21))])
    def test_one_sine_transform_per_block(self, monkeypatch, chain, ts):
        calls = []
        for name in ("q_bracket_matrix", "q_node_sums"):
            def counting(*args, _name=name, _inner=getattr(mixing, name)):
                calls.append(_name)
                return _inner(*args)
            monkeypatch.setattr(mixing, name, counting)
        tv_curve(chain, ts)
        assert calls == ["q_node_sums"] * math.ceil(len(set(ts)) / mixing._BLOCK)

    def test_unsorted_and_duplicate_times(self, example_chain):
        for c in (example_chain, NEAR_CRITICAL):
            ts = [17, 3, 40, 3, 0, 17, 25, 120]
            for t, value in zip(ts, tv_curve(c, ts)):
                assert value == pytest.approx(tv_curve(c, [t])[0], rel=1e-12, abs=0.0)

    def test_rejects_empty_and_negative_times(self, example_chain):
        for ts in ([], [3, -1], [2.5], [3, 0.5], [float("nan")], [float("inf")]):
            with pytest.raises(ValueError):
                tv_curve(example_chain, ts)
        with pytest.raises(ValueError, match="nonnegative integers"):
            tv_curve(example_chain, [2.5])


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

    def test_rejects_negative_time(self, example_chain):
        for envelope in (tv_upper, tv_lower):
            with pytest.raises(ValueError, match="nonnegative"):
                envelope(example_chain, -3)


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
        assert tv_curve(example_chain, [t])[0] <= eps
        assert tv_curve(example_chain, [t - 1])[0] > eps

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
        # near 5e-324 one step of TV spans half a subnormal unit
        for eps in (0.0, 1.0, -0.5, 2.0, 5e-324):
            with pytest.raises(ValueError):
                t_mix(example_chain, eps)

    @pytest.mark.parametrize("chain", [ChainParams(0.3, 0.3000000001, 0.3999999999),
                                       ChainParams(0.3, 0.30001, 0.39999)])
    def test_bracket_past_cap_is_typed(self, chain):
        # beta rounds to 1.0 on the first chain and is 1 - 8e-11 on the second
        for method in ("exact", "bound"):
            with pytest.raises(ConvergenceError, match="bracket exceeded 1e7") as info:
                t_mix(chain, 0.1, method=method)
            assert 0.0 < info.value.achieved_bound <= 1.0  # TV <= 1

    @pytest.mark.parametrize("chain, eps, exact, bound", [
        pytest.param(NEAR_CRITICAL, 1e-3, 8392, 45632, id="0.001-8392-45632"),
        pytest.param(NEAR_CRITICAL, 0.1, 837, 31362, id="0.1-837-31362"),
        pytest.param(ChainParams(0.3, 0.305, 0.395), 0.3, 2689, 567258, id="q0.305-0.3-2689"),
    ])
    def test_near_critical_search_is_batched(self, monkeypatch, chain, eps, exact, bound):
        calls = []

        def counting_tv_curve(*args, **kwargs):
            calls.append(args[1])
            return tv_curve(*args, **kwargs)

        monkeypatch.setattr(mixing, "tv_curve", counting_tv_curve)
        assert t_mix(chain, eps) == exact
        assert 1 <= len(calls) <= 5
        assert t_mix(chain, eps, method="bound") == bound
        before, at = tv_curve(chain, [exact - 1, exact])
        assert before > eps >= at
        dp = tv_oracle_curve(chain, exact)
        assert dp[exact - 1] > eps >= dp[exact]


class TestNodePowers:
    """_powers reuses x^gap within a call; every x^t must stay that of the
    stepwise loop with one np.power per step, bit for bit."""

    @staticmethod
    def probe_times():
        # the ascending times of every round of _first_below, as tv_curve sees them
        rounds = []

        def values(ts):
            rounds.append(ts)
            return [math.exp(-t / 1000.0) for t in ts]

        mixing._first_below(values, math.exp(-8.392), -1, 45633)
        assert len(rounds) > 1
        return rounds

    @pytest.mark.parametrize("chain", [ChainParams(1 / 11, 9 / 11, 1 / 11), NEAR_CRITICAL])
    def test_matches_stepwise_powers(self, chain):
        x = theta_nodes(chain, 64)[0]
        gaps = [3, 5, 2, 7, 11, 3, 2, 5, 13, 3, 1, 2, 17, 7]  # 8 distinct gaps > 1
        assert len(set(gaps) - {1}) > mixing._GAP_MEMO
        sequences = [list(range(30)), list(range(5, 40)), [0, 517, 1034, 1035, 1552],
                     [517, 1034, 1035, 1552], list(accumulate(gaps)),
                     list(accumulate([0] + gaps + gaps[::-1])), *self.probe_times()]
        for ts in sequences:
            got = list(mixing._powers(x, ts))
            expect = list(oracles.node_powers_stepwise(x, ts))
            assert [t for t, _ in got] == [t for t, _ in expect] == ts
            for (_, a), (_, b) in zip(got, expect):
                assert a.dtype == b.dtype == np.longdouble
                assert np.array_equal(a, b)

    def test_t_mix_powers_once_per_gap(self, monkeypatch):
        # a count, not a timing: each tv_curve node pass of the near-critical
        # search raises the longdouble nodes to a power for at most 3 gaps
        # (the first jump, then d and d + 1), not once per probe time
        per_pass = []
        power, nodes = np.power, mixing.theta_nodes

        def counting_power(x, *args, **kwargs):
            if isinstance(x, np.ndarray) and x.dtype == np.longdouble:
                per_pass[-1] += 1
            return power(x, *args, **kwargs)

        def counting_nodes(*args):
            per_pass.append(0)
            return nodes(*args)

        monkeypatch.setattr(np, "power", counting_power)
        monkeypatch.setattr(mixing, "theta_nodes", counting_nodes)
        assert t_mix(NEAR_CRITICAL, 1e-3) == 8392
        assert per_pass and max(per_pass) <= 3


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


class TestKernelMatrix:
    def test_c04_set_matches_dp(self, example_chain):
        kernel = kernel_matrix(example_chain, range(61), 12)
        assert kernel.shape == (61, 13, 13)
        for i in range(13):
            mu = DistributionVector.point(i)
            for t in range(61):
                if t:
                    mu = evolve(example_chain, mu, 1)
                dp = np.array([mu.prob(j) for j in range(13)])
                assert np.max(np.abs(kernel[t, i] - dp)) <= 1e-9, (t, i)

    def test_identity_at_t0(self, chain_grid):
        for c in chain_grid[::3] + [NEAR_CRITICAL]:
            kernel = kernel_matrix(c, [0], 12)[0]
            assert np.max(np.abs(kernel - np.eye(13))) <= 1e-10, c

    def test_unsorted_and_duplicate_times(self, example_chain):
        for c in (example_chain, NEAR_CRITICAL):
            ts = [17, 3, 40, 3, 0, 17, 25]
            kernel = kernel_matrix(c, ts, 5)
            for t, block in zip(ts, kernel):
                np.testing.assert_allclose(block, kernel_matrix(c, [t], 5)[0],
                                           rtol=0.0, atol=1e-14)

    def test_single_pass_without_doublings(self, example_chain):
        cfg = QuadratureConfig(node_count=64)  # an override: one pass at 64 nodes
        kernel = kernel_matrix(example_chain, range(11), 3, cfg=cfg)
        for i in range(4):
            mu = DistributionVector.point(i)
            for t in range(11):
                if t:
                    mu = evolve(example_chain, mu, 1)
                for j in range(4):
                    assert abs(kernel[t, i, j] - mu.prob(j)) <= 1e-9

    def test_slice_is_kernel_spectral(self, example_chain):
        for c in (example_chain, NEAR_CRITICAL):
            for t in (0, 1, 17, 60):
                kernel = kernel_matrix(c, [t], 6)[0]
                for i in range(7):
                    for j in range(7):
                        assert kernel[i, j] == kernel_spectral(c, t, i, j), (c, t, i, j)

    def test_index_sets_slice_the_full_matrix(self, example_chain):
        for c in (example_chain, NEAR_CRITICAL):
            ts = [0, 1, 17, 60]
            full = kernel_matrix(c, ts, 8)
            for rows, cols in (([2], [3]), ([0, 8, 4], [5]), (range(3), [8, 1]), (None, [6])):
                part = kernel_matrix(c, ts, 8, rows=rows, cols=cols)
                want = full[:, list(range(9) if rows is None else rows)][:, :, cols]
                np.testing.assert_allclose(part, want, rtol=0.0, atol=1e-15)

    def test_uncertified_entry_is_nan(self, example_chain):
        # pi_0 Q_29 grows like 3^29, so p_7(29, 0) = 0 cancels past extended
        # precision; the entries of row 2 stay certified
        kernel = kernel_matrix(example_chain, [7], 29)[0]
        assert np.isnan(kernel[29, 0]) and not np.isnan(kernel[2]).any()
        with pytest.raises(RegimeError, match="cannot be certified"):
            kernel_spectral(example_chain, 7, 29, 0)

    def test_no_silent_error_as_p_vanishes(self):
        # the per-entry quadrature this replaces returned entries 1.2e-7 off
        # here: the L1 floor let roundoff-level estimates through unchecked
        p = 10 ** -10.25
        c = ChainParams(p, 0.95 - p, 0.05)
        kernel = kernel_matrix(c, range(21), 4)
        assert np.isnan(kernel).any()
        for i in range(5):
            mu = DistributionVector.point(i)
            for t in range(21):
                if t:
                    mu = evolve(c, mu, 1)
                for j in range(5):
                    assert np.isnan(kernel[t, i, j]) or abs(kernel[t, i, j] - mu.prob(j)) <= 1e-9

    def test_rejects_bad_arguments(self, example_chain):
        for ts, n_max in (([], 3), ([2, -1], 3), ([2], -1)):
            with pytest.raises(ValueError):
                kernel_matrix(example_chain, ts, n_max)
        for rows, cols in (([4], None), (None, [-1]), ([], [0]), ([1], []), ([1.7], None),
                           (None, [0, 2.5])):
            with pytest.raises(ValueError, match="index sets"):
                kernel_matrix(example_chain, [2], 3, rows=rows, cols=cols)
        for ts, n_max in (([2.5], 3), ([2], 1.5)):
            with pytest.raises(ValueError, match="nonnegative integers"):
                kernel_matrix(example_chain, ts, n_max)
        for t, i, j in ((2.5, 1, 1), (2, 1.5, 1), (2, 1, -1)):
            with pytest.raises(ValueError, match="nonnegative integers"):
                kernel_spectral(example_chain, t, i, j)


QUADRATURES = [
    (lambda c, cfg: kernel_matrix(c, [40], 12, cfg=cfg), "kernel_matrix"),
    # n_cap 1e6: near p = q the node count reaches the cap after the cutoff would
    (lambda c, cfg: tv_curve(c, [0, 40], TailControl(n_cap=10 ** 6), cfg), "tv_curve"),
    (lambda c, cfg: integrate_psi(build_measure(c), lambda x: x ** 80, cfg=cfg), "density"),
    (lambda c, cfg: spectral_integral(c, 40, 12, route="both", cfg=cfg), "spectral_integral"),
]
QUADRATURE_IDS = ["kernel_matrix", "tv_curve", "integrate_psi", "spectral_integral"]


@pytest.mark.parametrize("compute, name", QUADRATURES, ids=QUADRATURE_IDS)
def test_override_short_of_the_bound_raises(example_chain, compute, name):
    cfg = QuadratureConfig(node_count=16, tol=1e-300)
    with pytest.raises(QuadratureError, match=f"^{name} quadrature needs [0-9]+ nodes") as info:
        compute(example_chain, cfg)
    assert "node_count override of 16" in str(info.value)
    assert info.value.allowed == 16 and info.value.needed > 16


@pytest.mark.parametrize("compute, name", QUADRATURES, ids=QUADRATURE_IDS)
def test_count_past_the_cap_raises(compute, name):
    # q - p = 1e-4: the strip half-width is log sqrt(q/p) = 1e-4, so K ~ 1e5
    chain = ChainParams(0.49, 0.4901, 0.0199)
    with pytest.raises(QuadratureError, match=f"^{name} quadrature needs [0-9]+ nodes") as info:
        compute(chain, QuadratureConfig())
    assert f"the cap of {NODE_CAP}" in str(info.value)
    assert info.value.allowed == NODE_CAP < info.value.needed


class TestNodeCount:
    @pytest.mark.parametrize("chain, nodes", [
        (ChainParams(1 / 11, 9 / 11, 1 / 11), 16),
        (NEAR_CRITICAL, 768),
        (ChainParams(0.3, 0.305, 0.395), 3200),
        (ChainParams(0.33, 0.335, 0.335), 3600),
    ])
    def test_tv_curve_counts(self, chain, nodes):
        _, k, bound = tv_quadrature(chain, range(61))
        assert k == nodes and bound <= QuadratureConfig().tol

    def test_sizes_are_16_times_5_smooth(self, chain_grid):
        for c in chain_grid + [NEAR_CRITICAL]:
            for ts in ([0], [40], range(61)):
                m = tv_quadrature(c, ts)[1] // 16
                for f in (2, 3, 5):
                    while m % f == 0:
                        m //= f
                assert m == 1, (c, ts)

    def test_override_is_run_as_given(self, example_chain):
        _, k, bound = tv_quadrature(example_chain, range(61), cfg=QuadratureConfig(node_count=40))
        assert k == 40 and bound < tv_quadrature(example_chain, range(61))[2]

    def test_one_node_count_per_call(self, monkeypatch, example_chain):
        asked = []

        def recording(chain, n_nodes):
            asked.append(n_nodes)
            return theta_nodes(chain, n_nodes)
        monkeypatch.setattr(mixing, "theta_nodes", recording)
        for c in (example_chain, NEAR_CRITICAL):
            for call in (lambda: tv_curve(c, [0, 7, 40, 3, 500]),
                         lambda: tv_curve(c, range(0, 200, 3), ctl=TailControl(1e-14)),
                         lambda: kernel_matrix(c, [17, 0, 60], 8),
                         lambda: kernel_matrix(c, range(31), 3, rows=[2], cols=[3])):
                asked.clear()
                call()
                assert len(asked) == 1, asked


class TestDecayRate:
    def test_log_slope_recovers_mixing_rate(self, example_chain):
        vals = np.array([tv_curve(example_chain, [t])[0] for t in range(30, 81)])
        slope = oracles.log_slope(vals, 0, 50)
        assert abs(slope - math.log(0.9)) <= 0.01 * abs(math.log(0.9))

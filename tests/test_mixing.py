import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from kmmix import ChainParams, ConvergenceError, QuadratureConfig, QuadratureError, \
    RegimeError, bound_coefficients, build_measure, integrate_psi, \
    kernel_matrix, reversibility, spectral_integral, t_mix, tv_curve, \
    tv_envelope, tv_oracle, tv_oracle_curve
from kmmix import mixing
from kmmix.chain import _kernel_args, kernel_oracle
from kmmix.mixing import _contour_envelope, _cutoff_rule, _eps_floor, _pole_pair, tv_quadrature
from kmmix.spectral import NODE_CAP, pole_errors, theta_nodes

import oracles
from conftest import EXAMPLE, GRID, RANDOM_CHAINS


def kernel_entry(chain, t, i, j, cfg=None):
    """p_t(i, j) by a one-entry kernel_matrix call."""
    return float(kernel_matrix(chain, [t], max(i, j), cfg=cfg, rows=[i], cols=[j])[0, 0, 0])


def interval_route(chain, t, n):
    """I_t(n) on the interval route: the kernel entry p_t(0, n)/pi_n - w1."""
    return kernel_entry(chain, t, 0, n) / reversibility(chain).pi(n) - build_measure(chain).atom1[1]


def assert_routes_agree(chain, t, n):
    """The interval route (kernel_matrix's entry) and the contour route
    (spectral_integral) of I_t(n) agree within 1e-8 max(1, beta^t (q/p)^(n/2)),
    the measure of acceptance c07."""
    interval = interval_route(chain, t, n)
    contour = spectral_integral(chain, t, n)
    tol = 1e-8 * max(1.0, chain.support[1] ** t * (chain.q / chain.p) ** (n / 2.0))
    assert abs(interval - contour) <= tol, (chain, t, n, interval, contour)


@pytest.fixture
def tv_calls(monkeypatch):
    """The times of each tv_curve call, one list per call: t_mix's rounds."""
    calls = []

    def counting_tv_curve(*args, **kwargs):
        calls.append(list(args[1]))
        return tv_curve(*args, **kwargs)

    monkeypatch.setattr(mixing, "tv_curve", counting_tv_curve)
    return calls


# contour poles near the unit circle: z_a = sqrt(p/q) -> 1 as q -> p, and
# z_b = -sqrt(pq)/(q+r) -> -1 as, further, r -> 0
POLE_NEAR_CIRCLE = (ChainParams(0.3, 0.32, 0.38), ChainParams(0.49, 0.4901, 0.0199),
                    ChainParams(0.4999, 0.5, 1e-4), ChainParams(0.3, 0.3000001, 0.3999999))


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
            m_env = _contour_envelope(c)
            expect = 0.5 * m_env * (c.p / (c.q + c.r)) * (1.0 + 1.0 / (c.sqrt_pq - c.p))
            assert co.B == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("chain", [
        # sqrt(pq) - p is 0.0: B divided by it (ZeroDivisionError)
        ChainParams(0.49999999999999994, 0.5, 1.401298464324817e-45),
        ChainParams(1e-200, 1e-198, 1.0 - 1e-200 - 1e-198),  # pq underflows: B was negative
    ])
    def test_regime_error_where_sqrt_pq_rounds_to_p(self, chain):
        # every route through the envelope refuses
        for call in (bound_coefficients, lambda c: tv_envelope(c, [3]),
                     lambda c: t_mix(c, 0.1), lambda c: t_mix(c, 0.1, method="bound")):
            with pytest.raises(RegimeError, match="sqrt\\(pq\\) - p"):
                call(chain)

    def test_pole_pair_simplifies(self, chain_grid):
        # the roots sqrt(p/q) (r +- (1+q-p))/(2(q+r)) are z_a = sqrt(p/q) and
        # z_b = -sqrt(pq)/(q+r) where p + q + r = 1, both strictly inside |z| = 1
        for c in chain_grid:
            za, zb = _pole_pair(c)
            scale = math.sqrt(c.p / c.q) / (2.0 * (c.q + c.r))
            assert za == pytest.approx(scale * (c.r + (1.0 + c.q - c.p)), rel=1e-12)
            assert zb == pytest.approx(scale * (c.r - (1.0 + c.q - c.p)), rel=1e-12)
            assert abs(za) < 1.0 and abs(zb) < 1.0


class TestSpectralIntegral:
    def test_t0_n0_total_mass_minus_top_atom(self, example_chain):
        for route in (interval_route, spectral_integral):
            val = route(example_chain, 0, 0)
            assert val == pytest.approx(11 / 19, abs=1e-10)

    def test_t0_positive_degree_orthogonality(self, example_chain):
        for n in (1, 2, 5, 9):
            for route in (interval_route, spectral_integral):
                val = route(example_chain, 0, n)
                assert val == pytest.approx(-8 / 19, abs=1e-9)

    def test_route_agreement_grid(self, example_chain):
        for chain in (example_chain, *POLE_NEAR_CIRCLE):
            for t in range(0, 61, 6):
                for n in range(0, 21, 5):
                    assert_routes_agree(chain, t, n)

    def test_contour_points_are_capped(self, example_chain):
        # M = t + n + 1 points past 2 NODE_CAP (the interval route's degree
        # reach) raise before any is allocated; at the cap the route answers
        with pytest.raises(QuadratureError, match="^spectral_integral quadrature needs "
                                                  "100000011 nodes") as info:
            spectral_integral(example_chain, 10 ** 8, 10)
        assert info.value.allowed == 2 * NODE_CAP < info.value.needed
        t = 2 * NODE_CAP - 1 - 5
        assert abs(spectral_integral(example_chain, t, 5) - interval_route(example_chain, t, 5)) \
            <= 1e-8
        with pytest.raises(QuadratureError):
            spectral_integral(example_chain, t + 1, 5)

    @pytest.mark.parametrize("chain", (EXAMPLE, *POLE_NEAR_CIRCLE))
    def test_contour_route_against_the_dp(self, chain):
        # I_t(n) = p_t(0, n)/pi_n - w1; the contour rule at t + n + 1 points
        # less its pole aliasing is exact up to roundoff
        w1 = build_measure(chain).atom1[1]
        dp = kernel_oracle(chain, range(61), 20, rows=[0])[:, 0, :]
        pi = reversibility(chain).pi(np.arange(21))
        for t in range(61):
            for n in range(21):
                value = spectral_integral(chain, t, n)
                scale = max(1.0, chain.support[1] ** t * (chain.q / chain.p) ** (n / 2.0))
                assert abs(value - (dp[t, n] / pi[n] - w1)) <= 1e-9 * scale, (t, n)

    def test_both_routes_check_the_regime(self):
        # a density pole on the AC interval: neither route returns a value
        for route in (interval_route, spectral_integral):
            with pytest.raises(RegimeError):
                route(ChainParams(0.3, 0.30000001, 0.39999999), 3, 2)

    def test_rejects_bad_route(self, example_chain):
        # spectral_integral is the contour route alone: it takes no route or
        # settings, and the interval route is kernel_matrix's entry (0, n)
        for keyword in ({"route": "interval"}, {"cfg": QuadratureConfig()}):
            with pytest.raises(TypeError):
                spectral_integral(example_chain, 1, 1, **keyword)

    def test_rejects_bad_arguments(self, example_chain):
        for t, n in ((2.5, 1), (2, 1.5), (-1, 0), (0, -2)):
            with pytest.raises(ValueError, match="nonnegative integers"):
                spectral_integral(example_chain, t, n)

    def test_routes_agree_with_poles_near_circle(self):
        # q barely above p pushes a contour pole to sqrt(p/q) ~ 1, where the
        # aliasing subtracted is largest
        for c in (ChainParams(0.30, 0.38, 0.32), ChainParams(0.32, 0.34, 0.34)):
            for (t, n) in ((0, 0), (10, 5), (25, 12)):
                assert_routes_agree(c, t, n)


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
        for t, upper, lower, valid in zip(range(101), *tv_envelope(example_chain, range(101))):
            val = tv_curve(example_chain, [t])[0]
            assert val <= upper
            if valid:
                assert lower <= val

    def test_series_cap_diagnostic(self, monkeypatch, example_chain):
        monkeypatch.setattr(mixing, "N_CAP", 3)
        with pytest.raises(ConvergenceError) as info:
            tv_curve(example_chain, [5], series_tol=1e-300)
        assert info.value.achieved_bound > 0.0
        tv_curve(example_chain, [0, 3], series_tol=1e-300)  # cut at t <= N_CAP: no search
        with pytest.raises(ConvergenceError) as info:
            tv_curve(example_chain, [4, 0, 9], series_tol=1e-300)
        assert info.value.achieved_bound > 0.0

    def test_terms_past_the_double_range_raise(self, example_chain):
        # at series_tol 1e-320 and p/q = 1e-4 the cutoff at t = 160 reaches
        # N = 160, where the AC sums carry (q/p)^(n/2) past the double range
        # and pi_n has underflowed: the value used to read NaN
        tol = 1e-320
        with pytest.raises(ConvergenceError, match=r"at t=160 leaves the double range at "
                                                   r"degree n=160, of the N=160") as info:
            tv_curve(SMALL_P, range(155, 165), series_tol=tol)
        assert 0.0 < info.value.achieved_bound < 1e-300
        for t in (161, 170):
            with pytest.raises(ConvergenceError, match=f"at t={t} leaves the double range"):
                tv_curve(SMALL_P, [t], series_tol=tol)
        # a value that is finite stays as it was; below N the series is cut
        # at t, so the worked example (N = 671) and (0.3, 0.32, 0.38) stay finite
        for chain, ts in ((SMALL_P, [159]), (example_chain, range(4)), (NEAR_CRITICAL, [0, 7])):
            assert tv_curve(chain, ts, series_tol=tol) == oracles.tv_curve_per_t(chain, ts, tol)

    def test_single_pass_without_doublings(self, example_chain):
        cfg = QuadratureConfig(node_count=64)  # an override: one pass at 64 nodes
        assert tv_curve(example_chain, [7], cfg=cfg)[0] == pytest.approx(
            tv_oracle(example_chain, 7), abs=1e-8)


NEAR_CRITICAL = ChainParams(0.3, 0.32, 0.38)
FAR_ATOM = ChainParams(0.1, 0.85, 0.05)  # loc2 = -17/18: loc2^t is 0.0 from t = 13037
ATOM_AT_MINUS_ONE = ChainParams(0.1, 0.9, 1e-300)  # loc2 rounds to -1: no term vanishes
SMALL_P = ChainParams(1e-8, 1e-4, 1.0 - 1e-8 - 1e-4)  # q/p = 1e4, beta ~ 1


def _series_cutoff_scan(chain, co, t, series_tol):
    """The cutoff by scanning N upward from 0, one tail evaluation per step,
    to the least N meeting the tolerance or to t, whichever comes first."""
    p, q, r = chain.p, chain.q, chain.r
    x = p / (q + r)
    y = math.sqrt(p / q)
    w2 = ((1.0 + q - p) * (q + r) - q) / ((1.0 + q - p) * (q + r))
    amp_atom = 0.5 * w2 * co.alpha ** t / p / (1.0 - x)
    amp_cont = 0.5 * _contour_envelope(chain) * x * co.beta ** t / p / (1.0 - y)
    tol = max(min(series_tol, 0.05 * co.B * co.beta ** t), 5e-324)
    n_cut = 0
    while True:
        tail = amp_atom * x ** (n_cut + 1) + amp_cont * y ** (n_cut + 1)
        if tail <= tol or n_cut == t:
            return n_cut, tail
        n_cut += 1
        if n_cut > mixing.N_CAP:
            raise ConvergenceError(f"series cutoff exceeded n_cap={mixing.N_CAP} at t={t}", tail)


def _series_cutoff(chain, co, t, series_tol):
    return _cutoff_rule(chain, co, series_tol)(t)


def _cutoff_or_error(chain, co, t, series_tol, cutoff):
    try:
        return cutoff(chain, co, t, series_tol)
    except ConvergenceError as exc:
        return str(exc), exc.achieved_bound


class TestSeriesCutoff:
    def test_matches_scan(self, monkeypatch, chain_grid):
        for c in chain_grid + [NEAR_CRITICAL]:
            co = bound_coefficients(c)
            for t in (0, 1, 7, 40, 300, 5000):
                for tol in (1e-6, 1e-12, 1e-20, 1e-300):
                    for n_cap in (100_000, 25, 1):
                        monkeypatch.setattr(mixing, "N_CAP", n_cap)
                        got = _cutoff_or_error(c, co, t, tol, _series_cutoff)
                        want = _cutoff_or_error(c, co, t, tol, _series_cutoff_scan)
                        assert got == want, (c, t, tol, n_cap)

    def test_cap_error_carries_scan_bound(self):
        # q - p = 1e-5: the sqrt(p/q) series needs more than N_CAP = 1e5 terms,
        # which a time past N_CAP cannot cut short
        c = ChainParams(0.3, 0.30001, 0.39999)
        co = bound_coefficients(c)
        got = _cutoff_or_error(c, co, 200_000, 1e-12, _series_cutoff)
        assert isinstance(got[0], str) and "n_cap=100000" in got[0]
        assert got == _cutoff_or_error(c, co, 200_000, 1e-12, _series_cutoff_scan)

    def test_times_up_to_n_cap_cut_at_t(self):
        # there the cutoff is min(N, t), with no search once tail(t) misses tol
        c = ChainParams(0.3, 0.30001, 0.39999)
        co = bound_coefficients(c)
        cutoff, tail_at = _cutoff_rule(c, co, 1e-12), mixing._tail_rule(c, co)
        for t in (0, 20, 100_000):
            assert cutoff(t) == (t, mixing._tail(tail_at(t), t))


    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300])
    @pytest.mark.parametrize("ts", [range(501), [500, 3, 41, 3, 0, 260, 7, 8, 1999, 9]],
                             ids=["dense", "sparse"])
    def test_warm_started_cuts_equal_cold_ones(self, chain_grid, tol, ts):
        # tv_quadrature hands each sorted t's N to the next t as its guess
        for c in chain_grid + [NEAR_CRITICAL, ChainParams(0.3, 0.305, 0.395)]:
            cold = _cutoff_rule(c, bound_coefficients(c), tol)
            cuts = tv_quadrature(c, ts, tol)[0]
            assert cuts == {t: cold(t)[0] for t in sorted(set(ts))}, c

    def test_a_wrong_guess_falls_back_to_the_search(self, example_chain):
        cutoff = _cutoff_rule(example_chain, bound_coefficients(example_chain), 1e-12)
        want = cutoff(40)
        # want - 1 is taken by the near + 1 check; want - 2 is two below, which
        # that check must reject as tail(want - 1) is above the tolerance
        assert all(cutoff(40, near) == want
                   for near in (0, want[0] - 2, want[0] - 1, want[0] + 1, 10 ** 4))
        assert cutoff(40, want[0]) == want


class TestTailControl:
    """The series tail is controlled by the one keyword series_tol, checked
    by both entries that take it."""

    @pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
    def test_series_tol_must_be_positive(self, example_chain, tol):
        for entry in (tv_curve, tv_quadrature):
            with pytest.raises(ValueError, match="series_tol must be positive"):
                entry(example_chain, [3], series_tol=tol)


class TestTvCurve:
    def test_matches_oracle_on_grid(self, chain_grid):
        for c in chain_grid + [NEAR_CRITICAL]:
            for t, (exact, oracle) in enumerate(zip(tv_curve(c, range(41)),
                                                    tv_oracle_curve(c, 40))):
                assert abs(exact - oracle) <= 1e-8, (c, t)

    def test_relative_to_exact_rational_dp_to_500(self, example_chain):
        ts = [0, 1, 2, 10, 60, 150, 300, 450, 499, 500]
        for t, value in zip(ts, tv_curve(example_chain, ts, series_tol=1e-300)):
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
        # 1e-15 in longdouble, scaled by eps to the dtype of the pass
        dtype = tv_quadrature(chain, ts)[5]
        atol = 1e-15 * np.finfo(dtype).eps / np.finfo(np.longdouble).eps
        np.testing.assert_allclose(tv_curve(chain, ts), oracles.tv_by_bracket_matrix(chain, ts),
                                   rtol=0.0, atol=atol)

    @pytest.mark.parametrize("chain, ts", [(ChainParams(1 / 11, 9 / 11, 1 / 11), range(61)),
                                           (NEAR_CRITICAL, range(2000, 2021))])
    def test_one_sine_transform_per_block(self, monkeypatch, chain, ts):
        # one q_node_sums call per batch, a run of ascending times within
        # mixing._CELLS cells: 2K for each t's FFT and N_t + 1 for its terms
        calls = []
        for name in ("q_bracket_matrix", "q_node_sums"):
            def counting(*args, _name=name, _inner=getattr(mixing, name)):
                calls.append((_name, len(args[2])))
                return _inner(*args)
            monkeypatch.setattr(mixing, name, counting)
        tv_curve(chain, ts)
        cuts, k = tv_quadrature(chain, ts)[:2]
        rows, cells = [], []
        for n_cut in cuts.values():
            if rows and cells[-1] + 2 * k + n_cut + 1 <= mixing._CELLS:
                rows[-1], cells[-1] = rows[-1] + 1, cells[-1] + 2 * k + n_cut + 1
            else:
                rows.append(1)
                cells.append(2 * k + n_cut + 1)
        assert calls == [("q_node_sums", size) for size in rows]
        assert max(cells) <= mixing._CELLS
        # the worked example's 61 times fit one batch, the near-critical ones
        # past t = 2000 (K = 720, N_t about 1080) three to a batch
        assert rows == ([61] if k == 16 else [3] * 7)

    def test_block_arrays_match_the_per_t_loop(self, example_chain, monkeypatch):
        # one term array per batch and one atom power per distinct exponent:
        # every value bit for bit that of the loop with one power and one
        # product per t
        ts = range(501)
        assert tv_curve(example_chain, ts) == oracles.tv_curve_per_t(example_chain, ts)
        calls, inner = [], mixing.tv_curve

        def recording(chain, ts, series_tol=1e-12, cfg=None):
            calls.append((list(ts), series_tol, cfg))
            return inner(chain, ts, series_tol=series_tol, cfg=cfg)

        monkeypatch.setattr(mixing, "tv_curve", recording)
        t_mix(NEAR_CRITICAL, 1e-3)
        # every round of the search: a pair (g - 1, g), each far past t = 100
        for ts, tol, cfg in calls:
            assert len(ts) == 2 and ts[1] == ts[0] + 1 and ts[0] > 100
            assert inner(NEAR_CRITICAL, ts, series_tol=tol, cfg=cfg) == \
                oracles.tv_curve_per_t(NEAR_CRITICAL, ts, tol, cfg)

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


def _record_atom_powers(monkeypatch):
    """The exponent lists np.power takes with a float base, the atom's loc2
    (the longdouble nodes are never raised by np.power), call by call."""
    powered, power = [], np.power

    def recording(x, k, *args, **kwargs):
        if isinstance(x, float):
            powered.append(np.asarray(k).tolist())
        return power(x, k, *args, **kwargs)

    monkeypatch.setattr(np, "power", recording)
    return powered


class TestAtomTerms:
    """tv_curve's atom terms (w2 - E2) loc2^t loc2^n: per batch one power of
    loc2 over its times and at most one over its degrees 0..max N_t, none
    where loc2^t is 0.0 throughout the batch; every value stays that of the
    per-t loop.  The kernel takes the same rule over t and i + j."""

    @pytest.mark.parametrize("chain, t_zero", [(NEAR_CRITICAL, 952),
                                               (ChainParams(1 / 11, 9 / 11, 1 / 11), 7073),
                                               (FAR_ATOM, 13037),
                                               (ATOM_AT_MINUS_ONE, None)])
    def test_underflow_time(self, monkeypatch, chain, t_zero):
        # loc2^t is 0.0 from t_zero on (never where loc2 has rounded to -1): a
        # one-time call powers a degree row just before t_zero and none from it on
        loc2 = mixing.negative_atom(chain)[0]
        last = 2 ** 63 if t_zero is None else t_zero - 1
        assert np.power(loc2, float(last)) != 0.0
        if t_zero is not None:
            assert np.power(loc2, float(t_zero)) == 0.0
        powered = _record_atom_powers(monkeypatch)
        for t in [last] + ([] if t_zero is None else [t_zero]):
            powered.clear()
            tv_curve(chain, [t])
            assert len(powered) == (2 if t == last else 1) and powered[0] == [float(t)], t

    def test_near_critical_t_mix_probes(self):
        # the first round of oracles.first_below_probes on t_mix(NEAR_CRITICAL,
        # 1e-3)'s bracket: 15 times far apart, loc2^t 0.0 at every one
        ts = [k * 45634 // 16 - 1 for k in range(1, 16)]
        assert ts[0] == 2851 and ts[1] == 5703 and ts[-1] == 42780
        assert np.power(mixing.negative_atom(NEAR_CRITICAL)[0], float(min(ts))) == 0.0
        assert tv_curve(NEAR_CRITICAL, ts) == oracles.tv_curve_per_t(NEAR_CRITICAL, ts)

    def test_across_the_underflow_and_a_batch_boundary(self):
        # loc2^t underflows to 0.0 inside the second of three batches
        ts = range(12800, 13400)
        cuts, k = tv_quadrature(FAR_ATOM, ts)[:2]
        batches = list(mixing._batches(cuts, 2 * k))
        loc2_t = np.power(mixing.negative_atom(FAR_ATOM)[0], np.array(batches[1], dtype=float))
        assert len(batches) == 3 and loc2_t[0] != 0.0 == loc2_t[-1]
        assert tv_curve(FAR_ATOM, ts) == oracles.tv_curve_per_t(FAR_ATOM, ts)

    @pytest.mark.parametrize("chain, ts", [
        (ChainParams(1 / 11, 9 / 11, 1 / 11), range(501)),
        (ChainParams(1 / 11, 9 / 11, 1 / 11), [7000, 7078, 7079, 7080, 1, 500, 6000]),
        (NEAR_CRITICAL, range(21)),
        (NEAR_CRITICAL, [0, 5, 900, 950, 953, 960, 2000]),
        (FAR_ATOM, range(12800, 13400)),
        (ATOM_AT_MINUS_ONE, range(60)),
        (NEAR_CRITICAL, [953, 2000]),
    ])
    def test_one_time_row_and_at_most_one_degree_row_per_batch(self, monkeypatch, chain, ts):
        cuts, k = tv_quadrature(chain, ts)[:2]
        loc2, want = mixing.negative_atom(chain)[0], []
        for batch in mixing._batches(cuts, 2 * k):
            want.append([float(t) for t in batch])
            if np.power(loc2, want[-1]).any():
                want.append(list(range(max(cuts[t] for t in batch) + 1)))
        powered = _record_atom_powers(monkeypatch)
        got = tv_curve(chain, ts)
        monkeypatch.undo()
        assert powered == want
        assert got == oracles.tv_curve_per_t(chain, ts)

    def test_times_past_int64(self):
        # however large a time, loc2^t is powered at it as a double
        worked = ChainParams(1 / 11, 9 / 11, 1 / 11)
        assert tv_curve(worked, [2 ** 63, 10 ** 20]) == [0.0, 0.0]
        assert tv_curve(worked, [0, 10 ** 20]) == [tv_curve(worked, [0])[0], 0.0]
        # where loc2 has rounded to -1 the atom never vanishes: TV stays near 1/2
        tv = tv_curve(ATOM_AT_MINUS_ONE, [2 ** 62, 2 ** 63])
        assert tv[0] == tv[1] == pytest.approx(0.5, rel=1e-15)
        assert tv == oracles.tv_curve_per_t(ATOM_AT_MINUS_ONE, [2 ** 62, 2 ** 63])

    def test_odd_times_past_2_53_keep_their_sign(self):
        # loc2 = -(1 - 2^-53), so loc2^t is about (-1)^t / e near t = 2^53, where
        # the double of the odd 2^53 + 1 is the even 2^53 (loc2 = -1 exactly
        # is outside the kernel's regime)
        chain = ChainParams(0.1, 0.9, 1e-16)
        loc2 = mixing.negative_atom(chain)[0]
        assert loc2 == -(1 - 2 ** -53) and float(2 ** 53 + 1) == 2 ** 53
        ts = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1]
        signs = np.sign(mixing._atom_powers(loc2, ts, [0, 1]))
        assert signs.tolist() == [[-1, 1], [1, -1], [-1, 1]]
        # the AC part has vanished: p_t(0, 0) = w1 + w2 loc2^t (pi_0 = 1)
        measure = build_measure(chain)
        (_, w1), (_, w2) = measure.atom1, measure.atom2
        want = [w1 + w2 * (-1) ** t * math.exp(t * math.log1p(-2 ** -53)) for t in ts]
        assert kernel_matrix(chain, ts, 0)[:, 0, 0] == pytest.approx(want, rel=1e-15)
        assert tv_curve(chain, ts) == oracles.tv_curve_per_t(chain, ts)

    def test_t_mix_powers_no_degree_row(self, monkeypatch):
        # the near-critical search probes only pairs t >= 4709, where loc2^t is
        # 0.0: one power over each pair's times, none over degrees
        powered = _record_atom_powers(monkeypatch)
        assert t_mix(NEAR_CRITICAL, 1e-3) == 8392
        assert powered and all(len(ts) == 2 and ts[1] == ts[0] + 1 for ts in powered)

    def test_kernel_powers_times_and_degree_sums(self, monkeypatch):
        # kernel_matrix(worked, range(21), 4): 21 times and 5 x 5 sums i + j,
        # not the 21 x 25 exponents t + i + j
        worked = ChainParams(1 / 11, 9 / 11, 1 / 11)
        powered = _record_atom_powers(monkeypatch)
        kernel_matrix(worked, range(21), 4)
        sums = np.add.outer(range(5), range(5)).tolist()
        assert sorted(powered, key=len) == [sums, [float(t) for t in range(21)]]


def envelope_at(chain, t):
    """(upper, lower, valid) of tv_envelope at the one time t."""
    (upper,), (lower,), (valid,) = tv_envelope(chain, [t])
    return upper, lower, valid


class TestEnvelopes:
    def test_upper_t10_frozen_fraction_value(self, example_chain):
        # (91/171)(9/10)^10 + (39/28)(7/11)^10 evaluated in exact arithmetic
        assert envelope_at(example_chain, 10)[0] == pytest.approx(0.2007231345024958, abs=1e-12)

    def test_lower_t10_frozen_fraction_value(self, example_chain):
        _, value, valid = envelope_at(example_chain, 10)
        assert valid
        assert value == pytest.approx(0.17038491285539895, abs=1e-12)

    def test_lower_invalid_when_beta_dominates(self):
        c = ChainParams(0.05, 0.15, 0.80)   # alpha = 3/19 << beta
        assert not envelope_at(c, 10)[2]

    def test_lower_validity_requires_positive_value(self, example_chain):
        _, value, valid = envelope_at(example_chain, 0)
        assert value < 0.0 and not valid

    def test_rejects_negative_time(self, example_chain):
        with pytest.raises(ValueError, match="nonnegative"):
            tv_envelope(example_chain, [-3])
        with pytest.raises(ValueError, match="nonnegative"):
            tv_envelope(example_chain, [4, -3, 5])

    def test_times_past_the_double_range_raise(self, example_chain):
        # alpha^t takes t as a double: past the largest one a typed error
        # names the limit (an OverflowError escaped before); at it, a value
        largest = int(np.finfo(float).max)
        for call in (tv_envelope, tv_curve):
            for ts in ([10 ** 400], [0, largest + 1]):
                with pytest.raises(ValueError, match="at most 1.7976931348623157e\\+308"):
                    call(example_chain, ts)
        assert tv_envelope(example_chain, [largest])[0] == [0.0]
        assert tv_curve(example_chain, [largest]) == [0.0]

    def test_lists_are_the_per_t_values(self):
        # bit for bit the per-t expressions, through the underflow of a term
        # (the alpha term on most of GRID) and of both (one chain) to 0.0
        alpha_zeros = upper_zeros = 0
        for chain in GRID:
            want = [oracles.envelope_per_t(chain, t) for t in range(2001)]
            upper, lower, valid = tv_envelope(chain, range(2001))
            assert list(zip(upper, lower, valid)) == want, chain
            assert all(type(v) is bool for v in valid)
            for t in (0, 1, 700, 2000):
                assert envelope_at(chain, t) == (upper[t], lower[t], valid[t])
            co = bound_coefficients(chain)
            alpha_zeros += co.A * co.alpha ** 2000 == 0.0
            upper_zeros += upper[-1] == 0.0
        assert alpha_zeros >= 10 and upper_zeros >= 1
        assert tv_envelope(EXAMPLE, []) == ([], [], [])


class TestTMix:
    def test_exact_below_bound(self, example_chain):
        for eps in (1e-2, 1e-4, 1e-6):
            exact = t_mix(example_chain, eps, method="exact")
            bound = t_mix(example_chain, eps, method="bound")
            assert exact <= bound

    def test_bound_is_first_crossing(self, example_chain):
        for eps in (1e-2, 1e-5):
            t = t_mix(example_chain, eps, method="bound")
            assert envelope_at(example_chain, t)[0] <= eps
            assert t == 0 or envelope_at(example_chain, t - 1)[0] > eps

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
        with pytest.raises(ValueError, match="unknown method 'other'"):
            t_mix(example_chain, 0.1, method="other")

    @pytest.mark.parametrize("chain", [ChainParams(0.3, 0.3000000001, 0.3999999999),
                                       ChainParams(0.3, 0.30001, 0.39999)])
    def test_bracket_past_cap_is_typed(self, chain):
        # beta rounds to 1.0 on the first chain and is 1 - 8e-11 on the second
        for method in ("exact", "bound"):
            with pytest.raises(ConvergenceError, match="bracket exceeded 1e7") as info:
                t_mix(chain, 0.1, method=method)
            assert 0.0 < info.value.achieved_bound <= 1.0  # TV <= 1

    @pytest.mark.parametrize("chain, eps, exact, bound, rounds", [
        pytest.param(NEAR_CRITICAL, 1e-3, 8392, 45632, 4, id="0.001-8392-45632"),
        pytest.param(NEAR_CRITICAL, 0.1, 837, 31362, 6, id="0.1-837-31362"),
        pytest.param(ChainParams(0.3, 0.305, 0.395), 0.3, 2689, 567258, 8, id="q0.305-0.3-2689"),
    ])
    def test_near_critical_search_is_batched(self, tv_calls, chain, eps, exact, bound, rounds):
        # one tv_curve call per round of the search, each on a pair (g - 1, g):
        # 4 calls over 8 times for (0.3, 0.32, 0.38) at 1e-3 (g = 4710, then
        # along the slopes the pairs measured to 8054 and 8390, then 8392),
        # where the 15-probe rounds made 4 calls over 60 times
        assert t_mix(chain, eps) == exact
        assert len(tv_calls) == rounds
        assert all(len(ts) == 2 and ts[1] == ts[0] + 1 for ts in tv_calls)
        assert exact in tv_calls[-1]
        assert t_mix(chain, eps, method="bound") == bound
        before, at = tv_curve(chain, [exact - 1, exact])
        assert before > eps >= at
        dp = tv_oracle_curve(chain, exact)
        assert dp[exact - 1] > eps >= dp[exact]

    def test_worked_example_aims_at_the_alpha_tail(self, tv_calls, example_chain):
        # alpha = 0.9 > beta = 7/11: TV -> A alpha^t, and the first round, along
        # log alpha from A alpha^lo, at ceil(log(eps/A)/log alpha) = 126 is the answer
        assert t_mix(example_chain, 1e-6) == 126
        assert tv_calls == [[125, 126]]


# t_mix's (exact, bound) answers at PIN_EPS on PIN_CHAINS, as the 15-probe
# search (oracles.first_below_probes) found them: the regula falsi evaluates
# other times, and must land on the same least t.
PIN_EPS = (0.5, 0.3, 0.1, 1e-3, 1e-6, 1e-9, 1e-12)
PIN_CHAINS = [EXAMPLE, *GRID, *RANDOM_CHAINS, NEAR_CRITICAL, ChainParams(0.1, 0.7, 0.2),
              ChainParams(0.3, 0.305, 0.395)]
PINNED = [
    [(1, 5), (6, 8), (16, 16), (60, 60), (126, 126), (191, 191), (257, 257)],
    [(1, 38), (1, 55), (8, 90), (88, 238), (265, 461), (463, 683), (669, 906)],
    [(1, 3), (1, 7), (2, 15), (21, 51), (63, 104), (111, 157), (160, 211)],
    [(1, 2), (2, 3), (3, 6), (9, 21), (27, 44), (48, 68), (70, 91)],
    [(1, 2), (2, 3), (4, 5), (12, 14), (25, 28), (38, 42), (51, 57)],
    [(1, 2), (3, 3), (7, 7), (23, 23), (48, 48), (72, 72), (97, 97)],
    [(1, 154), (3, 185), (16, 250), (161, 523), (488, 934), (853, 1344), (1232, 1754)],
    [(1, 18), (2, 24), (3, 37), (32, 91), (98, 173), (171, 255), (247, 337)],
    [(1, 5), (2, 7), (3, 13), (13, 35), (40, 68), (69, 101), (100, 135)],
    [(1, 4), (2, 5), (5, 8), (15, 21), (31, 41), (47, 62), (64, 82)],
    [(1, 3), (4, 5), (10, 10), (34, 34), (71, 71), (108, 108), (145, 145)],
    [(2, 370), (5, 420), (27, 528), (265, 978), (804, 1655), (1405, 2331), (2031, 3007)],
    [(1, 43), (2, 52), (5, 71), (47, 151), (142, 270), (249, 390), (360, 510)],
    [(1, 13), (2, 16), (4, 23), (18, 54), (54, 99), (95, 145), (137, 191)],
    [(1, 8), (3, 10), (7, 14), (24, 32), (49, 59), (75, 86), (100, 114)],
    [(2, 8), (12, 13), (36, 36), (135, 135), (283, 283), (432, 432), (580, 580)],
    [(2, 723), (9, 799), (40, 962), (402, 1645), (1219, 2671), (2130, 3696), (3079, 4722)],
    [(2, 84), (2, 96), (6, 123), (66, 235), (199, 402), (348, 570), (504, 738)],
    [(2, 25), (3, 30), (7, 39), (24, 80), (72, 141), (126, 202), (183, 263)],
    [(2, 16), (9, 20), (26, 30), (98, 98), (205, 205), (312, 312), (419, 419)],
    [(3, 1271), (12, 1379), (57, 1611), (572, 2584), (1735, 4043), (3032, 5503), (4382, 6962)],
    [(2, 149), (4, 166), (9, 202), (89, 353), (269, 579), (470, 806), (680, 1032)],
    [(2, 78), (2, 89), (6, 115), (62, 220), (188, 378), (328, 536), (475, 694)],
    [(1, 27), (2, 33), (4, 46), (33, 103), (100, 187), (175, 272), (254, 356)],
    [(1, 26), (2, 35), (5, 53), (46, 131), (139, 248), (243, 365), (352, 482)],
    [(2, 565), (7, 628), (34, 763), (333, 1329), (1009, 2178), (1764, 3027), (2549, 3876)],
    [(1, 6), (4, 8), (10, 12), (34, 35), (71, 71), (108, 108), (145, 145)],
    [(45, 26374), (172, 27957), (837, 31362), (8392, 45632), (25445, 67037), (44473, 88442),
     (64265, 109847)],
    [(1, 6), (3, 7), (7, 11), (26, 28), (53, 54), (81, 81), (108, 108)],
    [(691, 542535), (2689, 567258), (13071, 620430), (131065, 843314), (397418, 1177640),
     (694618, 1511966), (1003748, 1846292)],
]


class TestTMixPinned:
    @pytest.mark.parametrize("chain, answers", zip(PIN_CHAINS, PINNED),
                             ids=[f"{c.p:.4g}-{c.q:.4g}" for c in PIN_CHAINS])
    def test_answers_of_the_probe_search(self, chain, answers):
        got = [(t_mix(chain, eps), t_mix(chain, eps, method="bound")) for eps in PIN_EPS]
        assert got == answers

    def test_work_count_of_the_search(self, tv_calls):
        # tv_curve calls, a count no host's noise moves: 566 over the 210
        # cases and at most 8 in any (the plain regula falsi took 695 and 9)
        counts = []
        for chain in PIN_CHAINS:
            for eps in PIN_EPS:
                tv_calls.clear()
                t_mix(chain, eps)
                counts.append(len(tv_calls))
        assert sum(counts) <= 566
        assert max(counts) <= 8

    @pytest.mark.parametrize("chain, eps, expect, rounds", [
        # the quadrature certified only to 1e-10 read TV(178709) as 0.0 (it is
        # 2.07e-29) and answered 178709; to 1e-33 the crossing is at 187864,
        # which the measured slopes reach in 4 rounds
        pytest.param(NEAR_CRITICAL, 1e-30, 187864, 4, id="1e-30"),
        # answered 138 where the DP reads TV(138) = 1.036e-13
        pytest.param(ChainParams(0.1041069639258611, 0.5083400962994629, 0.387552939774676),
                     1e-13, 139, 3, id="1e-13"),
    ])
    def test_tiny_eps_is_certified(self, tv_calls, chain, eps, expect, rounds):
        assert t_mix(chain, eps) == expect
        assert len(tv_calls) == rounds
        cfg = QuadratureConfig(tol=eps * 1e-3)
        before, at = tv_curve(chain, [expect - 1, expect], eps * 1e-3, cfg)
        assert before > eps >= at
        if expect < 1000:
            dp = tv_oracle_curve(chain, expect)
            assert dp[expect - 1] > eps >= dp[expect]

    def test_seeded_scan_against_dp(self):
        # eps in [1e-15, 1e-13], where values certified only to 1e-10 put the
        # answer off the DP's on about one chain in six
        rng = np.random.default_rng(20261019)
        checked = 0
        while checked < 40:
            p, r = rng.uniform(0.02, 0.4), rng.uniform(0.05, 0.9)
            if 1.0 - p - r - p < 0.05:
                continue
            chain, eps = ChainParams(p, 1.0 - p - r, r), 10.0 ** rng.uniform(-15.0, -13.0)
            t = t_mix(chain, eps)
            dp = tv_oracle_curve(chain, t)
            assert dp[t - 1] > eps >= dp[t], (chain, eps, t)
            checked += 1

    @pytest.mark.parametrize("chain, eps, expect", [(EXAMPLE, 1e-6, 126),
                                                    (ChainParams(0.1, 0.7, 0.2), 1e-3, 26)])
    def test_lower_end_leaves_two_calls(self, monkeypatch, chain, eps, expect):
        # the bracket starts at 123 and 23, two steps short of where
        # (1/2) alpha^t reaches eps: the first pair is (lo + 1, lo + 2)
        calls = []

        def counting_tv_curve(*args, **kwargs):
            calls.append(list(args[1]))
            return tv_curve(*args, **kwargs)

        monkeypatch.setattr(mixing, "tv_curve", counting_tv_curve)
        assert t_mix(chain, eps) == expect
        assert len(calls) <= 2 and sum(map(len, calls)) <= 4


def entry_floors(chain, ts, n_max, rows, cols):
    """kernel_matrix's roundoff floor pi_j eps_floor(dtype) L1 at each entry,
    in the dtype its pass runs in."""
    ts, rows, cols = _kernel_args(ts, n_max, rows, cols)
    pi = reversibility(chain).pi(cols)
    _, l1, _, dtype = mixing._kernel_ac(chain, ts, rows, cols, pi, QuadratureConfig())
    return pi * _eps_floor(dtype) * l1


def power_rows(x, ts, size):
    """mixing._power_batches' rows for the ascending ts, in batches of size
    times, as one list of (t, x^t)."""
    batches = [ts[k:k + size] for k in range(0, len(ts), size)]
    return [(t, xt) for times, rows in zip(batches, mixing._power_batches(x, batches))
            for t, xt in zip(times, rows)]


class TestNodePowers:
    """_power_batches carries x^t from one t to the next, a batch of times
    per accumulate, and jumps by _node_power's binary powering; every x^t must
    stay that of the stepwise loop with one fresh binary power per step
    (oracles.binary_power), bit for bit, however the times are batched, and
    within 2 gap eps_ld of np.power.  No longdouble array goes through
    np.power (powl)."""

    @staticmethod
    def probe_times():
        # the pair (g - 1, g) of every round of _first_below, as tv_curve sees
        # it, on a curve shaped like TV: t^(-3/2) times a geometric
        rounds = []

        def values(ts):
            rounds.append(ts)
            return [(1.0 + t) ** -1.5 * math.exp(-t / 1000.0) for t in ts]

        mixing._first_below(values, 1e-8, -1, 45633, 0.0, math.exp(-1e-3))
        assert len(rounds) > 1
        return rounds

    @pytest.mark.parametrize("chain", [ChainParams(1 / 11, 9 / 11, 1 / 11), NEAR_CRITICAL])
    def test_matches_stepwise_powers(self, chain):
        x = theta_nodes(chain, 64)[0]
        gaps = [3, 5, 2, 7, 11, 3, 2, 5, 13, 3, 1, 2, 17, 7]  # 8 distinct gaps > 1
        sequences = [list(range(30)), list(range(5, 40)), [0, 517, 1034, 1035, 1552],
                     list(range(0, 20000, 400)), [3, 10, 17, 18, 25, 32, 33, 34],
                     [517, 1034, 1035, 1552], list(accumulate(gaps)),
                     list(accumulate([0] + gaps + gaps[::-1])), *self.probe_times()]
        for ts, size in ((ts, size) for ts in sequences for size in (1, 3, 64)):
            got = power_rows(x, ts, size)
            expect = list(oracles.node_powers_stepwise(x, ts))
            assert [t for t, _ in got] == [t for t, _ in expect] == ts
            for (_, a), (_, b) in zip(got, expect):
                assert a.dtype == b.dtype == np.longdouble
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("chain", [ChainParams(1 / 11, 9 / 11, 1 / 11), NEAR_CRITICAL,
                                       ChainParams(0.3, 0.3001, 0.3999)])
    @pytest.mark.parametrize("n_nodes", [16, 768, 4096])
    def test_node_power_against_powl(self, chain, n_nodes):
        # binary powering errs by at most about gap eps_ld relative, as the
        # node's own rounding does through x^gap; where powl's value is below
        # the least normal longdouble, the two differ by less than it
        x = theta_nodes(chain, n_nodes)[0]
        eps, tiny = np.finfo(np.longdouble).eps, np.finfo(np.longdouble).tiny
        for gap in (2, 3, 124, 4709, 8391, 10 ** 5, 10 ** 6 + 7, 10 ** 7 - 1):
            got, want = mixing._node_power(x, gap), np.power(x, gap)
            assert got.dtype == np.longdouble
            normal = np.abs(want) >= tiny
            assert np.all(np.abs(got - want)[normal] <= 2 * gap * eps * np.abs(want)[normal]), gap
            assert np.all(np.abs(got - want)[~normal] <= tiny), gap
        assert np.array_equal(mixing._node_power(x, 0), np.ones_like(x))
        assert np.array_equal(mixing._node_power(x, 1), x)

    def test_strided_times_power_once_per_gap(self, monkeypatch):
        # a gap that repeats reuses its power: t = 0 takes x^0 and every later
        # step of 400 the one x^400
        ts = range(0, 20000, 400)
        x = theta_nodes(NEAR_CRITICAL, 720)[0]
        for (_, a), (_, b) in zip(power_rows(x, ts, 7), oracles.node_powers_stepwise(x, ts)):
            assert np.array_equal(a, b)
        gaps, node_power = [], mixing._node_power

        def counting(x, gap):
            gaps.append(gap)
            return node_power(x, gap)

        monkeypatch.setattr(mixing, "_node_power", counting)
        tv_curve(NEAR_CRITICAL, ts)
        assert gaps == [0, 400]

    def test_t_mix_powers_once_per_gap(self, monkeypatch):
        # a count, not a timing: each tv_curve node pass of the near-critical
        # search powers the longdouble nodes once, for the jump to g - 1 of
        # its pair (g - 1, g), and steps to g by one multiply
        per_pass = []
        node_power, nodes = mixing._node_power, mixing.theta_nodes

        def counting_power(*args):
            per_pass[-1] += 1
            return node_power(*args)

        def counting_nodes(*args):
            per_pass.append(0)
            return nodes(*args)

        monkeypatch.setattr(mixing, "_node_power", counting_power)
        monkeypatch.setattr(mixing, "theta_nodes", counting_nodes)
        assert t_mix(NEAR_CRITICAL, 1e-3) == 8392
        assert per_pass and set(per_pass) == {1}

    def test_no_powl_on_longdouble_arrays(self, monkeypatch):
        # np.power on a longdouble array runs powl per element; the atoms'
        # float base loc2 may still take np.power
        powered, power = [], np.power

        def watching_power(x, *args, **kwargs):
            if isinstance(x, np.ndarray) and x.dtype == np.longdouble:
                powered.append(args)
            return power(x, *args, **kwargs)

        monkeypatch.setattr(np, "power", watching_power)
        assert t_mix(NEAR_CRITICAL, 1e-3) == 8392
        tv_curve(NEAR_CRITICAL, range(0, 20000, 400))
        worked = ChainParams(1 / 11, 9 / 11, 1 / 11)
        kernel_matrix(worked, (0, 3, 10, 25), 15, rows=[0], cols=[0, 2, 7, 15])
        assert powered == []


WEDGE = [NEAR_CRITICAL, ChainParams(0.3, 0.30001, 0.39999), ChainParams(0.49, 0.4901, 0.0199),
         ChainParams(0.4999, 0.5, 1e-4)]


class TestPoleCorrectedWedge:
    """Near criticality the strip count passes the node cap (for the last
    three chains, a typed error); the exact-degree count takes 32 nodes for
    the kernel to t = 20 and 64 for TV to t = 60, every t cut at N = t."""

    @pytest.mark.parametrize("chain", WEDGE)
    def test_kernel_against_the_dp(self, chain):
        got = kernel_matrix(chain, range(21), 8)
        assert np.all(np.abs(got - kernel_oracle(chain, range(21), 8)) <= 1e-12)  # NaN fails

    @pytest.mark.parametrize("chain", WEDGE)
    def test_tv_against_the_dp(self, chain):
        got = tv_curve(chain, range(61))
        assert max(abs(a - b) for a, b in zip(got, tv_oracle_curve(chain, 60))) <= 1e-12
        _, k, bound, *errors, dtype = tv_quadrature(chain, range(61))
        assert k == 64 and errors == [dtype(e) for e in pole_errors(chain, 64)]  # bit for bit
        # the roundoff floor from the real-line bound on |Q_n|, not the strip's
        assert 0.0 < bound <= QuadratureConfig().tol

    @pytest.mark.parametrize("chain", WEDGE)
    def test_entry_at_degree_2k_minus_3(self, chain):
        # t = 45 and i + j = 15: degree 60, within 2 * 32 - 3
        cfg = QuadratureConfig(node_count=32)
        got = kernel_matrix(chain, [45], 8, cfg=cfg, rows=[8], cols=[7])
        assert abs(got - kernel_oracle(chain, [45], 8, rows=[8], cols=[7])) <= 1e-12


class TestKernelSpectral:
    """The spectral kernel one entry at a time: kernel_matrix(..., rows=[i],
    cols=[j]), its pass sized for that entry alone."""

    def test_identity_at_t0(self, example_chain):
        for i in (0, 1, 4, 9):
            for j in (0, 1, 4, 9):
                expect = 1.0 if i == j else 0.0
                assert kernel_entry(example_chain, 0, i, j) == pytest.approx(
                    expect, abs=1e-10)

    def test_forced_return_probability(self, chain_grid):
        # the only length-2 loop at the origin is 0 -> 1 -> 0
        for c in chain_grid[::4]:
            assert kernel_entry(c, 2, 0, 0) == pytest.approx(c.q, abs=1e-10)

    def test_long_run_reaches_stationarity(self, example_chain):
        rev = reversibility(example_chain)
        for j in (0, 1, 3):
            assert kernel_entry(example_chain, 200, 0, j) == pytest.approx(
                float(rev.nu(j)), abs=1e-8)

    def test_matches_dp_oracle_subset(self, example_chain):
        rows, cols = (0, 3, 8, 12), (0, 2, 7, 12)
        dp = kernel_oracle(example_chain, range(31), 12, rows=rows, cols=cols)
        for a, i in enumerate(rows):
            for t in range(31):
                for b, j in enumerate(cols):
                    assert kernel_entry(example_chain, t, i, j) == pytest.approx(
                        dp[t, a, b], abs=1e-9)

    def test_row_sums_to_one(self, example_chain):
        total = sum(kernel_entry(example_chain, 7, 2, j) for j in range(30))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestKernelMatrix:
    def test_c04_set_matches_dp(self, example_chain):
        kernel = kernel_matrix(example_chain, range(61), 12)
        assert kernel.shape == (61, 13, 13)
        dp = kernel_oracle(example_chain, range(61), 12)
        for t in range(61):
            for i in range(13):
                assert np.max(np.abs(kernel[t, i] - dp[t, i])) <= 1e-9, (t, i)

    def test_support_within_1e_13_of_one_matches_dp(self):
        # the Q_n rows at the nodes are right here (test_orthopoly's
        # test_no_atom_inside_the_support), and so are the weights if their
        # 1 - x keeps its digits: 1 - x ~ 1e-14 against x's spacing 5e-20
        c = ChainParams(2.0 ** -50, 2.0 ** -47, 1 - 9 * 2.0 ** -50)  # p + q + r = 1 exactly
        assert 1.0 - c.support[0] < 1e-13
        kernel = kernel_matrix(c, [0, 1, 20, 300], 4)
        dp = kernel_oracle(c, [0, 1, 20, 300], 4)
        assert np.all(np.isnan(kernel) | (np.abs(kernel - dp) <= 1e-9))

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
        assert np.all(np.abs(kernel - kernel_oracle(example_chain, range(11), 3)) <= 1e-9)

    def test_index_sets_slice_the_full_matrix(self, example_chain):
        for c in (example_chain, NEAR_CRITICAL):
            ts = [0, 1, 17, 60]
            full = kernel_matrix(c, ts, 8)
            full_floor = entry_floors(c, ts, 8, None, None)
            for rows, cols in (([2], [3]), ([0, 8, 4], [5]), (range(3), [8, 1]), (None, [6])):
                part = kernel_matrix(c, ts, 8, rows=rows, cols=cols)
                at = np.ix_(range(len(ts)), list(range(9) if rows is None else rows), cols)
                # each pass within its entries' floor in the dtype it ran in
                slack = 1e-15 + entry_floors(c, ts, 8, rows, cols) + full_floor[at]
                assert np.all(np.abs(part - full[at]) <= slack), (rows, cols)

    def test_builds_only_the_rows_it_reads(self, monkeypatch, example_chain):
        built, original = [], mixing.q_bracket_matrix

        def recording(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(mixing, "q_bracket_matrix", recording)
        kernel_matrix(example_chain, [3, 0], 29, rows=[2, 29], cols=[29, 7])
        assert [q.shape[0] for q in built] == [3]

    def test_one_entry_calls_keep_no_q_rows(self, monkeypatch, example_chain):
        # every call builds its own Q_n rows, repeated or not, and repeated
        # calls agree bit for bit: nothing is carried from one call to the next
        built, original = [], mixing.q_bracket_matrix

        def recording(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(mixing, "q_bracket_matrix", recording)
        entries = [(t, 3, j) for t in (0, 7, 40) for j in (0, 5)]
        first = [kernel_entry(example_chain, *entry) for entry in entries]
        second = [kernel_entry(example_chain, *entry) for entry in entries]
        assert len(built) == 2 * len(entries)
        assert first == second

    def test_index_sets_far_below_n_max(self, example_chain):
        # nothing may be sized by n_max: 0..1e12 would take 8 TB
        big = 10 ** 12
        for kernel in (kernel_matrix, kernel_oracle):
            want = kernel(example_chain, [3, 0], 7, rows=[2, 7], cols=[3])
            assert np.array_equal(kernel(example_chain, [3, 0], big, rows=[2, 7], cols=[3]), want)
            with pytest.raises(ValueError, match="index sets"):
                kernel(example_chain, [3], big, rows=[big + 1], cols=[0])

    def test_index_past_int64_is_refused(self, example_chain):
        # checked as Python ints: through float64 these warned and raised IndexError
        for kernel in (kernel_matrix, kernel_oracle):
            for big in (10 ** 20, 2 ** 63):
                with pytest.raises(ValueError, match="below 2\\^63"):
                    kernel(example_chain, [1], big, rows=[big], cols=[0])

    def test_uncertified_entry_is_nan(self, example_chain):
        # pi_0 Q_29 grows like 3^29, so p_7(29, 0) = 0 cancels past extended
        # precision; the entries of row 2 stay certified, and a one-entry call
        # reads NaN too (the kernel command turns it into exit 1)
        kernel = kernel_matrix(example_chain, [7], 29)[0]
        assert np.isnan(kernel[29, 0]) and not np.isnan(kernel[2]).any()
        assert math.isnan(kernel_entry(example_chain, 7, 29, 0))

    def test_no_silent_error_as_p_vanishes(self):
        # the per-entry quadrature this replaces returned entries 1.2e-7 off
        # here: the L1 floor let roundoff-level estimates through unchecked
        p = 10 ** -10.25
        c = ChainParams(p, 0.95 - p, 0.05)
        kernel = kernel_matrix(c, range(21), 4)
        assert np.isnan(kernel).any()
        dp = kernel_oracle(c, range(21), 4)
        assert np.all(np.isnan(kernel) | (np.abs(kernel - dp) <= 1e-9))

    def test_rejects_bad_arguments(self, example_chain):
        for kernel in (kernel_matrix, kernel_oracle):  # the DP twin shares the checks
            for ts, n_max in (([], 3), ([2, -1], 3), ([2], -1)):
                with pytest.raises(ValueError):
                    kernel(example_chain, ts, n_max)
            for rows, cols in (([4], None), (None, [-1]), ([], [0]), ([1], []), ([1.7], None),
                               (None, [0, 2.5])):
                with pytest.raises(ValueError, match="index sets"):
                    kernel(example_chain, [2], 3, rows=rows, cols=cols)
            for ts, n_max in (([2.5], 3), ([2], 1.5)):
                with pytest.raises(ValueError, match="nonnegative integers"):
                    kernel(example_chain, ts, n_max)


def _tv_curve_past_n_cap(chain, cfg, t=40):
    # N_CAP 1e6: near p = q the node count reaches the cap after the cutoff would
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixing, "N_CAP", 10 ** 6)
        return tv_curve(chain, [0, t], cfg=cfg)


# each at a time t (40 by default); integrate_psi's x^80 takes no time
QUADRATURES = [
    (lambda c, cfg, t=40: kernel_matrix(c, [t], 12, cfg=cfg), "kernel_matrix"),
    (_tv_curve_past_n_cap, "tv_curve"),
    (lambda c, cfg, t=40: integrate_psi(build_measure(c), lambda x: x ** 80, cfg=cfg),
     "density"),
    (lambda c, cfg, t=40: kernel_entry(c, t, 0, 12, cfg), "kernel_matrix"),
]
QUADRATURE_IDS = ["kernel_matrix", "tv_curve", "integrate_psi", "kernel_entry"]


@pytest.mark.parametrize("compute, name", QUADRATURES, ids=QUADRATURE_IDS)
def test_override_short_of_the_bound_raises(example_chain, compute, name):
    cfg = QuadratureConfig(node_count=16, tol=1e-300)
    with pytest.raises(QuadratureError, match=f"^{name} quadrature needs [0-9]+ nodes") as info:
        compute(example_chain, cfg)
    assert "node_count override of 16" in str(info.value)
    assert info.value.allowed == 16 and info.value.needed > 16


@pytest.mark.parametrize("compute, name", QUADRATURES, ids=QUADRATURE_IDS)
def test_count_past_the_cap_raises(compute, name):
    # q - p = 1e-4: the strip half-width is log sqrt(q/p) = 1e-4, so K ~ 1e5;
    # at t = 140000 the degree passes 2 NODE_CAP, and so the exact-degree count
    chain = ChainParams(0.49, 0.4901, 0.0199)
    with pytest.raises(QuadratureError, match=f"^{name} quadrature needs [0-9]+ nodes") as info:
        compute(chain, QuadratureConfig(), 140_000)
    assert f"the cap of {NODE_CAP}" in str(info.value)
    assert info.value.allowed == NODE_CAP < info.value.needed


class TestNodeCount:
    # (K, exact) over t <= 60, where every near-critical t is cut at N = t and
    # the exact-degree count 64 certifies degree 120, and at 2000 <= t <= 2020,
    # where the strip count of the worked example and of (0.3, 0.32, 0.38) is
    # the lesser, and the nearer chains (cut at N = t, strip counts 2880 and
    # 3200) take the exact count 2048 of degree 4040
    @pytest.mark.parametrize("chain, short, deep", [
        (ChainParams(1 / 11, 9 / 11, 1 / 11), (16, False), (16, False)),
        (NEAR_CRITICAL, (64, True), (720, False)),
        (ChainParams(0.3, 0.305, 0.395), (64, True), (2048, True)),
        (ChainParams(0.33, 0.335, 0.335), (64, True), (2048, True)),
    ])
    def test_tv_curve_counts(self, chain, short, deep):
        for ts, (nodes, exact) in ((range(61), short), (range(2000, 2021), deep)):
            _, k, bound, *errors, dtype = tv_quadrature(chain, ts)
            assert k == nodes and bound <= QuadratureConfig().tol
            assert errors == ([dtype(e) for e in pole_errors(chain, k)] if exact else [0.0, 0.0])

    def test_sizes_are_16_times_5_smooth(self, chain_grid):
        for c in chain_grid + [NEAR_CRITICAL]:
            for ts in ([0], [40], range(61)):
                m = tv_quadrature(c, ts)[1] // 16
                for f in (2, 3, 5):
                    while m % f == 0:
                        m //= f
                assert m == 1, (c, ts)

    def test_override_is_run_as_given(self, example_chain):
        k, bound = tv_quadrature(example_chain, range(61), cfg=QuadratureConfig(node_count=40))[1:3]
        assert k == 40 and bound < tv_quadrature(example_chain, range(61))[2]

    @pytest.mark.parametrize("call, nodes", [
        (lambda c: kernel_matrix(c, [0], 8), 16),  # verify's orthogonality row
        (lambda c: kernel_matrix(c, range(21), 4), 16),  # verify's kernel row
        (lambda c: kernel_matrix(c, range(31), 12), 32),
        (lambda c: kernel_matrix(c, range(21), 4, rows=[1], cols=[3]), 16),
        (lambda c: kernel_matrix(c, range(31), 6, rows=[5], cols=[6]), 32),  # a bench job
        (lambda c: kernel_matrix(c, range(3), 2, rows=[1], cols=[2]), 16),  # the bench probe
        (lambda c: kernel_matrix(c, range(61), 12), 48),
    ], ids=["orthogonality", "kernel_row", "t30_n12", "entry_1_3", "bench_job", "bench_probe",
            "t60_n12"])
    def test_kernel_pass_is_sized_for_the_entries_asked(self, monkeypatch, example_chain,
                                                         call, nodes):
        # the plan bounds |Q_i Q_j| for the largest row i and column j asked,
        # at degree max(ts) + i + j
        asked = []

        def recording(chain, n_nodes, dtype):
            asked.append(n_nodes)
            return theta_nodes(chain, n_nodes, dtype)
        monkeypatch.setattr(mixing, "theta_nodes", recording)
        call(example_chain)
        assert set(asked) == {nodes}

    def test_one_node_count_per_call(self, monkeypatch, example_chain):
        asked = []

        def recording(chain, n_nodes, dtype):
            asked.append(n_nodes)
            return theta_nodes(chain, n_nodes, dtype)
        monkeypatch.setattr(mixing, "theta_nodes", recording)
        for c in (example_chain, NEAR_CRITICAL):
            for call in (lambda: tv_curve(c, [0, 7, 40, 3, 500]),
                         lambda: tv_curve(c, range(0, 200, 3), series_tol=1e-14),
                         lambda: kernel_matrix(c, [17, 0, 60], 8),
                         lambda: kernel_matrix(c, range(31), 3, rows=[2], cols=[3])):
                asked.clear()
                call()
                assert len(set(asked)) == 1, asked


class TestDecayRate:
    def test_log_slope_recovers_mixing_rate(self, example_chain):
        vals = np.array([tv_curve(example_chain, [t])[0] for t in range(30, 81)])
        slope = oracles.log_slope(vals, 0, 50)
        assert abs(slope - math.log(0.9)) <= 0.01 * abs(math.log(0.9))

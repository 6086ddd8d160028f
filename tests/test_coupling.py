import math

import numpy as np
import pytest

from kmmix import ChainParams, SurvivalCurve, hitting_pmf_exact_curve, \
    hitting_pmf_multinomial, hitting_tail_asymptote, rate_fit, reversibility, \
    simulate_classical, simulate_modified, stationary_hitting_survival, tv_oracle
from kmmix import coupling
from kmmix.cli import DEFAULT_SEED
from kmmix.coupling import _keys, _last_below, _uniforms, _unit

import oracles

REPLICAS = 100_000
HORIZON = 100
ORACLE_CHAINS = [(1 / 11, 9 / 11, 1 / 11), (0.3, 0.32, 0.38), (0.1, 0.7, 0.2)]
# the move thresholds' edges: p * 2^53 < 1 with p + r rounding to 1.0, and
# p + r = 1.0000000000001
THRESHOLD_CHAINS = [(1e-17, 3e-17, 1.0), (1e-13, 2e-13, 1.0)]
SIMULATORS = {False: simulate_classical, True: simulate_modified}


@pytest.fixture(scope="module")
def classical_curve(example_chain):
    return simulate_classical(example_chain, HORIZON, REPLICAS, DEFAULT_SEED)


@pytest.fixture(scope="module")
def modified_curve(example_chain):
    return simulate_modified(example_chain, HORIZON, REPLICAS, DEFAULT_SEED)


class TestHittingPmfs:
    def test_multinomial_single_down_run(self, chain_grid):
        for c in chain_grid[::5]:
            for n in (1, 2, 5):
                assert hitting_pmf_multinomial(c, n, n) == pytest.approx(
                    c.q ** n, rel=1e-13)

    def test_multinomial_one_hold(self, example_chain):
        assert hitting_pmf_multinomial(example_chain, 1, 2) == pytest.approx(
            2 * (9 / 11) * (1 / 11), rel=1e-13)

    def test_multinomial_two_compositions(self, example_chain):
        assert hitting_pmf_multinomial(example_chain, 1, 3) == pytest.approx(
            270 / 1331, rel=1e-13)

    def test_exact_one_step(self, chain_grid):
        for c in chain_grid[::5]:
            assert hitting_pmf_exact_curve(c, 1, 1)[1] == pytest.approx(c.q, rel=1e-15)

    def test_exact_three_step_paths(self, example_chain):
        # first-passage words of length 3 from state 1: UDD and SSD
        assert hitting_pmf_exact_curve(example_chain, 1, 3)[3] == pytest.approx(
            90 / 1331, rel=1e-13)

    def test_exact_sums_to_one(self, example_chain):
        total = hitting_pmf_exact_curve(example_chain, 1, 400).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_cycle_lemma_factor(self, example_chain):
        # the unrestricted multinomial count overcounts first passages by k/n
        for n in range(1, 11):
            curve = hitting_pmf_exact_curve(example_chain, n, 40)
            for k in range(n, 41):
                lhs = hitting_pmf_multinomial(example_chain, n, k)
                assert abs(lhs - (k / n) * curve[k]) <= 1e-12

    def test_cycle_lemma_other_chains(self, chain_grid):
        for c in chain_grid[::6]:
            curve = hitting_pmf_exact_curve(c, 3, 25)
            for k in range(3, 26):
                lhs = hitting_pmf_multinomial(c, 3, k)
                assert abs(lhs - (k / 3) * curve[k]) <= 1e-12

    def test_exact_bit_identical_to_fresh_array_dp(self, example_chain, chain_grid):
        for c in [example_chain] + chain_grid[::6]:
            for n in (1, 2, 5, 20):
                for k_max in (0, 1, 3, 40, 300):
                    want = oracles.hitting_pmf_by_steps(c, n, k_max)
                    assert np.array_equal(hitting_pmf_exact_curve(c, n, k_max), want)

    def test_domain_validation(self, example_chain):
        with pytest.raises(ValueError):
            hitting_pmf_multinomial(example_chain, 3, 2)
        with pytest.raises(ValueError):
            hitting_pmf_exact_curve(example_chain, 0, 5)
        with pytest.raises(ValueError, match="k_max must be nonnegative"):
            hitting_pmf_exact_curve(example_chain, 1, -1)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            stationary_hitting_survival(example_chain, 0)


class TestTailAsymptote:
    def test_worked_example_constant(self, example_chain):
        assert hitting_tail_asymptote(example_chain, 0) == pytest.approx(
            154 / 19, rel=1e-13)

    def test_pure_geometric_slope(self, example_chain):
        beta = example_chain.support[1]
        for t in (0, 5, 40):
            ratio = hitting_tail_asymptote(example_chain, t + 1) / hitting_tail_asymptote(example_chain, t)
            assert ratio == pytest.approx(beta, rel=1e-14)

    def test_stationary_survival_is_exact(self, example_chain):
        # cross-check the absorbing DP against pmf summation over start states
        surv = stationary_hitting_survival(example_chain, 40)
        rev = reversibility(example_chain)
        for t in (0, 1, 7, 25, 40):
            total = 0.0
            for n in range(1, t + 2):
                tail = 1.0 - hitting_pmf_exact_curve(example_chain, n, t).sum()
                total += float(rev.nu(n)) * tail
            total += rev.nu_tail(t + 1)   # starts above t+1 cannot be absorbed yet
            assert surv[t] == pytest.approx(total, abs=1e-13)

    def test_stationary_survival_bit_identical_to_fresh_array_dp(self, example_chain,
                                                                  chain_grid):
        for c in [example_chain] + chain_grid[::6]:
            for horizon in (1, 2, 3, 40, 257):
                want = oracles.stationary_survival_by_steps(c, horizon)
                assert np.array_equal(stationary_hitting_survival(c, horizon), want)

    def test_stationary_survival_monotone(self, example_chain):
        surv = stationary_hitting_survival(example_chain, 120)
        assert np.all(np.diff(surv) <= 1e-15)

    def test_stationary_tail_order(self, example_chain):
        # the geometric order log(beta) is recovered to first order; the
        # exact curve carries a t^(-3/2) spectral-edge prefactor, so the
        # windowed slope sits a few percent steep of log(beta)
        surv = stationary_hitting_survival(example_chain, 100)
        slope = oracles.log_slope(surv, 40, 100)
        beta = example_chain.support[1]
        assert abs(slope - math.log(beta)) <= 0.10 * abs(math.log(beta))


class TestSimulations:
    def test_initial_survival_matches_stationary_mass(self, classical_curve, modified_curve, example_chain):
        expect = 1.0 - float(reversibility(example_chain).nu(0))
        for curve in (classical_curve, modified_curve):
            assert abs(curve.survival[0] - expect) <= 3.0 * max(curve.stderr[0], 1e-12)

    def test_survival_nonincreasing(self, classical_curve, modified_curve):
        for curve in (classical_curve, modified_curve):
            assert np.all(np.diff(curve.survival) <= 0.0)

    def test_stderr_formula(self, modified_curve):
        s = modified_curve.survival
        assert np.allclose(modified_curve.stderr,
                           np.sqrt(s * (1.0 - s) / modified_curve.replicas))

    def test_coupling_inequality_both_modes(self, classical_curve, modified_curve, example_chain):
        for t in range(HORIZON + 1):
            tv = tv_oracle(example_chain, t)
            for curve in (classical_curve, modified_curve):
                assert tv <= curve.survival[t] + 3.0 * curve.stderr[t]

    def test_deterministic_repeat(self, example_chain, modified_curve):
        again = simulate_modified(example_chain, HORIZON, REPLICAS, DEFAULT_SEED)
        assert np.array_equal(again.survival, modified_curve.survival)
        assert np.array_equal(again.stderr, modified_curve.stderr)

    def test_replica_streams_are_counter_based(self):
        # adding replicas must not disturb existing replicas' draws
        small = _uniforms(_keys(123, np.arange(1000, dtype=np.uint64)), 5, 1, 1000)
        large = _uniforms(_keys(123, np.arange(4000, dtype=np.uint64)), 5, 1, 4000)
        assert np.array_equal(small, large[:1000])

    def test_matches_exact_pair_dp_pointwise(self, classical_curve, modified_curve, example_chain):
        for curve, sync in ((classical_curve, False), (modified_curve, True)):
            dp = oracles.coupling_survival_dp(example_chain, 60, synchronized=sync)
            for t in range(61):
                sigma = math.sqrt(max(dp[t] * (1 - dp[t]), 1e-12) / curve.replicas)
                assert abs(curve.survival[t] - dp[t]) <= 5.0 * sigma

    def test_modified_rate_matches_pair_dp(self, modified_curve, example_chain):
        fit = rate_fit(modified_curve, (20, HORIZON))
        dp = oracles.coupling_survival_dp(example_chain, HORIZON, synchronized=True)
        dp_rate = math.exp(oracles.log_slope(dp, 20, HORIZON))
        assert abs(fit.rate - dp_rate) <= 0.015

    def test_classical_rate_matches_pair_dp(self, classical_curve, example_chain):
        fit = rate_fit(classical_curve, (20, 80))
        dp = oracles.coupling_survival_dp(example_chain, 80, synchronized=False)
        dp_rate = math.exp(oracles.log_slope(dp, 20, 80))
        assert abs(fit.rate - dp_rate) <= 0.015

    def test_coupled_rates_dominate_tv_rate(self, example_chain):
        # P(tau > t) >= TV(t) forces both asymptotic rates to at least 0.9
        for sync in (False, True):
            dp = oracles.coupling_survival_dp(example_chain, 120, synchronized=sync, cap=300)
            rate = math.exp(oracles.log_slope(dp, 80, 120))
            assert rate >= 0.9 - 1e-3


def assert_matches_full_loop(chain, horizon, replicas, seed, sync):
    curve = SIMULATORS[sync](chain, horizon, replicas, seed)
    survival, stderr = oracles.coupling_survival_full(chain, horizon, replicas, seed, sync)
    assert np.array_equal(curve.survival, survival)
    assert np.array_equal(curve.stderr, stderr)
    return curve


class TestLiveSet:
    """The live-set simulation steps only uncoupled replicas; the full-array
    loop in oracles steps them all.  Their outputs must agree bit for bit."""

    @pytest.mark.parametrize("sync", (False, True))
    @pytest.mark.parametrize("seed", (0, 11, 2 ** 64 - 1, -1))
    @pytest.mark.parametrize("pqr", ORACLE_CHAINS + THRESHOLD_CHAINS)
    def test_bit_identical_to_full_array_loop(self, pqr, seed, sync):
        chain = ChainParams(*pqr)
        for horizon in (0, 1, 100):
            for replicas in (1, 20_000):
                assert_matches_full_loop(chain, horizon, replicas, seed, sync)

    @pytest.mark.parametrize("sync", (False, True))
    def test_live_set_empties_before_horizon(self, example_chain, sync):
        curve = assert_matches_full_loop(example_chain, 200, 2000, 0, sync)
        assert curve.survival[-1] == 0.0 and curve.survival[50] > 0.0

    @pytest.mark.parametrize("sync", (False, True))
    def test_every_replica_starts_coupled(self, example_chain, sync):
        curve = assert_matches_full_loop(example_chain, 5, 3, 6, sync)
        assert np.all(curve.survival == 0.0)

    def test_index_draws_are_full_draws_at_those_indices(self):
        rng = np.random.default_rng(5)
        total = 5000
        for seed, step, channel in ((0, 1, 0), (11, 37, 2), (2 ** 64 - 1, 99, 1), (-1, 0, 3)):
            full = _uniforms(_keys(seed, np.arange(total, dtype=np.uint64)), step, channel, total)
            assert full.dtype == np.uint64
            assert np.array_equal(_unit(full), oracles.counter_uniforms(seed, step, channel, total))
            for k in (0, 1, 17, 2500, total):
                idx = np.sort(rng.choice(total, size=k, replace=False)).astype(np.uint64)
                out = np.full(k + 3, 7, dtype=np.uint64)  # a longer reused buffer
                words = _uniforms(_keys(seed, idx), step, channel, k, out)
                assert np.array_equal(words, full[idx]) and np.array_equal(out[:k], full[idx])
                assert np.all(out[k:] == 7)

    @pytest.mark.parametrize("pqr", ORACLE_CHAINS + THRESHOLD_CHAINS)
    def test_word_thresholds_match_float_comparison(self, pqr):
        # u < prob exactly when word <= _last_below(prob), u the word's top 53
        # bits over 2^53; checked at the boundary words ceil(prob 2^53) 2^11 - 1
        # and ceil(prob 2^53) 2^11, where they exist, and at both ends
        chain = ChainParams(*pqr)
        for prob in (chain.p, chain.p + chain.r):
            first_above = math.ceil(prob * 2.0 ** 53) << 11
            boundary = [w for w in (first_above - 1, first_above) if w < 2 ** 64]
            words = np.array(boundary + [0, 2 ** 64 - 1], dtype=np.uint64)
            assert np.array_equal(words <= _last_below(prob), _unit(words) < prob)
        if chain.p + chain.r >= 1.0:
            assert _last_below(chain.p + chain.r) == np.uint64(2 ** 64 - 1)

    @pytest.mark.parametrize("sync", (False, True))
    def test_every_draw_call_reports_an_int_count(self, example_chain, monkeypatch, sync):
        # the benchmark's tracer counts draws from the `replicas` argument
        calls = []

        def recording(keys, step, channel, replicas, out=None):
            words = _uniforms(keys, step, channel, replicas, out)
            calls.append((replicas, words.size))
            return words

        monkeypatch.setattr(coupling, "_uniforms", recording)
        SIMULATORS[sync](example_chain, 30, 500, DEFAULT_SEED)
        assert len(calls) > 30
        for replicas, size in calls:
            assert type(replicas) is int and replicas == size

    @pytest.mark.parametrize("sync", (False, True))
    @pytest.mark.parametrize("pqr", ORACLE_CHAINS)
    def test_draws_per_active_replica_step(self, pqr, monkeypatch, sync):
        # active replica-steps read off the survival curve as the benchmark's
        # tracer does: the pairs still apart at the start of each step
        draws = [0] * 4

        def counting(keys, step, channel, replicas, out=None):
            draws[channel] += replicas
            return _uniforms(keys, step, channel, replicas, out)

        monkeypatch.setattr(coupling, "_uniforms", counting)
        replicas = 5000
        curve = SIMULATORS[sync](ChainParams(*pqr), 60, replicas, 3)
        active = sum(round(float(s) * replicas) for s in curve.survival[:-1])
        assert active > 0 and draws[3] == replicas  # the stationary start
        moves = sum(draws[:3])
        if sync:
            assert active <= moves <= 2 * active
        else:
            assert draws[0] == 0 and draws[1] == draws[2] == active

    @pytest.mark.parametrize("horizon, replicas", [(2 ** 30, 1), (0, 2 ** 32 + 1), (10, 0),
                                                   (-1, 10)])
    def test_counter_fields_guarded(self, example_chain, monkeypatch, horizon, replicas):
        # the guards must fire before anything is drawn or allocated: disjoint
        # counter blocks, at least one replica and a nonnegative horizon
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the counter guard")

        monkeypatch.setattr(coupling, "_uniforms", no_draws)
        match = {0: "replicas must be at least 1", 10: "horizon must be nonnegative"}.get(
            replicas, "2\\^30")
        for simulate in SIMULATORS.values():
            with pytest.raises(ValueError, match=match):
                simulate(example_chain, horizon, replicas, 0)


class TestRateFit:
    def test_exact_geometric_input(self):
        t = np.arange(0, 51)
        curve = SurvivalCurve(horizon=50, survival=0.7 * 0.93 ** t,
                              stderr=np.zeros(51), replicas=1, seed=0, mode="synthetic")
        fit = rate_fit(curve, (5, 45))
        assert fit.rate == pytest.approx(0.93, rel=1e-12)
        assert fit.stderr <= 1e-12

    def test_zero_survival_window_rejected(self):
        s = np.array([1.0, 0.5, 0.0, 0.0])
        curve = SurvivalCurve(horizon=3, survival=s, stderr=np.zeros(4),
                              replicas=10, seed=0, mode="synthetic")
        with pytest.raises(ValueError, match="zero"):
            rate_fit(curve, (0, 3))

    def test_window_bounds_validated(self, modified_curve):
        with pytest.raises(ValueError, match="window"):
            rate_fit(modified_curve, (50, 40))
        with pytest.raises(ValueError, match="window"):
            rate_fit(modified_curve, (0, HORIZON + 1))

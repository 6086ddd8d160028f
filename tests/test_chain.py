from fractions import Fraction

import numpy as np
import pytest

from kmmix import ChainParams, DistributionVector, drift_identity_residual, evolve, \
    reversibility, tv_oracle, tv_oracle_curve

import oracles


class TestValidation:
    def test_worked_example_is_valid(self):
        c = ChainParams(1 / 11, 9 / 11, 1 / 11)
        assert c.p == 1 / 11 and c.q == 9 / 11

    def test_q_not_exceeding_p_rejected(self):
        with pytest.raises(ValueError, match="q must exceed p"):
            ChainParams(0.3, 0.3, 0.4)

    def test_nonstochastic_rejected(self):
        with pytest.raises(ValueError, match="stochastic"):
            ChainParams(0.2, 0.5, 0.4)

    def test_zero_p_rejected(self):
        with pytest.raises(ValueError, match="p must be positive"):
            ChainParams(0.0, 0.6, 0.4)

    def test_subnormal_p_rejected(self):
        # 1/p would overflow in the series cutoff (an OverflowError traceback)
        with pytest.raises(ValueError, match="normal float"):
            ChainParams(1e-320, 0.5, 0.5 - 1e-320)
        assert ChainParams(2.3e-308, 0.5, 0.5).p == 2.3e-308

    def test_zero_r_rejected(self):
        with pytest.raises(ValueError, match="r must be positive"):
            ChainParams(0.2, 0.8, 0.0)

    def test_grid_implies_p_below_half(self, chain_grid):
        # q > p and r > 0 force p < 1/2 (denominator of the envelope constant A)
        assert all(c.p < 0.5 for c in chain_grid)


class TestReversibility:
    def test_rho_worked_example(self, example_chain):
        rev = reversibility(example_chain)
        assert rev.rho == pytest.approx(19 / 8, abs=1e-14)

    def test_pi_closed_form(self, example_chain):
        rev = reversibility(example_chain)
        assert rev.pi(0) == 1.0
        assert rev.pi(1) == pytest.approx(11 / 9, rel=1e-14)
        assert rev.pi(2) == pytest.approx(11 / 81, rel=1e-14)

    def test_detailed_balance_to_100(self, chain_grid):
        for c in chain_grid:
            rev = reversibility(c)
            n = np.arange(101)
            pi = rev.pi(n)
            up = pi[:-1] * np.where(n[:-1] == 0, 1.0, c.p)   # pi_n P(n, n+1)
            down = pi[1:] * c.q                               # pi_{n+1} P(n+1, n)
            assert np.all(np.abs(up - down) <= 1e-12 * np.maximum(up, 1e-300))

    def test_tail_closed_form_matches_direct_sum(self, chain_grid):
        for c in chain_grid:
            rev = reversibility(c)
            for n in (0, 1, 7, 30):
                direct = float(rev.pi(np.arange(n + 1, n + 1200)).sum())
                assert rev.pi_tail(n) == pytest.approx(direct, rel=1e-12)

    def test_rho_equals_one_plus_full_tail(self, chain_grid):
        for c in chain_grid:
            rev = reversibility(c)
            assert rev.rho == pytest.approx(1.0 + rev.pi_tail(0), rel=1e-13)

    def test_inverse_cdf_against_scan(self, example_chain):
        rev = reversibility(example_chain)
        cdf = np.cumsum(np.asarray(rev.nu(np.arange(80))))
        u = np.linspace(0.0, 0.999999, 5003)
        expect = np.searchsorted(cdf, u, side="left")
        got = rev.sample_stationary(u)
        assert np.array_equal(got, expect)


class TestEvolve:
    def test_t0_is_identity(self, example_chain):
        mu = evolve(example_chain, DistributionVector.point(0), 0)
        assert mu.offset == 0 and np.array_equal(mu.mass, [1.0])

    def test_one_step_from_origin(self, example_chain):
        mu = evolve(example_chain, DistributionVector.point(0), 1)
        assert mu.prob(1) == 1.0 and mu.total() == 1.0

    def test_two_steps_from_origin(self, example_chain):
        mu = evolve(example_chain, DistributionVector.point(0), 2)
        assert mu.prob(0) == pytest.approx(9 / 11, rel=1e-15)
        assert mu.prob(1) == pytest.approx(1 / 11, rel=1e-15)
        assert mu.prob(2) == pytest.approx(1 / 11, rel=1e-15)

    def test_support_growth_and_exactness_flags(self, example_chain):
        mu = evolve(example_chain, DistributionVector.point(0), 37)
        assert mu.offset == 0 and mu.mass.size == 38

    def test_matches_matrix_oracle(self, chain_grid):
        for c in chain_grid[::5]:
            for t in (3, 11, 40):
                mu = evolve(c, DistributionVector.point(0), t)
                ref = oracles.law_after(c, 0, t, 80)
                assert np.allclose(mu.mass, ref[: t + 1], atol=1e-14)

    @pytest.mark.parametrize("start", [0, 1, 5])
    def test_slices_are_bit_identical_to_fancy_index_steps(self, start):
        # the slice adds run in the fancy-index loop's order, so every bit holds
        for c in (ChainParams(1 / 11, 9 / 11, 1 / 11), ChainParams(0.3, 0.32, 0.38),
                  ChainParams(0.1, 0.7, 0.2)):
            for t in (0, 1, 2, 7, 37, 300):
                mu = evolve(c, DistributionVector.point(start), t)
                offset, mass = oracles.evolve_fancy_index(c, DistributionVector.point(start), t)
                assert mu.offset == offset and np.array_equal(mu.mass, mass), (c, t)

    def test_mass_conserved_for_ten_thousand_steps(self, example_chain):
        mu = evolve(example_chain, DistributionVector.point(0), 10_000)
        assert abs(mu.total() - 1.0) <= 1e-12

    def test_general_start(self, example_chain):
        mu = evolve(example_chain, DistributionVector.point(5), 4)
        ref = oracles.law_after(example_chain, 5, 4, 40)
        assert np.allclose(mu.mass, ref[mu.offset: mu.offset + mu.mass.size], atol=1e-15)

    def test_rejects_negative_t(self, example_chain):
        with pytest.raises(ValueError):
            evolve(example_chain, DistributionVector.point(0), -1)


class TestTvOracle:
    def test_t0_value(self, example_chain):
        assert tv_oracle(example_chain, 0) == pytest.approx(11 / 19, abs=1e-15)

    def test_t1_value(self, example_chain):
        assert tv_oracle(example_chain, 1) == pytest.approx(83 / 171, abs=1e-15)

    def test_matches_matrix_oracle(self, chain_grid):
        for c in chain_grid[::4]:
            for t in (0, 5, 23, 40):
                assert tv_oracle(c, t) == pytest.approx(
                    oracles.tv_by_matrix(c, t), abs=1e-12)

    def test_nonincreasing_to_200(self, example_chain):
        vals = [tv_oracle(example_chain, t) for t in range(201)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bounded_by_one(self, chain_grid):
        assert all(0.0 <= tv_oracle(c, 0) <= 1.0 for c in chain_grid)

    def test_per_t_oracle_is_a_prefix_of_the_sweep(self, example_chain):
        swept = tv_oracle_curve(example_chain, 200)
        assert swept == [tv_oracle(example_chain, t) for t in range(201)]

    @pytest.mark.parametrize("pqr", [(Fraction(1, 11), Fraction(9, 11), Fraction(1, 11)),
                                     (Fraction(3, 10), Fraction(8, 25), Fraction(19, 50))])
    def test_relative_to_exact_rational_dp(self, pqr):
        # the worked example and a near-critical chain (q - p = 0.02)
        swept = tv_oracle_curve(ChainParams(*map(float, pqr)), 30)
        for t, value in enumerate(swept):
            exact = float(oracles.tv_by_fraction(*pqr, t))
            assert abs(value - exact) <= 1e-14 * exact, t

    def test_relative_accuracy_where_tv_is_tiny(self):
        # TV(500) is 1.5e-55 here; a DP carrying the unit mass's roundoff
        # would read about 1e-15
        pqr = (Fraction(1, 10), Fraction(7, 10), Fraction(1, 5))
        swept = tv_oracle_curve(ChainParams(*map(float, pqr)), 500)
        for t in (100, 300, 500):
            exact = float(oracles.tv_by_fraction(*pqr, t))
            assert abs(swept[t] - exact) <= 1e-13 * exact, t

    def test_rejects_negative_t(self, example_chain):
        with pytest.raises(ValueError):
            tv_oracle(example_chain, -1)

    def test_sweep_rejects_negative_horizon(self, example_chain):
        with pytest.raises(ValueError):
            tv_oracle_curve(example_chain, -1)


class TestDriftIdentity:
    def test_x1_worked_arithmetic(self, example_chain):
        # q V(0) + r V(1) + p V(2) = 21/11 = (7/11) * 3 with V(x) = 3^x
        expect = Fraction(9, 11) * 1 + Fraction(1, 11) * 3 + Fraction(1, 11) * 9
        assert expect == Fraction(21, 11)
        assert drift_identity_residual(example_chain, 1) == pytest.approx(0.0, abs=1e-14)

    def test_x0_forced_move(self, example_chain):
        assert drift_identity_residual(example_chain, 0) == pytest.approx(0.0, abs=1e-14)

    def test_relative_residual_to_50(self, chain_grid):
        for c in chain_grid:
            for x in range(51):
                rel = abs(drift_identity_residual(c, x)) / (c.q / c.p) ** (x / 2.0)
                assert rel <= 1e-12

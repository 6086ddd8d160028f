import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kmmix import ChainParams, drift_identity_residual, kernel_oracle, reversibility, \
    tv_oracle, tv_oracle_curve
from kmmix import chain as chain_module
from kmmix.chain import _kernel_args

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


def law(chain, start, t, n_max=None):
    """The law after t steps from the point mass at start, on states
    0..n_max (default start + t, the whole reachable block): kernel_oracle's
    row start."""
    n_max = start + t if n_max is None else n_max
    return kernel_oracle(chain, [t], n_max, rows=[start])[0, 0]


class TestEvolve:
    """The DP evolution of a point start, read through kernel_oracle."""

    def test_t0_is_identity(self, example_chain):
        assert np.array_equal(law(example_chain, 0, 0), [1.0])
        assert np.array_equal(law(example_chain, 2, 0), [0.0, 0.0, 1.0])

    def test_one_step_from_origin(self, example_chain):
        mu = law(example_chain, 0, 1)
        assert np.array_equal(mu, [0.0, 1.0]) and mu.sum() == 1.0

    def test_two_steps_from_origin(self, example_chain):
        mu = law(example_chain, 0, 2)
        assert mu[0] == pytest.approx(9 / 11, rel=1e-15)
        assert mu[1] == pytest.approx(1 / 11, rel=1e-15)
        assert mu[2] == pytest.approx(1 / 11, rel=1e-15)

    def test_support_growth_and_exactness_flags(self, example_chain):
        # t steps from 0 reach 0..t: state 37 carries mass at t = 37, 38 none
        mu = law(example_chain, 0, 37, 40)
        assert mu[37] > 0.0 and np.array_equal(mu[38:], [0.0, 0.0, 0.0])

    def test_matches_matrix_oracle(self, chain_grid):
        for c in chain_grid[::5]:
            for t in (3, 11, 40):
                ref = oracles.law_after(c, 0, t, 80)
                assert np.allclose(law(c, 0, t), ref[: t + 1], atol=1e-14)

    @pytest.mark.parametrize("start", [0, 1, 5])
    def test_slices_are_bit_identical_to_fancy_index_steps(self, start):
        # the slice adds run in the fancy-index loop's order, so every bit holds
        for c in (ChainParams(1 / 11, 9 / 11, 1 / 11), ChainParams(0.3, 0.32, 0.38),
                  ChainParams(0.1, 0.7, 0.2)):
            for t in (0, 1, 2, 7, 37, 300):
                mu = law(c, start, t)
                offset, mass = oracles.evolve_fancy_index(c, (start, np.ones(1)), t)
                assert offset == max(start - t, 0) and not mu[:offset].any(), (c, t)
                assert np.array_equal(mu[offset:], mass), (c, t)

    def test_mass_conserved_for_ten_thousand_steps(self, example_chain):
        assert abs(law(example_chain, 0, 10_000).sum() - 1.0) <= 1e-12

    def test_general_start(self, example_chain):
        ref = oracles.law_after(example_chain, 5, 4, 40)
        assert np.allclose(law(example_chain, 5, 4), ref[:10], atol=1e-15)

    def test_rejects_negative_t(self, example_chain):
        with pytest.raises(ValueError):
            law(example_chain, 0, -1, 0)


B = chain_module._ROWS  # the rows of a full block of tv_oracle_curve at small t
EDGES = (B - 1, B, B + 1, 2 * B, 2 * B + 1)  # the sweep's first blocks are t = 1..B, B+1..2B


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

    def test_values_are_python_floats(self, chain_grid):
        # one exact type per column lets the CLI's writer convert it at once
        for c in chain_grid[::4]:
            assert {type(v) for v in tv_oracle_curve(c, 5)} == {float}

    @pytest.mark.parametrize("pqr", [(Fraction(1, 11), Fraction(9, 11), Fraction(1, 11)),
                                     (Fraction(3, 10), Fraction(8, 25), Fraction(19, 50))])
    def test_relative_to_exact_rational_dp(self, pqr):
        # the worked example and a near-critical chain (q - p = 0.02), to 30
        # and on either side of the first block edges
        swept = tv_oracle_curve(ChainParams(*map(float, pqr)), EDGES[-1])
        for t in [*range(31), *EDGES]:
            exact = float(oracles.tv_by_fraction(*pqr, t))
            assert abs(swept[t] - exact) <= 1e-14 * exact, t

    def test_relative_accuracy_where_tv_is_tiny(self):
        # TV(500) is 1.5e-55 here; a DP carrying the unit mass's roundoff
        # would read about 1e-15.  Blocks of B rows end at 4B and 7B.
        pqr = (Fraction(1, 10), Fraction(7, 10), Fraction(1, 5))
        swept = tv_oracle_curve(ChainParams(*map(float, pqr)), 500)
        for t in (100, 300, 500, B, B + 1, 4 * B, 4 * B + 1, 7 * B, 7 * B + 1):
            exact = float(oracles.tv_by_fraction(*pqr, t))
            assert abs(swept[t] - exact) <= 1e-13 * exact, t

    def test_sweeps_to_block_edges_are_prefixes(self, example_chain):
        # the blocks' times and widths are fixed by t alone, so a sweep ending
        # on either side of a block's edge is a prefix of a longer one
        longest = tv_oracle_curve(example_chain, 3 * B)
        for t_max in EDGES:
            swept = tv_oracle_curve(example_chain, t_max)
            assert swept == longest[: t_max + 1] and {type(v) for v in swept} == {float}

    def test_prefixes_where_the_cell_budget_shrinks_the_block(self, monkeypatch, example_chain):
        # 1000 cells: blocks of 15 rows from t = 1, of 7 from t = 64 and of 4
        # from t = 138; every t_max to 150 ends on or next to one of the edges
        monkeypatch.setattr(chain_module, "_CELLS", 1000)
        longest = tv_oracle_curve(example_chain, 160)
        for t_max in range(151):
            swept = tv_oracle_curve(example_chain, t_max)
            assert swept == longest[: t_max + 1] and {type(v) for v in swept} == {float}, t_max
        exact = [float(oracles.tv_by_fraction(Fraction(1, 11), Fraction(9, 11), Fraction(1, 11), t))
                 for t in (15, 16, 150)]
        assert all(abs(longest[t] - e) <= 1e-14 * e for t, e in zip((15, 16, 150), exact))

    def test_long_sweep_keeps_to_the_cell_budget(self, example_chain):
        # at t_max = 20000 a block of B rows of full width would take 10 MB;
        # the sweep holds a block of at most _CELLS doubles and two
        # temporaries its size, besides O(t_max) arrays
        t_max = 20000
        tracemalloc.start()
        try:
            values = tv_oracle_curve(example_chain, t_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == t_max + 1
        # 8 bytes per cell; per t: nu and the tails (8 each), the row carried
        # and its copy in the next block (8 each), a Python float of the
        # values list (32) and 16 to spare (2.8 MB measured against 3.2 MB)
        assert peak <= 8 * 3 * chain_module._CELLS + 80 * t_max, peak
        assert peak < 8 * B * t_max

    def test_rejects_negative_t(self, example_chain):
        with pytest.raises(ValueError):
            tv_oracle(example_chain, -1)

    def test_sweep_rejects_negative_horizon(self, example_chain):
        with pytest.raises(ValueError):
            tv_oracle_curve(example_chain, -1)


class TestKernelOracle:
    CHAINS = (ChainParams(1 / 11, 9 / 11, 1 / 11), ChainParams(0.3, 0.32, 0.38),
              ChainParams(0.1, 0.7, 0.2))

    def test_bit_identical_to_one_step_at_a_time(self):
        for c in self.CHAINS:
            want = oracles.kernel_by_steps(c, 60, 12)
            assert np.array_equal(kernel_oracle(c, range(61), 12), want), c

    def test_unsorted_and_duplicate_times(self, chain_grid):
        ts = [17, 3, 40, 3, 0, 17, 25]
        for c in chain_grid[::6]:
            got = kernel_oracle(c, ts, 5)
            assert got.shape == (7, 6, 6)
            for block, t in zip(got, ts):
                for i in range(6):
                    ref = oracles.law_after(c, i, t, 60)[:6]
                    np.testing.assert_allclose(block[i], ref, rtol=0.0, atol=1e-15)

    def test_index_sets(self, example_chain):
        ts = [0, 1, 17, 60]
        full = kernel_oracle(example_chain, ts, 8)
        for rows, cols in (([2], [3]), ([0, 8, 4], [5]), (range(3), [8, 1]), (None, [6]),
                           ([3, 3], [7, 0, 7])):
            part = kernel_oracle(example_chain, ts, 8, rows=rows, cols=cols)
            want = full[:, list(range(9) if rows is None else rows)][:, :, cols]
            assert np.array_equal(part, want), (rows, cols)

    def test_index_args_stay_exact(self):
        # float64 would round 2^53 + 1 to 2^53
        big = 2 ** 53 + 1
        ts, rows, cols = _kernel_args([3], big, [big, 2], (0,))
        assert rows.dtype == cols.dtype == np.int64
        assert rows.tolist() == [big, 2] and cols.tolist() == [0]

    def test_start_whose_support_never_reaches_the_origin(self, example_chain):
        # from i = 10 in at most 6 steps the walk stays on 4..16
        got = kernel_oracle(example_chain, [6, 0, 2], 12, rows=[10])
        for block, t in zip(got, (6, 0, 2)):
            ref = oracles.law_after(example_chain, 10, t, 40)[:13]
            np.testing.assert_allclose(block[0], ref, rtol=0.0, atol=1e-16)
        assert got[0, 0, :4].tolist() == [0.0] * 4 and got[0, 0].sum() < 1.0


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

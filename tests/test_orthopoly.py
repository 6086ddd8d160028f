import math

import numpy as np
import pytest

from kmmix import ChainParams, orthopoly, point_mass_summability, reversibility
from kmmix.orthopoly import _scales, _sine_brackets, _sine_sums, q_bracket_matrix, q_node_sums
from kmmix.spectral import _theta_grid, negative_atom, theta_nodes

from oracles import q_exact


def lambda_grid(chain, count=60):
    """Points in [-1, 1] avoiding the double roots and the two atoms, where
    the degenerate-coefficient structure makes generic evaluation ill-posed."""
    lo, hi = chain.support
    special = [lo, hi, 1.0, negative_atom(chain)[0]]
    pts = [x for x in np.linspace(-0.999, 0.999, count)
           if all(abs(x - s) > 1e-3 for s in special)]
    return pts


def q_row(chain, n, x):
    """Q_n at the points x: the one kept row of q_bracket_matrix."""
    return q_bracket_matrix(chain, n, x, keep=[n])[0]


def q1(chain, n, lam):
    return q_row(chain, n, lam)[0]


def q_trig(chain, n, lam):
    """The closed form on the support: at lam = r + 2 sqrt(pq) cos(theta),
    Q_n = (q/p)^(n/2) [cos(n theta)
                       + (lam/sqrt(q/p) - cos(theta)) sin(n theta)/sin(theta)]."""
    s = math.sqrt(chain.q / chain.p)
    theta = math.acos((lam - chain.r) / (2.0 * chain.sqrt_pq))
    slope = (lam / s - math.cos(theta)) / math.sin(theta)
    return s ** n * (math.cos(n * theta) + slope * math.sin(n * theta))


def support_scale(chain, n):
    """The natural size (q/p)^(n/2) of Q_n on the spectral support."""
    return max(1.0, (chain.q / chain.p) ** (n / 2.0))


class TestQEval:
    """Q_n through q_bracket_matrix, against the exact rational recursion."""

    def test_q0_q1(self, example_chain):
        for lam in (-0.7, 0.1, 0.9):
            assert q1(example_chain, 0, lam) == 1.0
            assert q1(example_chain, 1, lam) == pytest.approx(lam, rel=1e-14)

    def test_q2_closed_expression(self, chain_grid):
        # one recursion step: Q_2 = (lambda^2 - r lambda - q)/p
        for c in chain_grid[::5]:
            for lam in lambda_grid(c, 15):
                expect = (lam * lam - c.r * lam - c.q) / c.p
                assert q1(c, 2, lam) == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_q2_at_negative_atom(self, example_chain):
        assert q1(example_chain, 2, -0.9) == pytest.approx(0.81, abs=1e-13)

    def test_value_one_at_lambda_one(self, chain_grid):
        for c in chain_grid[::3]:
            for n in range(41):
                assert q1(c, n, 1.0) == 1.0

    def test_eigen_geometric_at_negative_atom(self, chain_grid):
        for c in chain_grid[::3]:
            lam = negative_atom(c)[0]
            for n in range(41):
                assert q1(c, n, lam) == pytest.approx(lam ** n, rel=1e-14, abs=0.0)

    def test_eigen_values_cross_checked_by_recursion(self, example_chain):
        # the exact recursion at the float atom carries the ~1e-17 offset of
        # the float from the true atom, which the growing mode amplifies, so
        # the honest comparison stops at moderate degree
        for lam in (1.0, negative_atom(example_chain)[0]):
            for n in range(9):
                exact = float(q_exact(example_chain, n, lam))
                assert q1(example_chain, n, lam) == pytest.approx(exact, abs=5e-9)

    def test_methods_agree_off_support(self, chain_grid):
        # the float bracket recursion follows the dominant root off the
        # support; it matches the exact recursion relative to Q_n itself
        for c in chain_grid[::6]:
            lo, hi = c.support
            off = [lam for lam in lambda_grid(c, 30) if not lo < lam < hi]
            assert off
            for lam in off:
                for n in (0, 1, 2, 5, 11, 19, 30):
                    exact = float(q_exact(c, n, lam))
                    assert abs(q1(c, n, lam) - exact) <= 1e-9 * abs(exact), (c, lam, n)

    def test_trig_agrees_on_100_interior_points(self, example_chain):
        lo, hi = example_chain.support
        lams = np.linspace(lo + 1e-4, hi - 1e-4, 100)
        for n in (3, 12, 30):
            tol = 1e-9 * support_scale(example_chain, n)
            vals = q_row(example_chain, n, lams)
            for lam, val in zip(lams, vals):
                assert abs(val - float(q_exact(example_chain, n, lam))) <= tol
                assert abs(val - q_trig(example_chain, n, lam)) <= tol

    def test_exact_edges_match_exact_recursion(self, chain_grid):
        # at r +- 2 sqrt(pq) the characteristic roots merge; the bracket
        # recursion needs no special case there
        for c in chain_grid[::4]:
            for edge in c.support:
                for n in range(31):
                    exact = float(q_exact(c, n, edge))
                    assert abs(q1(c, n, edge) - exact) <= 1e-9 * support_scale(c, n)

    def test_longdouble_input_preserved(self, chain_grid):
        for c in chain_grid[::6]:
            lo, hi = c.support
            x = np.array([lo, 0.5 * (lo + hi), hi, -0.99, 1.0, negative_atom(c)[0]],
                         dtype=np.longdouble)
            for n in (0, 7, 30):
                vals = q_row(c, n, x)
                assert vals.dtype == np.longdouble
                assert np.allclose(vals.astype(float), q_row(c, n, x.astype(float)),
                                   rtol=1e-12, atol=1e-12 * support_scale(c, n))

    def test_recursion_residual_all_methods(self, example_chain):
        # both uses: one point and one degree per call, and the rows of one
        # matrix over all points.  On the support the natural magnitude is
        # (q/p)^(n/2); off it the dominant root outgrows that scale, so the
        # residual is measured against the solution's own size there
        c = example_chain
        pts = list(np.linspace(c.support[0] + 1e-3, c.support[1] - 1e-3, 9))
        pts += [-0.99, -0.6, 0.8, 0.99]
        rows = q_bracket_matrix(c, 25, np.array(pts))
        for k, lam in enumerate(pts):
            inside = c.support[0] < lam < c.support[1]
            vals = [q1(c, n, lam) for n in range(26)]
            for qs in (vals, rows[:, k]):
                for n in range(1, 25):
                    q_nm1, q_n, q_np1 = qs[n - 1], qs[n], qs[n + 1]
                    resid = lam * q_n - c.q * q_nm1 - c.r * q_n - c.p * q_np1
                    scale = (c.q / c.p) ** (n / 2.0)
                    if not inside:
                        scale = max(scale, abs(q_np1))
                    assert abs(resid) <= 1e-9 * scale

    def test_bracket_matrix_matches_scalar_dispatch(self, example_chain):
        # an array mixing atoms, an edge and ordinary points gives, point by
        # point and degree by degree, what a scalar call gives: x^n at the
        # atoms, the recursion elsewhere
        c = example_chain
        loc2 = negative_atom(c)[0]
        xs = np.array([-0.99, loc2, -0.2, 0.3, c.support[1] + 1e-12, 0.9, 1.0])
        mat = q_bracket_matrix(c, 40, xs, keep=[0, 3, 9, 40])
        for n, vals in zip((0, 3, 9, 40), mat):
            assert list(vals) == [q1(c, n, x) for x in xs]
            assert vals[1] == pytest.approx(loc2 ** n, rel=1e-14, abs=0.0)
            assert vals[-1] == 1.0
            for lam, val in zip(xs[[0, 2, 3, 4, 5]], vals[[0, 2, 3, 4, 5]]):
                exact = float(q_exact(c, n, lam))
                assert abs(val - exact) <= 1e-9 * max(support_scale(c, n), abs(exact))

    def test_bracket_matrix_consistent_with_trig(self, example_chain):
        # its rows equal the one-row calls bit for bit and match the closed form
        lo, hi = example_chain.support
        for dt in (np.float64, np.longdouble):
            x = np.linspace(lo + 1e-3, hi - 1e-3, 40).astype(dt)
            mat = q_bracket_matrix(example_chain, 30, x)
            assert mat.shape == (31, 40) and mat.dtype == dt
            for n in range(31):
                np.testing.assert_array_equal(mat[n], q_row(example_chain, n, x))
                trig = [q_trig(example_chain, n, float(v)) for v in x]
                assert np.allclose(mat[n].astype(float), trig, rtol=0.0,
                                   atol=1e-9 * support_scale(example_chain, n))

    def test_rejects_negative_degree(self, example_chain):
        with pytest.raises(ValueError, match="nonnegative"):
            q_bracket_matrix(example_chain, -1, [0.1])

    @pytest.mark.parametrize("n_max, keep", [
        (4, [2, 2]), (4, [3, 1]), (4, []), (4, [-1]), (4, [2.5]), (4, [5]), (2.5, None),
        (4, [0, 4, 4])])
    def test_rejects_bad_degrees(self, example_chain, n_max, keep):
        # repeated, descending, empty, negative, fractional or past n_max
        with pytest.raises(ValueError, match="n_max|keep"):
            q_bracket_matrix(example_chain, n_max, [0.1, 0.5], keep=keep)

    def test_atoms_share_one_matching_rule(self, example_chain):
        # x^n within 1e-13 of an atom, in q_bracket_matrix and in
        # point_mass_summability alike; the recursion just outside it
        c = example_chain
        for loc in (1.0, negative_atom(c)[0]):
            for off, atom in ((5e-14, True), (-5e-14, True), (1e-12, False)):
                x = loc + off
                assert (q1(c, 30, x) == x ** 30) == atom, (loc, off)
                if atom:
                    assert point_mass_summability(c, x, 5) > 0.0
                else:
                    with pytest.raises(ValueError, match="atom"):
                        point_mass_summability(c, x, 5)

    def test_no_atom_inside_the_support(self):
        # this chain's AC interval lies within 1.7e-14 of the atom at 1, so
        # every quadrature node is within 1e-13 of it; inside the interval the
        # recursion runs (here |Q_n| ~ (q/p)^(n/2), nowhere near x^n ~ 1), and
        # x^n is taken only off it
        c = ChainParams(1e-15, 1e-14, 1 - 1.1e-14)
        x, _, two_cos, sines = theta_nodes(c, 64)
        assert np.all(np.abs(x - 1.0) <= 1e-13)
        brackets = q_bracket_matrix(c, 8, x, two_cos) / _scales(c, LD, 8)[:, None]
        m = np.arange(10, dtype=LD)
        u_form = _sine_brackets(c, np.sin(np.outer(_theta_grid(64), m)) / sines[:, None])
        np.testing.assert_allclose(brackets.T, u_form, rtol=0, atol=1e-15 * 9)
        inside = 1 - 1e-14
        assert c.support[0] < inside < c.support[1]
        assert q1(c, 2, inside) == pytest.approx(
            c.q / c.p * (((inside - c.r) / c.sqrt_pq) * inside * math.sqrt(c.p / c.q) - 1.0))
        assert q1(c, 2, inside) < -5.0
        assert q1(c, 30, 1.0) == 1.0


LD = np.longdouble
LD_PI = np.arccos(LD(-1))


def bracket_rows(chain, n_max, x):
    """B_0..B_{n_max} at the points x, shape (len(x), n_max+1), by a recursion
    of its own in x's dtype: B_0 = 1, B_1 = x / sqrt(q/p) and
    B_{n+1} = ((x - r)/sqrt(pq)) B_n - B_{n-1}."""
    dt = x.dtype.type
    p, q, r = dt(chain.p), dt(chain.q), dt(chain.r)
    two_cos = (x - r) / np.sqrt(p * q)
    rows = [np.ones_like(x), x / np.sqrt(q / p)]
    for _ in range(n_max - 1):
        rows.append(two_cos * rows[-1] - rows[-2])
    return np.stack(rows[: n_max + 1], axis=-1)


class TestSineForm:
    """The U-form B_n = p U_n + r sqrt(p/q) U_{n-1} - (1-p) U_{n-2} and the
    sine transform that sums it over the theta nodes."""

    CHAINS = [ChainParams(1 / 11, 9 / 11, 1 / 11), ChainParams(0.3, 0.32, 0.38),
              ChainParams(0.02, 0.1, 0.88), ChainParams(0.3, 0.305, 0.395)]

    @pytest.mark.parametrize("chain", CHAINS)
    def test_u_identity_at_nodes(self, chain):
        n_max, k = 60, 64
        theta = np.arange(1, k, dtype=LD) * (LD_PI / k)
        x = LD(chain.r) + 2 * np.sqrt(LD(chain.p) * LD(chain.q)) * np.cos(theta)
        m = np.arange(n_max + 2, dtype=LD)
        u_form = _sine_brackets(chain, np.sin(np.outer(theta, m)) / np.sin(theta)[:, None])
        # |B_n| is O(n) on the support; the recursion's roundoff, O(n^2 eps)
        np.testing.assert_allclose(u_form, bracket_rows(chain, n_max, x),
                                   rtol=0, atol=1e-15 * (n_max + 1))

    @pytest.mark.parametrize("chain", CHAINS)
    def test_u_identity_at_the_edges(self, chain):
        # theta -> 0 and pi, where U_n -> n + 1 and (-1)^n (n + 1), and just
        # inside them
        n_max = 40
        m = np.arange(n_max + 2, dtype=LD)
        edges = LD(chain.r) + np.array([2, -2], dtype=LD) * np.sqrt(LD(chain.p) * LD(chain.q))
        limits = np.stack([m, (-1) ** (m + 1) * m])
        np.testing.assert_allclose(_sine_brackets(chain, limits),
                                   bracket_rows(chain, n_max, edges), rtol=0, atol=1e-15 * (n_max + 1))
        theta = np.array([1e-6, LD_PI - LD(1e-6)], dtype=LD)
        x = LD(chain.r) + 2 * np.sqrt(LD(chain.p) * LD(chain.q)) * np.cos(theta)
        u_form = _sine_brackets(chain, np.sin(np.outer(theta, m)) / np.sin(theta)[:, None])
        # sin(m theta) near m pi carries an absolute error of about m pi eps
        np.testing.assert_allclose(u_form, bracket_rows(chain, n_max, x),
                                   rtol=0, atol=1e-12 * (n_max + 1))

    @pytest.mark.parametrize("n_nodes", [16, 64, 512])
    def test_sine_sums_against_direct_product(self, n_nodes):
        # m runs past 2K, through the fold D[2K - m] = -D[m] and the period 2K
        rng = np.random.default_rng(n_nodes)
        h = rng.standard_normal((3, n_nodes - 1)).astype(LD)
        m_max = 2 * n_nodes + 37
        k = np.arange(1, n_nodes)
        # the exact angles m k pi / K, reduced mod 2 pi before scaling
        sines = np.sin((np.outer(np.arange(m_max + 1), k) % (2 * n_nodes)) * (LD_PI / n_nodes))
        direct = h @ sines.T
        got = _sine_sums(h, m_max)
        assert got.shape == (3, m_max + 1) and got.dtype == LD
        scale = np.abs(h).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(got - direct) <= 1e-17 * scale)

    @pytest.mark.parametrize("chain", CHAINS)
    @pytest.mark.parametrize("n_nodes, double_pi_tol", [(512, 2e-16), (64, 1e-12)])
    def test_node_sums_match_bracket_product(self, chain, n_nodes, double_pi_tol):
        # theta_nodes and the transform's twiddles share the angles k pi/K, pi
        # in extended precision; what is left is the bracket recursion's own
        # roundoff, O(n eps).  Measured: 4.1e-17 of the integrand's L1 size at
        # 512 nodes, and 4.5e-16 at 64, where n_max = 300 runs past 2K = 128
        # through the fold and the period.  The ids keep double_pi_tol, the
        # bound a grid at a double pi (4e-17 relative low) needed: 7e-17 and
        # 2.2e-13 measured there.
        tol = {512: 1e-16, 64: 2e-15}[n_nodes]
        n_max = 300
        x, w = theta_nodes(chain, n_nodes)[:2]
        g = np.stack([w, w * x ** 40, w * x ** 7])
        q_rows = q_bracket_matrix(chain, n_max, x)
        got = q_node_sums(chain, n_max, g)
        assert got.shape == (3, n_max + 1) and got.dtype == LD
        scale = np.dot(np.abs(g), np.abs(q_rows).T)
        assert np.all(np.abs(got - np.dot(g, q_rows.T)) <= tol * scale)

    @pytest.mark.parametrize("chain", CHAINS[:2])
    @pytest.mark.parametrize("n_nodes", [16, 32, 48])
    def test_node_sums_past_one_period_are_the_brackets_degree_by_degree(self, chain, n_nodes):
        # q_node_sums forms B_n over one period 2K of the sine sums and reads
        # the degrees past it by index; each must be the U-form of its own
        # degree, n = 0 reading -D[1] and D[2K-1] = -D[1] folding onto it
        x, w = theta_nodes(chain, n_nodes)[:2]
        g = np.stack([w, w * x ** 5, w * x ** 40])
        dt, p, q, r = LD, LD(chain.p), LD(chain.q), LD(chain.r)
        for n_max in (2 * n_nodes - 1, 2 * n_nodes, 2 * n_nodes + 1, 5 * n_nodes + 3):
            d = _sine_sums(g / np.sin(_theta_grid(n_nodes)), n_max + 1)
            brackets = np.stack([p * d[:, n + 1] + r * np.sqrt(p / q) * d[:, n]
                                 - (1 - p) * (-d[:, 1] if n == 0 else d[:, n - 1])
                                 for n in range(n_max + 1)], axis=-1)
            expect = brackets * _scales(chain, dt, n_max)
            assert np.array_equal(q_node_sums(chain, n_max, g), expect), n_max

    def test_fft_keeps_extended_precision(self):
        # numpy < 2 transforms longdouble input in float64, which would cost
        # the series about three digits wherever longdouble is wider
        if np.finfo(LD).eps >= np.finfo(np.float64).eps:
            pytest.skip("longdouble is float64 on this platform")
        out = np.fft.rfft(np.ones(8, dtype=LD), n=16)
        assert out.dtype == np.clongdouble


class TestDegreeScales:
    """q_bracket_matrix and q_node_sums read (q/p)^(n/2) from one cached table
    per (chain, dtype) built at power-of-two sizes; every slice of it must be
    the fresh scalar power at each degree, bit for bit (numpy's array power of float64 differs from it in the last bit at
    some degrees, 6, 30 and 39 of (0.3, 0.32, 0.38) among them)."""

    CHAINS = [ChainParams(1 / 11, 9 / 11, 1 / 11), ChainParams(0.3, 0.32, 0.38)]
    DEGREES = sorted({max(2 ** k + d, 0) for k in range(12) for d in (-1, 0, 1)})

    @staticmethod
    def fresh(chain, dt, n_max):
        base = np.sqrt(dt(chain.q) / dt(chain.p))
        with np.errstate(over="ignore"):
            return np.array([base ** dt(n) for n in range(n_max + 1)], dtype=dt)

    @pytest.mark.parametrize("chain", CHAINS)
    @pytest.mark.parametrize("dt", [LD, np.float64])
    def test_table_slices_are_fresh_powers(self, chain, dt):
        for n_max in self.DEGREES:
            with np.errstate(over="ignore"):
                got = _scales(chain, dt, n_max)
            assert got.dtype == dt and got.shape == (n_max + 1,)
            assert np.array_equal(got, self.fresh(chain, dt, n_max))

    @pytest.mark.parametrize("chain", CHAINS)
    @pytest.mark.parametrize("dt", [LD, np.float64])
    def test_bracket_matrix_is_fresh_scale_times_brackets(self, chain, dt):
        x = theta_nodes(chain, 64)[0].astype(dt)
        for n_max in self.DEGREES:
            with np.errstate(over="ignore", invalid="ignore"):
                got = q_bracket_matrix(chain, n_max, x)
                expect = bracket_rows(chain, n_max, x).T * self.fresh(chain, dt, n_max)[:, None]
            assert got.dtype == dt
            assert np.array_equal(got, expect, equal_nan=True)

    @pytest.mark.parametrize("chain", CHAINS)
    def test_kept_rows_are_rows_of_the_full_matrix(self, chain):
        x, _, two_cos, _ = theta_nodes(chain, 64)
        full = q_bracket_matrix(chain, 40, x, two_cos)
        for keep in ([0], [40], [3, 7, 8], [0, 17, 39]):
            got = q_bracket_matrix(chain, 40, x, two_cos, keep)
            assert got.shape == (len(keep), x.size) and np.array_equal(got, full[keep])

    @pytest.mark.parametrize("chain", CHAINS)
    def test_node_sums_are_fresh_scale_times_sine_brackets(self, chain):
        x, w = theta_nodes(chain, 64)[:2]
        g = np.stack([w, w * x])
        sines = np.sin(_theta_grid(64))
        for n_max in self.DEGREES:
            brackets = _sine_brackets(chain, _sine_sums(g / sines, n_max + 1))
            assert np.array_equal(q_node_sums(chain, n_max, g),
                                  brackets * self.fresh(chain, LD, n_max))

    @pytest.mark.parametrize("dt", [LD, np.float64])
    def test_node_sines_are_one_read_only_table_per_count(self, dt):
        # q_node_sums divides by the sines of theta_nodes' node set: read-only,
        # sin(k pi / K) in extended precision, the values w is built from, and
        # cast to g's dtype
        chain = self.CHAINS[1]
        x, w, two_cos, sines = theta_nodes(chain, 64)
        assert sines is theta_nodes(chain, 64)[3] and not sines.flags.writeable
        assert sines.dtype == LD
        assert np.array_equal(sines, np.sin(_theta_grid(64)))
        p, q, r = LD(chain.p), LD(chain.q), LD(chain.r)
        one_less_x = (p + q) - np.sqrt(p * q) * two_cos
        assert np.array_equal(w, 2.0 * p * q * sines ** 2 / (64 * ((r + q) * x + q) * one_less_x))
        g = np.stack([w, w * x]).astype(dt)
        brackets = _sine_brackets(chain, _sine_sums(g / sines.astype(dt), 41))
        got = q_node_sums(chain, 40, g)
        assert got.dtype == dt and np.array_equal(got, brackets * self.fresh(chain, dt, 40))


class TestPointMassSummability:
    def test_first_term(self, example_chain):
        assert point_mass_summability(example_chain, 1.0, 0) == 1.0

    def test_limit_at_one_is_rho(self, example_chain):
        assert point_mass_summability(example_chain, 1.0, 60) == pytest.approx(
            19 / 8, rel=1e-12)

    def test_limit_at_negative_atom(self, example_chain):
        assert point_mass_summability(example_chain, -0.9, 60) == pytest.approx(
            190 / 91, rel=1e-12)

    def test_closed_form_limit_general(self, chain_grid):
        for c in chain_grid[::4]:
            lam = negative_atom(c)[0]
            expect = ((1 + c.q - c.p) * (c.q + c.r)) / ((1 + c.q - c.p) * (c.q + c.r) - c.q)
            assert point_mass_summability(c, lam, 400) == pytest.approx(expect, rel=1e-10)

    def test_partial_sums_match_recursion_evaluation(self, example_chain):
        # independent check of the geometric form against the exact recursion
        from kmmix import reversibility
        rev = reversibility(example_chain)
        for lam in (1.0, negative_atom(example_chain)[0]):
            for n_trunc in (0, 1, 4, 9):
                direct = math.fsum(
                    float(rev.pi(k)) * float(q_exact(example_chain, k, lam)) ** 2
                    for k in range(n_trunc + 1))
                assert point_mass_summability(example_chain, lam, n_trunc) == pytest.approx(
                    direct, rel=1e-8)

    def test_rejects_non_atom(self, example_chain):
        with pytest.raises(ValueError, match="atom"):
            point_mass_summability(example_chain, 0.5, 10)

    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    def test_equals_the_per_k_sum(self, monkeypatch, chain_grid, chunk):
        # pi_k is built per chunk of k; the sum is the per-k one bit for bit,
        # across chunk boundaries too
        monkeypatch.setattr(orthopoly, "_PI_CHUNK", chunk)
        for c in chain_grid[::3]:
            rev = reversibility(c)
            for lam in (1.0, negative_atom(c)[0]):
                for n_trunc in (0, 6, 7, 8, 300, 2000):
                    per_k = math.fsum(float(rev.pi(k)) * lam ** (2 * k)
                                      for k in range(n_trunc + 1))
                    assert point_mass_summability(c, lam, n_trunc) == per_k

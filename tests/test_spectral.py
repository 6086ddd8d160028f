import numpy as np
import pytest

from kmmix import ChainParams, QuadratureConfig, QuadratureError, build_measure, integrate_psi, \
    point_mass_summability, q_log_sup, q_values, residue_check, resolvent_a0, reversibility
from kmmix.spectral import NODE_CAP, theta_nodes

LD = np.longdouble


def one(x):
    return np.ones_like(x)


class TestBuildMeasure:
    def test_worked_example_weights(self, example_chain):
        m = build_measure(example_chain)
        assert m.atom1 == (1.0, pytest.approx(8 / 19, abs=1e-15))
        assert m.atom2[0] == pytest.approx(-0.9, abs=1e-15)
        assert m.atom2[1] == pytest.approx(91 / 190, abs=1e-15)

    def test_worked_example_interval(self, example_chain):
        m = build_measure(example_chain)
        assert m.ac_interval[0] == pytest.approx(-5 / 11, abs=1e-15)
        assert m.ac_interval[1] == pytest.approx(7 / 11, abs=1e-15)

    def test_w1_is_reciprocal_rho(self, chain_grid):
        for c in chain_grid:
            m = build_measure(c)
            assert m.atom1[1] * reversibility(c).rho == pytest.approx(1.0, rel=1e-13)

    def test_atom2_in_minus_one_zero(self, chain_grid):
        for c in chain_grid:
            loc = build_measure(c).atom2[0]
            assert -1.0 < loc < 0.0

    def test_density_poles_outside_interval(self, chain_grid, random_chains):
        for c in chain_grid + random_chains:
            m = build_measure(c)
            assert m.atom2[0] < m.ac_interval[0] and m.ac_interval[1] < 1.0


class TestThetaNodes:
    # p + q + r = 1 exactly in binary, so p/(q+r) is the AC mass to the last bit
    DYADIC = [ChainParams(0.25, 0.5, 0.25), ChainParams(0.125, 0.625, 0.25),
              ChainParams(0.0625, 0.75, 0.1875), ChainParams(0.25, 0.375, 0.375)]

    @pytest.mark.parametrize("chain", DYADIC)
    @pytest.mark.parametrize("n_nodes", [512, 1024])
    def test_weights_carry_the_panel_width(self, chain, n_nodes):
        # the weights sum to the density's mass with no pi / K factor left
        # out, and pi is not rounded to a double (4e-17 relative)
        mass = LD(chain.p) / (LD(chain.q) + LD(chain.r))
        _, w, _ = theta_nodes(chain, n_nodes)
        assert abs(w.sum() - mass) <= 16 * np.finfo(LD).eps * mass

    @pytest.mark.parametrize("n_nodes", [16, 64, 512])
    def test_middle_node_is_r(self, example_chain, n_nodes):
        # theta = pi/2 at k = K/2: cos vanishes to within the extended pi's
        # rounding (a double pi put this node 3e-17 off)
        x, _, _ = theta_nodes(example_chain, n_nodes)
        assert abs(x[n_nodes // 2 - 1] - LD(example_chain.r)) <= 1e-18


class TestIntegratePsi:
    def test_total_mass_one(self, chain_grid):
        for c in chain_grid:
            m = build_measure(c)
            assert integrate_psi(m, one) == pytest.approx(1.0, abs=1e-10)

    def test_ac_mass_closed_form(self, chain_grid):
        for c in chain_grid:
            m = build_measure(c)
            val = integrate_psi(m, one, include_atoms=(False, False))
            assert val == pytest.approx(c.p / (c.q + c.r), abs=1e-10)

    def test_worked_example_triple(self, example_chain):
        m = build_measure(example_chain)
        assert integrate_psi(m, one, include_atoms=(False, False)) == pytest.approx(
            1 / 10, abs=1e-10)
        assert m.atom1[1] + m.atom2[1] + 0.1 == pytest.approx(1.0, abs=1e-12)

    def test_atom_flags_select_atoms(self, example_chain):
        m = build_measure(example_chain)
        ac = integrate_psi(m, one, include_atoms=(False, False))
        both = integrate_psi(m, one)
        only1 = integrate_psi(m, one, include_atoms=(True, False))
        only2 = integrate_psi(m, one, include_atoms=(False, True))
        assert only1 == pytest.approx(ac + m.atom1[1], abs=1e-14)
        assert only2 == pytest.approx(ac + m.atom2[1], abs=1e-14)
        assert both == pytest.approx(ac + m.atom1[1] + m.atom2[1], abs=1e-14)

    def test_orthogonality_through_degree_12(self, example_chain):
        c = example_chain
        m = build_measure(c)
        rev = reversibility(c)
        for mm in range(13):
            for nn in range(13):
                val = integrate_psi(
                    m, lambda x: q_values(c, mm, x) * q_values(c, nn, x),
                    log_sup=q_log_sup(c, mm, nn))
                target = 1.0 if mm == nn else 0.0
                assert float(rev.pi(nn)) * val == pytest.approx(target, abs=1e-8)

    def test_first_moment_is_kernel_entry(self, chain_grid):
        # integral of lambda dpsi = p_1(0,0) = 0 for every chain
        for c in chain_grid[::4]:
            m = build_measure(c)
            assert integrate_psi(m, lambda x: x) == pytest.approx(0.0, abs=1e-11)

    def test_complex_integrand(self, example_chain):
        m = build_measure(example_chain)
        val = integrate_psi(m, lambda x: np.exp(1j * x))
        re = integrate_psi(m, lambda x: np.cos(x))
        im = integrate_psi(m, lambda x: np.sin(x))
        assert val == pytest.approx(re + 1j * im, abs=1e-12)

    def test_pole_near_the_axis_raises_past_the_cap(self, example_chain):
        m = build_measure(example_chain)
        s = 0.1 + 1e-4j  # its image narrows the strip to about 2e-4: K ~ 1e5
        with pytest.raises(QuadratureError, match="^density quadrature needs") as info:
            integrate_psi(m, lambda x: 1.0 / (x - s), poles=[s])
        assert info.value.allowed == NODE_CAP < info.value.needed

    def test_node_floor_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(node_count=8)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol positive"):
            QuadratureConfig(tol=tol)


class TestResolvent:
    def test_cross_check_at_2i(self, example_chain):
        m = build_measure(example_chain)
        s = 2j
        direct = resolvent_a0(example_chain, s)
        transform = integrate_psi(m, lambda x: 1.0 / (x - s), poles=[s])
        assert abs(direct - transform) <= 1e-8

    def test_cross_check_random_points(self, example_chain):
        m = build_measure(example_chain)
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.1, 3))
            direct = resolvent_a0(example_chain, s)
            transform = integrate_psi(m, lambda x: 1.0 / (x - s), poles=[s])
            assert abs(direct - transform) <= 1e-8

    def test_total_mass_limit(self, chain_grid):
        for c in chain_grid[::5]:
            s = 1e7j
            assert s * resolvent_a0(c, s) == pytest.approx(-1.0, abs=1e-6)

    def test_conjugate_symmetry(self, example_chain):
        for s in (0.4 + 1.3j, -0.8 + 0.2j, 2.5 - 0.9j):
            a = resolvent_a0(example_chain, s)
            b = resolvent_a0(example_chain, s.conjugate())
            assert a == pytest.approx(b.conjugate(), rel=1e-14)

    def test_rejects_real_s(self, example_chain):
        with pytest.raises(ValueError, match="Im"):
            resolvent_a0(example_chain, 0.5)


class TestResidues:
    def test_worked_example_values(self, example_chain):
        res1, res2 = residue_check(example_chain)
        assert res1 == pytest.approx(8 / 19, abs=1e-8)
        assert res2 == pytest.approx(91 / 190, abs=1e-8)

    def test_residues_equal_atom_weights_on_grid(self, chain_grid):
        for c in chain_grid:
            m = build_measure(c)
            res1, res2 = residue_check(c)
            assert res1 == pytest.approx(m.atom1[1], abs=1e-8)
            assert res2 == pytest.approx(m.atom2[1], abs=1e-8)

    def test_radius_independence(self, example_chain):
        a = residue_check(example_chain, radius_scale=0.25)
        b = residue_check(example_chain, radius_scale=0.125)
        assert abs(a[0] - b[0]) <= 1e-9
        assert abs(a[1] - b[1]) <= 1e-9


class TestSummabilityConsistency:
    def test_reciprocal_partial_sums_match_weights(self, chain_grid):
        for c in chain_grid[::3]:
            m = build_measure(c)
            for loc, weight in (m.atom1, m.atom2):
                partial = point_mass_summability(c, loc, 300)
                assert 1.0 / partial == pytest.approx(weight, abs=1e-9)

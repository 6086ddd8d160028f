import numpy as np
import pytest

from kmmix import ChainParams, QuadratureConfig, QuadratureError, build_measure, integrate_psi, \
    point_mass_summability, q_bracket_matrix, q_log_sup, residue_check, resolvent_a0, reversibility
from kmmix import spectral
from kmmix.mixing import _SeriesSup, tv_quadrature
from kmmix.spectral import NODE_CAP, node_count, pole_errors, theta_nodes

import oracles

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
        w = theta_nodes(chain, n_nodes)[1]
        assert abs(w.sum() - mass) <= 16 * np.finfo(LD).eps * mass

    @pytest.mark.parametrize("n_nodes", [16, 64, 512])
    def test_middle_node_is_r(self, example_chain, n_nodes):
        # theta = pi/2 at k = K/2: cos vanishes to within the extended pi's
        # rounding (a double pi put this node 3e-17 off)
        x = theta_nodes(example_chain, n_nodes)[0]
        assert abs(x[n_nodes // 2 - 1] - LD(example_chain.r)) <= 1e-18


class TestIntegratePsi:
    def test_total_mass_one(self, chain_grid):
        for c in chain_grid:
            m = build_measure(c)
            assert integrate_psi(m, one) == pytest.approx(1.0, abs=1e-10)

    def test_ac_mass_closed_form(self, chain_grid):
        for c in chain_grid:
            m = build_measure(c)
            val = integrate_psi(m, one, atoms=False)
            assert val == pytest.approx(c.p / (c.q + c.r), abs=1e-10)

    def test_worked_example_triple(self, example_chain):
        m = build_measure(example_chain)
        assert integrate_psi(m, one, atoms=False) == pytest.approx(
            1 / 10, abs=1e-10)
        assert m.atom1[1] + m.atom2[1] + 0.1 == pytest.approx(1.0, abs=1e-12)

    def test_atom_flags_select_atoms(self, example_chain):
        m = build_measure(example_chain)
        ac = integrate_psi(m, one, atoms=False)
        both = integrate_psi(m, one)
        assert both == pytest.approx(ac + m.atom1[1] + m.atom2[1], abs=1e-14)
        assert both == integrate_psi(m, one, atoms=True)

    def test_orthogonality_through_degree_12(self, example_chain):
        c = example_chain
        m = build_measure(c)
        rev = reversibility(c)
        for mm in range(13):
            for nn in range(13):
                val = integrate_psi(
                    m, lambda x: np.prod(q_bracket_matrix(c, max(mm, nn), x)[[mm, nn]], axis=0),
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


NEAR_CRITICAL = ChainParams(0.3, 0.32, 0.38)


def _descriptions(chain):
    """(log_sup, t, poles) of each kind of integrand node_count is asked about."""
    n_cut = max(tv_quadrature(chain, range(21))[0].values())
    return [(q_log_sup(chain, 20, 12), 5, ()),  # a kernel entry (20, 12)
            (_SeriesSup(chain, n_cut), 0, ()),  # the TV series to its cutoff
            (None, 0, (2.0, 0.1 + 0.5j)),  # integrate_psi's poles
            (None, 0, ())]  # powers of x


class TestPlanCache:
    @pytest.mark.parametrize("chain", [ChainParams(1 / 11, 9 / 11, 1 / 11), NEAR_CRITICAL])
    def test_cached_plan_is_a_fresh_computation(self, chain):
        for cfg in (QuadratureConfig(), QuadratureConfig(tol=1e-14),
                    QuadratureConfig(node_count=4096)):
            for log_sup, t, poles in _descriptions(chain):
                fresh = spectral._plan.__wrapped__(chain, cfg, log_sup, t,
                                                   tuple(complex(z) for z in poles))[1:]
                for _ in range(2):
                    assert node_count(chain, cfg, "x", log_sup, t, list(poles)) == fresh

    def test_equal_descriptions_hash_equal(self, example_chain):
        c, other = example_chain, NEAR_CRITICAL
        equal = [(q_log_sup(c, 16, 0), q_log_sup(c, 16, 0)),
                 (q_log_sup(c, 8, 8), q_log_sup(c, 16, 0)),  # the bound reads count and sum
                 (q_log_sup(c, np.int64(5)), q_log_sup(c, 5)),
                 (_SeriesSup(c, 40), _SeriesSup(c, 40))]
        for a, b in equal:
            assert a == b and hash(a) == hash(b)
        unequal = [(q_log_sup(c, 16), q_log_sup(c, 16, 0)),
                   (q_log_sup(c, 4), q_log_sup(other, 4)),
                   (_SeriesSup(c, 40), _SeriesSup(c, 41)),
                   (_SeriesSup(c, 4), _SeriesSup(other, 4))]
        for a, b in unequal:
            assert a != b
        y = np.linspace(0.01, 0.1, 5)
        assert np.array_equal(q_log_sup(c, 8, 8)(y), q_log_sup(c, 16, 0)(y))

    def test_errors_carry_each_callers_name_on_every_call(self, example_chain):
        short = QuadratureConfig(node_count=16, tol=1e-300)
        slow = ChainParams(0.49, 0.4901, 0.0199)  # K ~ 1e5, past the cap
        for name in ("first", "second", "first"):
            with pytest.raises(QuadratureError, match=f"^{name} quadrature needs") as info:
                node_count(example_chain, short, name, q_log_sup(example_chain, 16, 0))
            assert "node_count override of 16" in str(info.value)
            with pytest.raises(QuadratureError, match=f"^{name} quadrature needs") as info:
                node_count(slow, QuadratureConfig(), name)
            assert info.value.allowed == NODE_CAP < info.value.needed

    def test_one_verify_computes_each_strip_bound_once(self, capsys, example_chain):
        # verify asks for 13 node counts on the worked example, 10 of them
        # distinct: its two psi rows share one plan, and tv_curve and
        # tv_quadrature share one at K and one at 2K; each kernel pass has its
        # own, sized for the entries it asks for
        from kmmix.cli import main
        spectral._plan.cache_clear()
        assert main(["verify", "--p", "1/11", "--q", "9/11"]) == 0
        capsys.readouterr()
        info = spectral._plan.cache_info()
        assert (info.misses, info.hits + info.misses) == (10, 13)


POLE_CHAINS = [ChainParams(1 / 11, 9 / 11, 1 / 11), ChainParams(0.3, 0.32, 0.38),
               ChainParams(0.3, 0.30001, 0.39999), ChainParams(0.49, 0.4901, 0.0199),
               ChainParams(0.4999, 0.5, 1e-4), ChainParams(0.1, 0.2, 0.7)]


class TestPoleErrors:
    # the pole at 1: the weights' 1 - x is (p + q) - 2 sqrt(pq) cos(theta),
    # so the closed form s = q - p holds for them to roundoff.  The pole at
    # -q/(q+r): its closed form takes p + q + r = 1, which the binary
    # parameters miss by about 1e-17; near criticality the part's integral
    # moves by that over q - p: 1.8e-14 at (0.4999, 0.5, 1e-4)
    @pytest.mark.parametrize("n_nodes", [16, 32, 768])
    @pytest.mark.parametrize("chain", POLE_CHAINS)
    def test_closed_forms_match_the_weights(self, chain, n_nodes):
        got = pole_errors(chain, n_nodes)
        want, integrals = oracles.pole_parts_by_weights(chain, n_nodes)
        assert all(type(e) is LD and e <= 0.0 for e in got)  # the rule falls short
        assert abs(got[0] - want[0]) <= 1e-16 and abs(got[1] - want[1]) <= 3e-14, (got, want)
        assert abs(sum(integrals) - LD(chain.p) / (LD(chain.q) + LD(chain.r))) <= 3e-14

    def test_exact_count_is_the_lesser_and_ties_go_to_the_strip(self, example_chain):
        c, sup = ChainParams(0.3, 0.32, 0.38), q_log_sup(example_chain, 16, 0)
        # the strip asks for 32 nodes at degree 16 of the worked example, and
        # so does the exact-degree count at degree 61: the strip plan; at
        # degree 29 the exact count is 16
        strip = node_count(example_chain, QuadratureConfig(), "x", sup)
        assert strip[0] == 32 and strip[2:] == (0.0, 0.0)
        assert node_count(example_chain, QuadratureConfig(), "x", sup, degree=61) == strip
        k, _, *errors = node_count(example_chain, QuadratureConfig(), "x", sup, degree=29)
        assert (k, errors) == (16, list(pole_errors(example_chain, 16)))
        # an override is corrected from ceil((degree + 3)/2) on, whatever the strip
        cfg = QuadratureConfig(node_count=32)
        k, bound, *errors = node_count(c, cfg, "x", q_log_sup(c, 16, 0), 45, degree=61)
        assert (k, errors) == (32, list(pole_errors(c, 32))) and 0.0 < bound <= cfg.tol
        with pytest.raises(QuadratureError, match="override of 32"):
            node_count(c, cfg, "x", q_log_sup(c, 16, 0), 45, degree=62)


class TestPlanCorrection:
    """The plan carries the pole correction its pass subtracts: 0.0, 0.0
    under the strip count, pole_errors(chain, K) bit for bit under the
    exact-degree count, an override included."""

    @pytest.mark.parametrize("chain", POLE_CHAINS)
    def test_strip_and_exact_plans(self, chain):
        sup, cfg = q_log_sup(chain, 16, 0), QuadratureConfig()
        for t, degree in ((0, None), (0, 20), (40, 60), (2000, 2020)):
            try:
                k, _, e1, e2 = node_count(chain, cfg, "x", sup, t, degree=degree)
            except QuadratureError:  # the strip count alone passes the cap
                continue
            strip = spectral._plan(chain, cfg, sup, t, ())[1]  # no degree: the strip count
            if degree is None or k == strip:  # a tie goes to the strip
                assert (e1, e2) == (0.0, 0.0) and type(e1) is float
            else:  # the strip count is larger or passes the cap (None)
                assert (strip is None or k < strip) and (e1, e2) == pole_errors(chain, k)
                assert type(e1) is LD and type(e2) is LD

    @pytest.mark.parametrize("chain", POLE_CHAINS)
    def test_override_at_the_exact_degree_count(self, chain):
        for degree in (31, 61, 120):
            need = -(-(degree + 3) // 2)  # ceil((d + 3) / 2): 17, 32, 62
            for n_nodes, corrected in ((need, True), (need - 1, False)):
                cfg = QuadratureConfig(node_count=n_nodes)
                try:
                    k, _, e1, e2 = node_count(chain, cfg, "x", q_log_sup(chain, 16, 0), 0,
                                              degree=degree)
                except QuadratureError:  # short of the exact count and of the strip's
                    assert not corrected
                    continue
                assert k == n_nodes
                want = pole_errors(chain, n_nodes) if corrected else (0.0, 0.0)
                assert (e1, e2) == want and all(type(e) is type(w) for e, w in zip((e1, e2), want))


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

    @pytest.mark.parametrize("p", [1e-12, 1e-10, 1e-6])
    def test_small_p_against_the_stieltjes_transform(self, p):
        # the quadratic formula's small root cancels as p -> 0 (an error of
        # 2.8e-4 at p = 1e-12 on these points); q/p over the large root does not
        c = ChainParams(p, 0.5, 0.5 - p)
        m = build_measure(c)
        for s in (2j, 0.5 + 0.7j, -0.3 - 1.1j, 3.0 + 0.25j, 0.1 + 1e-3j, -0.9 + 0.05j):
            transform = integrate_psi(m, lambda x: 1.0 / (x - s), poles=[s],
                                      cfg=QuadratureConfig(tol=1e-15))
            assert abs(resolvent_a0(c, s) - transform) <= 1e-12, s

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

    def test_radius_independence(self, example_chain, monkeypatch):
        a = residue_check(example_chain)
        monkeypatch.setattr(spectral, "_RESIDUE_SCALE", spectral._RESIDUE_SCALE / 2)
        b = residue_check(example_chain)
        assert abs(a[0] - b[0]) <= 1e-9
        assert abs(a[1] - b[1]) <= 1e-9


class TestSummabilityConsistency:
    def test_reciprocal_partial_sums_match_weights(self, chain_grid):
        for c in chain_grid[::3]:
            m = build_measure(c)
            for loc, weight in (m.atom1, m.atom2):
                partial = point_mass_summability(c, loc, 300)
                assert 1.0 / partial == pytest.approx(weight, abs=1e-9)

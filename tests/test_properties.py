"""Property test over the parameter wedge: the spectral kernel and TV curve
against exact dynamic programming, and t_mix's search on step functions.

The domain is q - p >= 0.05 and r >= 0.05, with p > 0 any normal float
(ChainParams rejects subnormal p).  The near-critical regime (q -> p, r -> 0,
or the AC edge r + 2 sqrt(pq) approaching 1) is left out on purpose: routing
it, where the series cutoff or the trapezoid node count outgrows its cap, is
open work on the roadmap (regime routing), and a property test over it would
fail by design today.

Inside the domain the spectral kernel has one known failing corner, p -> 0:
Q_n grows like (q/p)^(n/2) on an AC interval of width 4 sqrt(pq), and below
about p = 1e-6 the kernel integrals cancel past what extended precision
holds.  There kernel_matrix returns NaN for the entries it cannot certify,
or raises a typed error when the rest do not converge, instead of returning
an uncertified value; routing those chains to dynamic programming is part
of the same roadmap item.  The test accepts either only for p < 1e-5.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

from kmmix import ChainParams, ConvergenceError, QuadratureConfig, QuadratureError, \
    RegimeError, bound_coefficients, kernel_matrix, kernel_oracle, q_log_sup, reversibility, \
    tv_curve, tv_oracle_curve
from kmmix.mixing import _eps_floor, _first_below, _kernel_ac, tv_quadrature
from kmmix.spectral import negative_atom, node_count

import oracles

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=25,
                               database=None)


@st.composite
def chains(draw):
    p = draw(st.floats(min_value=0.0, max_value=0.45, exclude_min=True, allow_subnormal=False))
    r = draw(st.floats(min_value=0.05, max_value=0.95))
    q = 1.0 - p - r
    hypothesis.assume(q - p >= 0.05)
    return ChainParams(p, q, r)


@SETTINGS
@hypothesis.given(chains())
def test_kernel_matrix_matches_dp(chain):
    try:
        kernel = kernel_matrix(chain, range(21), 4)
    except QuadratureError:
        hypothesis.event("kernel_matrix raised in the p -> 0 corner")
        assert chain.p < 1e-5
        return
    if np.isnan(kernel).any():
        hypothesis.event("kernel_matrix left entries uncertified in the p -> 0 corner")
        assert chain.p < 1e-5
    dp = kernel_oracle(chain, range(21), 4)
    certified = ~np.isnan(kernel)
    assert np.all(np.abs(kernel - dp)[certified] <= 1e-9)


@SETTINGS
@hypothesis.given(chains())
def test_tv_curve_matches_dp(chain):
    exact = np.array(tv_curve(chain, range(41)))
    oracle = np.array(tv_oracle_curve(chain, 40))
    assert np.max(np.abs(exact - oracle)) <= 1e-8


# t_mix's search starts from TV(t) >= (1/2) alpha^t: (-alpha)^n is an
# eigenfunction of the walk, of eigenvalue -alpha, bounded by 1 and of mean 0
# under nu, so 2 TV(t) >= |E_0 (-alpha)^X_t| = alpha^t.
@SETTINGS
@hypothesis.given(chains())
def test_dp_stays_above_half_alpha_to_the_t(chain):
    alpha = bound_coefficients(chain).alpha
    dp = np.array(tv_oracle_curve(chain, 400))
    assert np.all(dp >= 0.5 * alpha ** np.arange(401))


# _first_below against the 15-probe search on non-increasing step functions:
# plateaus, zeros and single drops, brackets up to 1e7 wide, and any estimate
# of the lower end and rate, which may steer it but not mislead it.
@st.composite
def step_searches(draw):
    lo = draw(st.integers(-1, 10 ** 6))
    hi = lo + draw(st.integers(1, 10 ** 7))
    answer = draw(st.integers(lo + 1, hi))
    limit = draw(st.floats(1e-300, 0.5))
    above = draw(st.lists(st.floats(1e-12, 1e6), min_size=1, max_size=4))
    below = draw(st.lists(st.sampled_from([1.0, 1e-3, 1e-100, 0.0]) | st.floats(0.0, 1.0),
                          min_size=1, max_size=4))
    # levels[i] holds from starts[i] on, and drops below limit at the answer
    levels = [limit * (1.0 + a) for a in sorted(above, reverse=True)] + \
        [limit * b for b in sorted(below, reverse=True)]
    inner = st.integers(lo + 1, answer - 1) if answer > lo + 1 else st.just(lo)
    starts = [lo, *sorted(draw(st.lists(inner, min_size=len(above) - 1,
                                        max_size=len(above) - 1))), answer,
              *sorted(draw(st.lists(st.integers(answer + 1, hi + 1), min_size=len(below) - 1,
                                    max_size=len(below) - 1)))]
    log_lo = draw(st.floats(-800.0, 800.0))
    rate = draw(st.floats(1e-6, 1.0 - 1e-9))
    return lo, hi, answer, limit, starts, levels, log_lo, rate


@hypothesis.settings(SETTINGS, max_examples=150)
@hypothesis.given(step_searches())
def test_first_below_finds_the_step(search):
    lo, hi, answer, limit, starts, levels, log_lo, rate = search
    rounds = []

    def step(ts):
        return [levels[bisect_right(starts, t) - 1] for t in ts]

    def values(ts):
        rounds.append(ts)
        assert len(ts) == 2 and lo < ts[0] and ts[1] == ts[0] + 1 <= hi
        return step(ts)

    assert oracles.first_below_probes(step, limit, lo, hi) == answer
    assert _first_below(values, limit, lo, hi, log_lo, rate) == answer
    # within about twice bisection's rounds, each one values call on a pair
    assert len(rounds) <= 2 * (hi - lo).bit_length()


# The a-priori node count's bound against the error it bounds, observed at K/2
# and at K against a pass at 4K, on chains down to q - p = 0.005 (where K runs
# to thousands).  An override with tol 1e300 runs any count as given.
ANY_COUNT = 1e300


@st.composite
def slow_chains(draw):
    p = draw(st.floats(min_value=0.02, max_value=0.45))
    gap = draw(st.floats(min_value=0.005, max_value=0.3))
    hypothesis.assume(1.0 - 2.0 * p - gap >= 0.02)
    return ChainParams(p, p + gap, 1.0 - 2.0 * p - gap)


def _counts(k):
    return sorted({max(16, k // 2), k})


@SETTINGS
@hypothesis.given(slow_chains())
def test_tv_bound_covers_the_quadrature_error(chain):
    ts = [0, 9, 40]
    k = tv_quadrature(chain, ts)[1]
    wide = QuadratureConfig(node_count=4 * k, tol=ANY_COUNT)
    ref, ref_bound = tv_curve(chain, ts, cfg=wide), tv_quadrature(chain, ts, cfg=wide)[2]
    for n in _counts(k):
        cfg = QuadratureConfig(node_count=n, tol=ANY_COUNT)
        err = max(abs(a - b) for a, b in zip(tv_curve(chain, ts, cfg=cfg), ref))
        # beyond the two passes' bounds, float64 roundoff of the partial sums
        assert err <= tv_quadrature(chain, ts, cfg=cfg)[2] + ref_bound + 1e-14, (n, k, err)


# The same at deep t, where the series sum runs past a thousand degrees:
# the near-critical t_mix pair at eps 1e-3 (observed 8.7e-12 at K/2 = 360
# against a bound of 1.4e-2), a block past t = 2000, and a nearer chain.
@pytest.mark.parametrize("chain, ts", [
    (ChainParams(0.3, 0.32, 0.38), [8391, 8392]),
    (ChainParams(0.3, 0.32, 0.38), range(2000, 2021)),
    (ChainParams(0.3, 0.305, 0.395), [30000, 30001]),
])
def test_tv_bound_covers_the_quadrature_error_at_deep_t(chain, ts):
    k = tv_quadrature(chain, ts)[1]
    wide = QuadratureConfig(node_count=4 * k, tol=ANY_COUNT)
    ref, ref_bound = tv_curve(chain, ts, cfg=wide), tv_quadrature(chain, ts, cfg=wide)[2]
    for n in _counts(k):
        cfg = QuadratureConfig(node_count=n, tol=ANY_COUNT)
        err = max(abs(a - b) for a, b in zip(tv_curve(chain, ts, cfg=cfg), ref))
        assert err <= tv_quadrature(chain, ts, cfg=cfg)[2] + ref_bound + 1e-14, (n, k, err)


@SETTINGS
@hypothesis.given(slow_chains())
def test_kernel_bound_covers_the_quadrature_error(chain):
    ts, every = [0, 9, 40], np.arange(5)
    log_sup = q_log_sup(chain, 4, 4)  # entries to (4, 4), the kernel's plan for them
    k = node_count(chain, QuadratureConfig(), "kernel", log_sup)[0]
    wide = QuadratureConfig(node_count=4 * k, tol=ANY_COUNT)
    pi = reversibility(chain).pi(every)
    ref, ref_l1, _, ref_dtype = _kernel_ac(chain, ts, every, every, pi, wide)
    for n in _counts(k):
        cfg = QuadratureConfig(node_count=n, tol=ANY_COUNT)
        ac, l1, _, dtype = _kernel_ac(chain, ts, every, every, pi, cfg)
        bound = node_count(chain, cfg, "kernel", log_sup)[1] + \
            node_count(chain, wide, "kernel", log_sup)[1]
        # beyond the two passes' bounds, the roundoff of the dtype each ran in
        slack = bound + _eps_floor(dtype) * l1 + _eps_floor(ref_dtype) * ref_l1
        assert np.all(np.abs(ac - ref) <= slack), (n, k)


# tv_curve's atom terms (w2 - E2) loc2^t loc2^n are the per-t sum's bit for
# bit on both sides of the time where loc2^t underflows to 0.0, and where
# one raises the other raises the same: checked here on the whole wedge
# q > p > 0, r > 0, near-critical chains included.
@st.composite
def wedge_chains(draw):
    p = draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True, allow_subnormal=False))
    r = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    q = 1.0 - p - r
    hypothesis.assume(q > p)
    return ChainParams(p, q, r)


def _value_or_error(curve, chain, ts):
    try:
        return curve(chain, ts)
    except (ConvergenceError, QuadratureError, RegimeError, ValueError) as error:
        return type(error), str(error)


@hypothesis.settings(SETTINGS, max_examples=200)
@hypothesis.given(wedge_chains())
def test_atom_terms_match_the_per_t_sum_across_their_underflow(chain):
    loc2 = negative_atom(chain)[0]
    if abs(loc2) < 1.0:  # |loc2|^t passes 2^-1074, the least subnormal, then 2^-1076
        steps = [math.log(2.0) * k / -math.log(abs(loc2)) for k in (1074, 1076)]
        last, first = math.floor(steps[0]) - 1, math.ceil(steps[1]) + 1
        ts = sorted({max(0, last - 1), max(0, last), first - 1, first})
        assert np.power(loc2, float(last)) != 0.0 == np.power(loc2, float(first))
    else:  # loc2 has rounded to -1: no term vanishes
        ts = [0, 1, 2 ** 62, 2 ** 63]
    assert _value_or_error(tv_curve, chain, ts) == \
        _value_or_error(oracles.tv_curve_per_t, chain, ts)

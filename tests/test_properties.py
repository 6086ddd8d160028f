"""Property test over the parameter wedge: the spectral kernel and TV curve
against exact dynamic programming.

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

import numpy as np
import pytest

from kmmix import ChainParams, DistributionVector, QuadratureConfig, QuadratureError, evolve, \
    kernel_matrix, q_log_sup, tv_curve, tv_oracle_curve
from kmmix.mixing import _kernel_ac, tv_quadrature
from kmmix.spectral import EPS_FLOOR, node_count

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
    for i in range(5):
        mu = DistributionVector.point(i)
        for t in range(21):
            if t:
                mu = evolve(chain, mu, 1)
            dp = np.array([mu.prob(j) for j in range(5)])
            certified = ~np.isnan(kernel[t, i])
            assert np.all(np.abs(kernel[t, i] - dp)[certified] <= 1e-9), (t, i)


@SETTINGS
@hypothesis.given(chains())
def test_tv_curve_matches_dp(chain):
    exact = np.array(tv_curve(chain, range(41)))
    oracle = np.array(tv_oracle_curve(chain, 40))
    assert np.max(np.abs(exact - oracle)) <= 1e-8


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


@SETTINGS
@hypothesis.given(slow_chains())
def test_kernel_bound_covers_the_quadrature_error(chain):
    ts, every = [0, 9, 40], np.arange(5)
    log_sup = q_log_sup(chain, 16, 0)  # entries to (4, 4): the kernel's first degree block
    k = node_count(chain, QuadratureConfig(), "kernel", log_sup)[0]
    wide = QuadratureConfig(node_count=4 * k, tol=ANY_COUNT)
    ref, ref_l1 = _kernel_ac(chain, ts, 4, every, every, wide, "kernel")
    for n in _counts(k):
        cfg = QuadratureConfig(node_count=n, tol=ANY_COUNT)
        ac, l1 = _kernel_ac(chain, ts, 4, every, every, cfg, "kernel")
        bound = node_count(chain, cfg, "kernel", log_sup)[1] + \
            node_count(chain, wide, "kernel", log_sup)[1]
        for t in ts:
            # beyond the two passes' bounds, extended-precision roundoff
            slack = bound + EPS_FLOOR * (l1[t] + ref_l1[t])
            assert np.all(np.abs(ac[t] - ref[t]) <= slack), (n, k, t)

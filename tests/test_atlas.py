"""A seeded wedge atlas: across 600 chains of the whole wedge q > p > 0, r > 0,
each public value route gives the DP's value within its gate or a typed
error, never a wrong value.  The counts per outcome are pinned; a change that
raises one (a real route or a certified bound) updates it here.

r is log-uniform in [1e-6, 0.999] and delta = (q - p)/(1 - r) log-uniform in
[1e-6, 1], so p, q = (1 - r)(1 -+ delta)/2: a third of the chains sit within
1e-4 of criticality (delta < 1e-4), where the AC edge r + 2 sqrt(pq) comes
within about (1 - r) delta^2 / 2 of the atom at 1.

kernel_matrix is the one public quadrature route for the kernel's
integrals (the interval route of I_t(n) is its entry (0, n)), so it is
checked both as a 5 x 5 block and one entry at a time, each pass sized for
the entries it asks for.  integrate_psi and spectral_integral (the contour
route) are left out: neither has a roundoff floor yet, so at high degree
both return silently wrong values (on the worked example,
spectral_integral(c, 0, 60) reads 3.0e11 where the value is -0.421, and
integrate_psi of Q_60 Q_0 reads -8.5e8 where it is 0).  Admitting them only
at degrees that hide this would make the atlas claim what it does not check;
they join once each carries a floor that turns roundoff into a typed error.
"""

import math
import random
from collections import Counter

import numpy as np

from kmmix import ChainParams, ConvergenceError, QuadratureError, RegimeError, kernel_matrix, \
    kernel_oracle, t_mix, tv_curve, tv_oracle, tv_oracle_curve

TYPED = (ConvergenceError, QuadratureError, RegimeError)
TV_GATE, KERNEL_GATE = 1e-8, 1e-9  # against the DP, the project's gates
DP_HORIZON = 3000  # t_mix answers up to here are held to the DP's own first passage


def wedge_chains(count: int = 600, seed: int = 11) -> list:
    rng = random.Random(seed)
    chains = []
    for _ in range(count):
        r = math.exp(rng.uniform(math.log(1e-6), math.log(0.999)))
        delta = math.exp(rng.uniform(math.log(1e-6), 0.0))
        chains.append(ChainParams((1 - r) * (1 - delta) / 2, (1 - r) * (1 + delta) / 2, r))
    return chains


CHAINS = wedge_chains()


def outcome(call, judge) -> str:
    """judge(call()), the outcome's label, or the name of the typed error
    call raised."""
    try:
        value = call()
    except TYPED as err:
        return type(err).__name__
    return judge(value)


def within(gate: float, value, exact) -> str:
    """'answered' where every |value - exact| <= gate (a NaN fails), else
    'wrong'."""
    return "answered" if np.all(np.abs(np.asarray(value) - exact) <= gate) else "wrong"


def test_tv_curve_at_20():
    seen = Counter(outcome(lambda: tv_curve(c, [20])[0],
                           lambda v: within(TV_GATE, v, tv_oracle(c, 20))) for c in CHAINS)
    assert seen == Counter(answered=600)  # measured: worst 9.2e-13


def test_kernel_matrix_at_20():
    # all of the 5 x 5 block, rows below the diagonal included
    seen = Counter(outcome(lambda: kernel_matrix(c, [20], 4),
                           lambda k: within(KERNEL_GATE, k, kernel_oracle(c, [20], 4)))
                   for c in CHAINS)
    assert seen == Counter(answered=600)  # measured: worst 4.7e-15


def test_kernel_entries_at_20():
    # one-entry calls, each pass sized for its own (i, j)
    seen = Counter()
    for c in CHAINS:
        dp = kernel_oracle(c, [20], 4)[0]
        seen.update(outcome(lambda: kernel_matrix(c, [20], 4, rows=[i], cols=[j]),
                            lambda k: within(KERNEL_GATE, k, dp[i, j]))
                    for i, j in ((4, 4), (0, 4), (4, 0), (1, 3)))
    assert seen == Counter(answered=2400)  # measured: worst 2.1e-15


def test_t_mix_every_fourth():
    def first_passage(c, t):
        # t must be where the DP's TV first falls to 0.1; past DP_HORIZON unchecked
        if t > DP_HORIZON:
            return "past the DP horizon"
        curve = tv_oracle_curve(c, t)
        return "held" if curve[t] <= 0.1 and (t == 0 or curve[t - 1] > 0.1) else "wrong"

    seen = Counter(outcome(lambda: t_mix(c, 0.1), lambda t: first_passage(c, t))
                   for c in CHAINS[::4])
    # every refusal is the search's bracket passing its cap
    assert seen == Counter({"held": 31, "past the DP horizon": 41, "ConvergenceError": 78})

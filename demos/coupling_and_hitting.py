"""Hitting times of the origin and coupling simulations.

Compares the combinatorial hitting-time formula with the exact first-passage
probabilities (they differ by exactly the path-count factor k/n), shows the
geometric-order tail model against the exact stationary-start survival, and
runs both Monte Carlo couplings: the classical one with independent moves
and the modified one that synchronizes moves away from the origin.  The
survival of either coupling upper-bounds the TV distance pointwise.
"""

import math

import numpy as np

from kmmix import (ChainParams, hitting_pmf_exact_curve, hitting_pmf_multinomial,
                   hitting_tail_asymptote, rate_fit, simulate_classical,
                   simulate_modified, stationary_hitting_survival, tv_oracle_curve)

chain = ChainParams(1 / 11, 9 / 11, 1 / 11)
SEED = 11

print("== hitting-time pmf: multinomial count vs first passage ==")
print(f"{'n':>3} {'k':>3} {'multinomial':>14} {'first-passage':>14} {'ratio':>8} {'k/n':>6}")
for (n, k) in ((1, 3), (1, 6), (2, 8), (4, 12)):
    lhs = hitting_pmf_multinomial(chain, n, k)
    rhs = hitting_pmf_exact_curve(chain, n, k)[k]
    print(f"{n:>3} {k:>3} {lhs:14.6e} {rhs:14.6e} {lhs/rhs:8.4f} {k/n:6.2f}")

print("\n== stationary-start survival vs geometric-order model ==")
surv = stationary_hitting_survival(chain, 100)
print(f"{'t':>4} {'exact P(tau>t)':>16} {'C beta^t':>16}")
for t in (0, 10, 30, 60, 100):
    print(f"{t:>4} {surv[t]:16.6e} {hitting_tail_asymptote(chain, t):16.6e}")
ts = np.arange(40, 101)
slope = np.polyfit(ts, np.log(surv[40:101]), 1)[0]
print(f"window slope over [40,100]: {slope:.6f} vs log(beta) = {math.log(7/11):.6f}")
print("(the exact curve carries a t^(-3/2) prefactor, so the window slope sits"
      " a few percent steep of log(beta))")

print("\n== Monte Carlo couplings (100k replicas) ==")
classical = simulate_classical(chain, 100, 100_000, SEED)
modified = simulate_modified(chain, 100, 100_000, SEED)
tv = tv_oracle_curve(chain, 100)  # the exact DP at every t <= 100, in one sweep
print(f"{'t':>4} {'tv_oracle':>12} {'classical':>12} {'modified':>12}")
for t in (0, 5, 20, 50, 100):
    print(f"{t:>4} {tv[t]:12.4e} {classical.survival[t]:12.4e} "
          f"{modified.survival[t]:12.4e}")
worst = min(
    min(c.survival[t] + 3 * c.stderr[t] - tv[t]
        for t in range(101))
    for c in (classical, modified))
print(f"coupling inequality worst margin over t <= 100: {worst:.3e} (nonnegative)")

fit_c = rate_fit(classical, (20, 80))
fit_m = rate_fit(modified, (20, 100))
print(f"\nfitted decay rates: classical {fit_c.rate:.5f} +- {fit_c.stderr:.5f}, "
      f"modified {fit_m.rate:.5f} +- {fit_m.stderr:.5f}")
print(f"modified-coupling asymptotic rate q(q+p-r)/(q-r) = {chain.q*(chain.q+chain.p-chain.r)/(chain.q-chain.r):.6f}")
print(f"TV decay rate alpha = q/(q+r) = {chain.q/(chain.q+chain.r):.6f}")

"""Distance to stationarity and mixing times, three ways.

Prints a table comparing the exact spectral series for the TV distance with
the dynamic-programming oracle and the closed-form envelopes
A alpha^t +- B beta^t, recovers the decay rate from the curve, and solves for
mixing times at several targets.  Also demonstrates that the interval and
contour representations of the spectral integral agree.
"""

import math

import numpy as np

from kmmix import (ChainParams, bound_coefficients, build_measure, kernel_matrix,
                   reversibility, spectral_integral, t_mix, tv_curve, tv_envelope,
                   tv_oracle_curve)

chain = ChainParams(1 / 11, 9 / 11, 1 / 11)
co = bound_coefficients(chain)

print("== envelope constants ==")
print(f"A = {co.A:.10f} (91/171), B = {co.B:.10f} (39/28)")
print(f"alpha = {co.alpha}, beta = {co.beta:.10f}, m = max = {co.m}")

print("\n== TV distance table ==")
print(f"{'t':>4} {'exact':>14} {'oracle':>14} {'upper':>14} {'lower':>14}")
oracle = tv_oracle_curve(chain, 100)  # the DP at every t <= 100, in one sweep
times = (0, 1, 2, 5, 10, 20, 40, 60, 80, 100)
for t, exact, upper, lower, valid in zip(times, tv_curve(chain, times),
                                         *tv_envelope(chain, times)):
    lower_txt = f"{lower:14.6e}" if valid else f"{'(invalid)':>14}"
    print(f"{t:>4} {exact:14.6e} {oracle[t]:14.6e} {upper:14.6e} {lower_txt}")

print("\n== decay rate from the exact curve ==")
ts = np.arange(30, 81)
slope = np.polyfit(ts, np.log(tv_curve(chain, ts)), 1)[0]
print(f"log-slope over t in [30, 80]: {slope:.8f}   log(alpha) = {math.log(co.alpha):.8f}")

print("\n== mixing times ==")
print(f"{'eps':>8} {'exact':>6} {'bound':>6}")
for eps in (1e-1, 1e-2, 1e-3, 1e-6, 1e-9):
    print(f"{eps:8.0e} {t_mix(chain, eps):>6} {t_mix(chain, eps, method='bound'):>6}")
t1, t2 = t_mix(chain, 1e-6), t_mix(chain, 1e-12)
print(f"halving the log target doubles the time: t(1e-12)/t(1e-6) = {t2/t1:.4f}")

print("\n== one integral, two routes ==")
# interval: the kernel entry p_t(0, n) = pi_n (w1 + I_t(n)); contour: spectral_integral
w1 = build_measure(chain).atom1[1]
print(f"{'(t, n)':>10} {'interval':>16} {'contour':>16}")
for (t, n) in ((0, 0), (0, 7), (12, 3), (45, 18)):
    iv = kernel_matrix(chain, [t], n, rows=[0], cols=[n])[0, 0, 0] / reversibility(chain).pi(n) - w1
    cv = spectral_integral(chain, t, n)
    print(f"({t:>3},{n:>3})  {iv:16.9e} {cv:16.9e}")

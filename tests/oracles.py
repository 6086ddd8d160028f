"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: truncated transition matrices, direct
path enumeration, and exact pair-chain dynamic programming.  These share no
code with the package internals they are checking.
"""

from fractions import Fraction

import numpy as np

from kmmix import ChainParams, reversibility


def transition_matrix(chain: ChainParams, size: int) -> np.ndarray:
    """Truncated transition matrix on states 0..size-1 (top row leaks mass,
    so keep size well above any state reachable in the horizon)."""
    P = np.zeros((size, size))
    P[0, 1] = 1.0
    for n in range(1, size):
        P[n, n - 1] = chain.q
        if n + 1 < size:
            P[n, n + 1] = chain.p
        P[n, n] = chain.r
    return P


def law_after(chain: ChainParams, start: int, t: int, size: int) -> np.ndarray:
    mu = np.zeros(size)
    mu[start] = 1.0
    P = transition_matrix(chain, size)
    for _ in range(t):
        mu = mu @ P
    return mu


def q_exact(chain: ChainParams, n: int, lam) -> Fraction:
    """Q_n(lam) from Q_0 = 1, Q_1 = lam and lam Q_k = q Q_{k-1} + r Q_k +
    p Q_{k+1}, in exact rational arithmetic on the exact binary values of the
    float parameters and of lam."""
    p, q, r, x = (Fraction(*v.as_integer_ratio()) for v in (chain.p, chain.q, chain.r, lam))
    prev, cur = Fraction(1), x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, ((x - r) * cur - q * prev) / p
    return cur


def tv_by_matrix(chain: ChainParams, t: int, size: int = 400) -> float:
    """TV distance via the truncated matrix plus the closed stationary tail."""
    mu = law_after(chain, 0, t, size)
    rev = reversibility(chain)
    nu = np.asarray(rev.nu(np.arange(size)))
    return 0.5 * (np.abs(mu - nu).sum() + rev.nu_tail(size - 1))


def coupling_survival_dp(chain: ChainParams, horizon: int, synchronized: bool,
                         cap: int = 250) -> np.ndarray:
    """Exact survival curve of the coupling time for the classical
    (independent moves) or modified (shared moves away from 0) coupling,
    X_0 = 0 and Y_0 stationary.

    States above `cap` are lumped into a never-coupling bucket; within the
    horizon that mass cannot return, so the curve is exact up to the lumped
    mass (astronomically small for the chains used in tests)."""
    p, q, r = chain.p, chain.q, chain.r
    rev = reversibility(chain)
    surv = np.zeros(horizon + 1)
    lost = rev.nu_tail(cap)
    if synchronized:
        # gap freezes while both are positive: state (m, d), m = min, d = gap
        mass = np.zeros((cap + 1, cap + 1))
        dvals = np.arange(1, cap + 1)
        mass[0, 1:] = np.asarray(rev.nu(dvals))
        surv[0] = mass.sum() + lost
        for t in range(1, horizon + 1):
            new = np.zeros_like(mass)
            sub = mass[1:, :]                      # synchronized descent
            new[2:, :] += p * sub[:-1, :]
            new[1:, :] += r * sub
            new[0:-1, :] += q * sub
            lost += p * mass[cap, :].sum()
            b = mass[0, :]                         # boundary: lower jumps to 1
            new[1, 1:] += p * b[1:]                # upper up: gap unchanged
            new[1, 1:cap] += r * b[2:]             # upper holds: gap-1 (d=1 meets)
            new[0, 1] += q * b[1]                  # (0,1) -> (1,0): dance swap
            new[1, 1:cap - 1] += q * b[3:]         # upper down: gap-2 (d=2 meets)
            mass = new
            surv[t] = mass.sum() + lost
        return surv
    # classical: independent pair (x, y), kill on the diagonal
    mass = np.zeros((cap + 1, cap + 1))
    mass[0, 1:] = np.asarray(rev.nu(np.arange(1, cap + 1)))
    surv[0] = mass.sum() + lost
    for t in range(1, horizon + 1):
        new = np.zeros_like(mass)
        # independent moves: apply the 1-d stencil to each axis in turn
        stage = np.zeros_like(mass)
        stage[1, :] += mass[0, :]                  # x at 0 jumps to 1
        stage[2:, :] += p * mass[1:-1, :]
        stage[1:-1, :] += r * mass[1:-1, :]
        stage[0:-2, :] += q * mass[1:-1, :]
        lost += mass[-1, :].sum()                  # x at cap: lump
        new[:, 1] += stage[:, 0]                   # y at 0 jumps to 1
        new[:, 2:] += p * stage[:, 1:-1]
        new[:, 1:-1] += r * stage[:, 1:-1]
        new[:, 0:-2] += q * stage[:, 1:-1]
        lost += stage[:, -1].sum()
        np.fill_diagonal(new, 0.0)                 # meeting kills the pair
        mass = new
        surv[t] = mass.sum() + lost
    return surv


def log_slope(values: np.ndarray, t_lo: int, t_hi: int) -> float:
    """Least-squares slope of log(values[t]) over t_lo..t_hi."""
    t = np.arange(t_lo, t_hi + 1, dtype=float)
    y = np.log(values[t_lo:t_hi + 1])
    return float(np.polyfit(t, y, 1)[0])

"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: truncated transition matrices, direct
path enumeration, and exact pair-chain dynamic programming.  These share no
code with the package internals they are checking, except tv_by_bracket_matrix:
it takes tv_curve's cutoffs and nodes and checks only how the series is summed.
"""

import math
from fractions import Fraction

import numpy as np

from kmmix import ChainParams, reversibility
from kmmix.mixing import tv_quadrature
from kmmix.orthopoly import q_bracket_matrix
from kmmix.spectral import negative_atom, theta_nodes


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


def counter_uniforms(seed: int, step: int, channel: int, replicas: int) -> np.ndarray:
    """The counter-based draws of replicas 0..replicas-1 at (step, channel):
    splitmix64's finalizer of seed + GOLDEN * (replica * 2^32 + 4 step +
    channel), top 53 bits over 2^53."""
    ctr = (np.arange(replicas, dtype=np.uint64) << np.uint64(32)) + np.uint64(4 * step + channel)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.uint64(0x9E3779B97F4A7C15) * ctr
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def coupling_survival_full(chain: ChainParams, horizon: int, replicas: int, seed: int,
                           synchronized: bool):
    """(survival, stderr) of the coupling simulation with every replica
    stepped on every step: all three move channels drawn for all replicas,
    and coupled pairs held in place by masking."""
    p, r = chain.p, chain.r

    def step(state, u):
        moved = state + (u < p).astype(np.int64) - (u >= p + r).astype(np.int64)
        return np.where(state == 0, 1, moved)

    y = reversibility(chain).sample_stationary(counter_uniforms(seed, 0, 3, replicas))
    x = np.zeros(replicas, dtype=np.int64)
    coupled = x == y
    counts = np.zeros(horizon + 1, dtype=np.int64)
    counts[0] = replicas - int(coupled.sum())
    for t in range(1, horizon + 1):
        u_shared, u_x, u_y = (counter_uniforms(seed, t, c, replicas) for c in (0, 1, 2))
        if synchronized:
            both_positive = (x > 0) & (y > 0)
            u_x = np.where(both_positive, u_shared, u_x)
            u_y = np.where(both_positive, u_shared, u_y)
        x = np.where(coupled, x, step(x, u_x))
        y = np.where(coupled, y, step(y, u_y))
        coupled |= x == y
        counts[t] = replicas - int(coupled.sum())
    survival = counts / float(replicas)
    return survival, np.sqrt(survival * (1.0 - survival) / replicas)


def log_slope(values: np.ndarray, t_lo: int, t_hi: int) -> float:
    """Least-squares slope of log(values[t]) over t_lo..t_hi."""
    t = np.arange(t_lo, t_hi + 1, dtype=float)
    y = np.log(values[t_lo:t_hi + 1])
    return float(np.polyfit(t, y, 1)[0])


def node_powers_stepwise(x: np.ndarray, ts):
    """(t, x^t) for the ascending ts, each power carried forward from the last
    by a fresh np.power per step (x itself for a step of 1), with no reuse."""
    xt, t_prev = np.ones_like(x), 0
    for t in ts:
        xt = xt * (x if t - t_prev == 1 else np.power(x, t - t_prev))
        t_prev = t
        yield t, xt


def tv_by_bracket_matrix(chain: ChainParams, ts) -> list:
    """tv_curve's series at every t of ts, its AC parts (Q w x^t)_n, n <= N_t,
    taken as one product with the Q_n bracket matrix instead of by the sine
    transform: the same cutoffs N_t and node count, from tv_quadrature."""
    cuts, n_nodes, _ = tv_quadrature(chain, ts)
    x, w, two_cos = theta_nodes(chain, n_nodes)
    q_rows = q_bracket_matrix(chain, max(cuts.values()), x, two_cos)
    loc2, w2 = negative_atom(chain)
    values = {}
    for t, n_cut in cuts.items():
        n = np.arange(n_cut + 1)
        ac = np.dot(q_rows[: n_cut + 1], w * np.power(x, t)).astype(float)
        pi_n = np.atleast_1d(reversibility(chain).pi(n))
        values[t] = math.fsum(0.5 * pi_n * np.abs(w2 * loc2 ** (t + n) + ac))
    return [values[t] for t in ts]


def evolve_fancy_index(chain: ChainParams, start, t: int):
    """(offset, mass) after t steps from a DistributionVector, one step at a
    time through fancy-index adds: the p, r and q terms added in that order
    into a zeroed vector, the reflecting 0 -> 1 move first."""
    p, q, r = chain.p, chain.q, chain.r
    lo, mass = start.offset, start.mass.copy()
    for _ in range(t):
        hi = lo + mass.size - 1
        new_lo = max(lo - 1, 0)
        new = np.zeros(hi + 2 - new_lo)
        if lo == 0:
            new[1 - new_lo] += mass[0]
            body, s0 = mass[1:], 1
        else:
            body, s0 = mass, lo
        if body.size:
            j = np.arange(s0, hi + 1) - new_lo
            new[j + 1] += p * body
            new[j] += r * body
            new[j - 1] += q * body
        lo, mass = new_lo, new
    return lo, mass


def tv_by_fraction(p: Fraction, q: Fraction, r: Fraction, t: int) -> Fraction:
    """TV distance at time t, started at the origin, of the chain with the
    rational parameters (p, q, r), exactly.  The DP runs in integers: with D a
    common denominator of p, q, r, the law mu_t times D^t is an integer vector.
    The stationary law nu_n = pi_n / rho and its tail above t are closed forms."""
    p, q, r = Fraction(p), Fraction(q), Fraction(r)
    if p + q + r != 1:
        raise ValueError("p + q + r must be 1")
    den = math.lcm(p.denominator, q.denominator, r.denominator)
    a, b, c = (int(v * den) for v in (p, q, r))
    mass = [1]  # D^t mu_t on states 0..t
    for _ in range(t):
        new = [0] * (len(mass) + 1)
        new[1] += den * mass[0]
        for j, m in enumerate(mass[1:], start=1):
            new[j + 1] += a * m
            new[j] += c * m
            new[j - 1] += b * m
        mass = new
    ratio, rho = p / q, (q - p + 1) / (q - p)
    nu = [1 / rho] + [ratio ** n / (p * rho) for n in range(1, t + 1)]
    tail = ratio ** t / (q - p) / rho
    scale = Fraction(den) ** t
    return (sum(abs(Fraction(m) / scale - v) for m, v in zip(mass, nu)) + tail) / 2

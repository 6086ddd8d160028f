"""Hitting times of the origin and Monte Carlo coupling experiments.

Two couplings of a stationary copy Y with the origin-started copy X are
simulated:

  * classical: X and Y draw independent moves until they first share a site;
  * modified: X and Y share one move draw whenever both are away from the
    origin (their gap freezes), and draw independently when one of them sits
    at 0.  Meetings then happen only through the boundary.

P(coupling time > t) upper-bounds the TV distance at time t, which is the
inequality the simulations are checked against.  The reported stderr is the
plug-in binomial sqrt(s(1-s)/replicas), 0 when no replica survives: compare
with TV through a Wilson score bound instead.

Randomness is counter based: the draw for (replica, step, channel) is a
splitmix64-style finalizer of seed + GOLDEN * counter with
counter = replica * 2^32 + 4 * step + channel.  Each replica owns a fixed
counter block (disjoint while horizon < 2^30 and replicas <= 2^32, the
simulations' limits), so its stream never depends on the replica count, the
horizon, which replicas are still uncoupled, or any scheduling.  The
simulations step only the live (uncoupled) replicas and draw each channel
only at the live indices that read it; runs are bit-identical for a fixed
configuration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, reversibility

__all__ = [
    "SurvivalCurve",
    "RateFit",
    "simulate_classical",
    "simulate_modified",
    "rate_fit",
    "hitting_pmf_multinomial",
    "hitting_pmf_exact",
    "hitting_pmf_exact_curve",
    "hitting_tail_asymptote",
    "stationary_hitting_survival",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHANNELS = 4  # 0 shared move, 1 X move, 2 Y move, 3 stationary start


def _uniforms(seed: int, step: int, channel: int, replicas: int,
              index: np.ndarray = None) -> np.ndarray:
    """`replicas` uniforms in [0, 1) for (step, channel), one per uint64 replica
    number in `index` (np.arange(replicas) by default)."""
    if index is None:
        index = np.arange(replicas, dtype=np.uint64)
    # in place on one fresh array: each large temporary costs an allocation and page faults
    z = index << np.uint64(32)
    z += np.uint64(_CHANNELS * step + channel)
    z *= _GOLDEN
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)  # seeds are 64-bit unsigned
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z.astype(np.float64) / float(1 << 53)


@dataclass(frozen=True)
class SurvivalCurve:
    """Monte Carlo estimate of P(coupling time > t) with pointwise binomial
    standard errors sqrt(s(1-s)/replicas)."""

    horizon: int
    survival: np.ndarray
    stderr: np.ndarray
    replicas: int
    seed: int
    mode: str


@dataclass(frozen=True)
class RateFit:
    rate: float
    stderr: float


def _step(state: np.ndarray, u: np.ndarray, p: float, r: float) -> np.ndarray:
    """One chain move per replica driven by one uniform (0 is reflecting)."""
    moved = state + (u < p) - (u >= p + r)
    moved[state == 0] = 1
    return moved


def _simulate(chain: ChainParams, horizon: int, replicas: int, seed: int,
              synchronized: bool) -> SurvivalCurve:
    if horizon >= 2 ** 30 or replicas > 2 ** 32:
        raise ValueError("need horizon < 2^30 and replicas <= 2^32 (disjoint counter blocks)")
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    p, r = chain.p, chain.r
    y = reversibility(chain).sample_stationary(_uniforms(seed, 0, 3, replicas))
    # the live set: replica numbers and states of the pairs still apart
    live = np.flatnonzero(y).astype(np.uint64)
    y = y[y != 0]
    x = np.zeros(live.size, dtype=np.int64)
    counts = np.zeros(horizon + 1, dtype=np.int64)
    counts[0] = live.size
    for t in range(1, horizon + 1):
        if not live.size:
            break
        if synchronized:
            both_positive = (x > 0) & (y > 0)
            shared, edge = np.flatnonzero(both_positive), np.flatnonzero(~both_positive)
            both, apart = live[shared], live[edge]  # edge: one walker at 0
            u_x = np.empty(live.size)
            u_x[shared] = _uniforms(seed, t, 0, both.size, both)
            u_y = u_x.copy()
            u_x[edge] = _uniforms(seed, t, 1, apart.size, apart)
            u_y[edge] = _uniforms(seed, t, 2, apart.size, apart)
        else:
            u_x = _uniforms(seed, t, 1, live.size, live)
            u_y = _uniforms(seed, t, 2, live.size, live)
        x, y = _step(x, u_x, p, r), _step(y, u_y, p, r)
        keep = x != y
        live, x, y = live[keep], x[keep], y[keep]
        counts[t] = live.size
    survival = counts / float(replicas)
    stderr = np.sqrt(survival * (1.0 - survival) / replicas)
    return SurvivalCurve(horizon=horizon, survival=survival, stderr=stderr,
                         replicas=replicas, seed=seed,
                         mode="modified" if synchronized else "classical")


def simulate_classical(chain: ChainParams, horizon: int, replicas: int, seed: int) -> SurvivalCurve:
    """Independent evolution of X (from 0) and Y (stationary) until they meet."""
    return _simulate(chain, horizon, replicas, seed, synchronized=False)


def simulate_modified(chain: ChainParams, horizon: int, replicas: int, seed: int) -> SurvivalCurve:
    """Shared move draws whenever both walkers are away from 0, independent
    draws when one of them sits at 0."""
    return _simulate(chain, horizon, replicas, seed, synchronized=True)


def rate_fit(curve: SurvivalCurve, window) -> RateFit:
    """Geometric decay rate of the survival curve over the window (t_lo, t_hi):
    exp of the least-squares slope of log survival, with the slope's standard
    error (from the fit residuals) mapped through the same exponential."""
    t_lo, t_hi = window
    if not 0 <= t_lo < t_hi <= curve.horizon:
        raise ValueError(f"window {window} must sit inside [0, {curve.horizon}]")
    s = curve.survival[t_lo:t_hi + 1]
    if np.any(s <= 0.0):
        raise ValueError(
            "survival hits zero inside the window; shorten the window or "
            "increase replicas"
        )
    t = np.arange(t_lo, t_hi + 1, dtype=float)
    y = np.log(s)
    design = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ np.array([slope, intercept])
    dof = max(len(t) - 2, 1)
    slope_se = math.sqrt(float(resid @ resid) / dof / float(((t - t.mean()) ** 2).sum()))
    rate = math.exp(slope)
    return RateFit(rate=rate, stderr=rate * slope_se)


def hitting_pmf_multinomial(chain: ChainParams, n: int, k: int) -> float:
    """Unrestricted-path mass sum_{2i+j=k-n} k!/(i!(i+n)!j!) p^i q^(i+n) r^j,
    the multinomial count of all length-k words with a net drop of n.

    This counts every word, not only first-passage ones; the exact
    first-passage pmf is n/k times this value (cycle lemma), which is what
    hitting_pmf_exact returns.  Evaluated with log-factorials."""
    if not 1 <= n <= k:
        raise ValueError("need k >= n >= 1")
    p, q, r = chain.p, chain.q, chain.r
    lp, lq, lr = math.log(p), math.log(q), math.log(r)
    lk = math.lgamma(k + 1)
    terms = []
    for i in range((k - n) // 2 + 1):
        j = k - n - 2 * i
        log_term = (lk - math.lgamma(i + 1) - math.lgamma(i + n + 1) - math.lgamma(j + 1)
                    + i * lp + (i + n) * lq + j * lr)
        terms.append(math.exp(log_term))
    return math.fsum(terms)


def hitting_pmf_exact_curve(chain: ChainParams, n: int, k_max: int) -> np.ndarray:
    """Exact first-passage pmf P(tau = k | Y_0 = n) for k = 0..k_max, by
    forward DP with an absorbing origin."""
    if n < 1:
        raise ValueError("start state must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    p, q, r = chain.p, chain.q, chain.r
    top = n + k_max + 1
    mass = np.zeros(top + 1)  # states 1..top at indices 1..top
    mass[n] = 1.0
    pmf = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        pmf[k] = q * mass[1]
        new = np.zeros_like(mass)
        new[1:-1] += r * mass[1:-1]
        new[2:] += p * mass[1:-1]
        new[1:-2] += q * mass[2:-1]
        mass = new
    return pmf


def hitting_pmf_exact(chain: ChainParams, n: int, k: int) -> float:
    """Exact first-passage probability P(tau = k | Y_0 = n)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(hitting_pmf_exact_curve(chain, n, k)[k])


def hitting_tail_asymptote(chain: ChainParams, t: int) -> float:
    """Geometric-order tail model C beta^t of the stationary-start hitting
    time, C = beta / (p rho (sqrt(q) - sqrt(p))^2), beta = r + 2 sqrt(pq)."""
    p, q = chain.p, chain.q
    beta = chain.support[1]
    rho = reversibility(chain).rho
    c = beta / (p * rho * (math.sqrt(q) - math.sqrt(p)) ** 2)
    return c * beta ** t


def stationary_hitting_survival(chain: ChainParams, horizon: int) -> np.ndarray:
    """Exact P(tau > t), t = 0..horizon, for Y_0 stationary and tau the first
    visit to 0.

    DP on states 1..horizon with an overflow bucket: mass starting or drifting
    above the barrier cannot reach 0 within the horizon, so it survives
    surely and the curve is exact."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    p, q, r = chain.p, chain.q, chain.r
    rev = reversibility(chain)
    states = np.arange(1, horizon + 1)
    mass = np.asarray(rev.nu(states), dtype=float)
    bucket = rev.nu_tail(horizon)  # starts above the barrier: survives surely
    surv = np.zeros(horizon + 1)
    surv[0] = 1.0 - rev.nu(0)
    for t in range(1, horizon + 1):
        new = np.zeros_like(mass)
        new += r * mass
        new[1:] += p * mass[:-1]
        new[:-1] += q * mass[1:]
        bucket += p * mass[-1]
        mass = new  # q * mass[0] was absorbed at the origin
        surv[t] = mass.sum() + bucket
    return surv

"""Hitting times of the origin and Monte Carlo coupling experiments.

The exact hitting curves run chain._advance, the walk's one DP step, and
read off and remove the mass each step puts on the absorbing origin.

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

Randomness is counter based: the draw for (replica, step, channel) is
splitmix64's finalizer of seed + GOLDEN * counter with
counter = replica * 2^32 + 4 * step + channel, computed as the replica's key
(replica << 32) * GOLDEN + seed plus one scalar per (step, channel).  Each
replica owns a fixed counter block (disjoint while horizon < 2^30 and
replicas <= 2^32, the simulations' limits), so its stream never depends on
the replica count, the horizon, which replicas are still uncoupled, or any
scheduling; runs are bit-identical for a fixed configuration.  A draw's
uniform u is its 64-bit word's top 53 bits over 2^53, and each move is
decided on the word itself: u < p exactly when word < ceil(p 2^53) 2^11.

The simulations step only the live pairs, those still apart.  Channel 3 is
drawn once per replica, at step 0, for Y's stationary start.  At each step
classical mode draws channels 1 and 2 at every live pair.  Modified mode
draws channel 0 at every live pair, read where both walkers are positive,
and one more word where one walker sits at 0: channel 1 if X is the walker
away from 0, channel 2 if Y is.  The walker at 0 reads no word, as it moves
to 1.  Modified mode keeps each pair as min(x, y) and the signed gap x - y:
the shared move shifts the minimum alone, so the gap changes, and the pair
can meet, only where one walker sits at 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, _advance, _stencil, reversibility

__all__ = [
    "SurvivalCurve",
    "RateFit",
    "simulate_classical",
    "simulate_modified",
    "rate_fit",
    "hitting_pmf_multinomial",
    "hitting_pmf_exact_curve",
    "hitting_tail_asymptote",
    "stationary_hitting_survival",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHANNELS = 4  # 0 shared move, 1 X move, 2 Y move, 3 stationary start


def _keys(seed: int, numbers: np.ndarray) -> np.ndarray:
    """The key (replica << 32) * GOLDEN + seed mod 2^64 of each uint64 replica
    number: the draw of (step, channel) hashes key + (4 step + channel) * GOLDEN."""
    keys = numbers << np.uint64(32)
    keys *= np.uint64(_GOLDEN)
    keys += np.uint64(seed & _MASK)  # seeds are 64-bit unsigned
    return keys


def _uniforms(keys: np.ndarray, step: int, channel: int, replicas: int,
              out: np.ndarray = None) -> np.ndarray:
    """The uniform 64-bit words of (step, channel) at the first `replicas`
    keys, written into out[:replicas] (a fresh array by default): splitmix64's
    finalizer of key + (4 step + channel) * GOLDEN.  A word's uniform in [0, 1)
    is its top 53 bits over 2^53 (`_unit`)."""
    # the offset in Python ints: a wrapping numpy uint64 scalar product warns
    offset = np.uint64((_CHANNELS * step + channel) * _GOLDEN & _MASK)
    z = np.add(keys[:replicas], offset, out=None if out is None else out[:replicas])
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _unit(words: np.ndarray) -> np.ndarray:
    """The uniforms in [0, 1) of 64-bit words: the top 53 bits over 2^53."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u /= float(1 << 53)
    return u


def _last_below(prob: float) -> np.uint64:
    """The largest word whose uniform is below prob > 0, so that u < prob
    exactly when word <= _last_below(prob): (word >> 11) < prob * 2^53, an
    exact product, holds exactly when word < ceil(prob * 2^53) * 2^11.  Past
    2^64 - 1 that bound admits every word, as when p + r exceeds 1 by
    rounding."""
    return np.uint64(min(math.ceil(prob * 2.0 ** 53) << 11, 1 << 64) - 1)


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


def _step(state: np.ndarray, words: np.ndarray, up: np.uint64, down: np.uint64):
    """One move of the walk per walker, in place, each driven by its word: up
    where word <= up or the walker is at 0 (reflecting), down where
    word > down and the walker is above 0 (`_last_below` of p and of p + r)."""
    at_zero = state == 0
    rise = words <= up
    rise |= at_zero
    fall = words > down
    fall &= ~at_zero
    state += rise
    state -= fall


def _drop(dead: np.ndarray, n: int, arrays) -> int:
    """Remove the ascending slots `dead` from the first n entries of every
    array, moving the last live entries into the holes; returns the new n.
    A replica is its key, so the order of the live set is free."""
    if not dead.size:
        return n
    n -= dead.size
    holes = dead[:np.searchsorted(dead, n)]
    tail = np.ones(dead.size, dtype=bool)
    tail[dead[holes.size:] - n] = False  # dead slots among the last ones
    fill = n + np.flatnonzero(tail)
    for a in arrays:
        a[holes] = a[fill]
    return n


def _stationary_start(chain: ChainParams, seed: int, replicas: int):
    """The keys and stationary states Y_0 of the replicas whose Y_0 is not 0."""
    u = _unit(_uniforms(_keys(seed, np.arange(replicas, dtype=np.uint64)), 0, 3, replicas))
    y = reversibility(chain).sample_stationary(u)
    apart = np.flatnonzero(y)
    return _keys(seed, apart.astype(np.uint64)), y[apart]


def _simulate(chain: ChainParams, horizon: int, replicas: int, seed: int,
              synchronized: bool) -> SurvivalCurve:
    if horizon >= 2 ** 30 or replicas > 2 ** 32:
        raise ValueError("need horizon < 2^30 and replicas <= 2^32 (disjoint counter blocks)")
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    up, down = _last_below(chain.p), _last_below(chain.p + chain.r)
    # the live set: the pairs still apart, kept in the first n entries of keys
    # and of the state arrays; X starts at 0
    keys, y = _stationary_start(chain, seed, replicas)
    n = keys.size
    if synchronized:
        # the lower walker min(x, y) and the signed gap x - y: the shared move
        # shifts low alone, and the gap changes only where low is 0
        low, gap = np.zeros(n, dtype=np.int64), np.negative(y, out=y)
        arrays = (low, gap, keys)
    else:
        x = np.zeros(n, dtype=np.int64)
        arrays = (x, y, keys)
    words = np.empty(n, dtype=np.uint64)
    counts = np.zeros(horizon + 1, dtype=np.int64)
    counts[0] = n
    for t in range(1, horizon + 1):
        if not n:
            break
        if synchronized:
            edge = np.flatnonzero(low[:n] == 0)  # one walker at 0, the other at |gap|
            _step(low[:n], _uniforms(keys, t, 0, n, words), up, down)  # edges rewritten below
            away = gap[edge]
            y_away = away < 0  # X at 0, Y at -gap
            np.abs(away, out=away)
            # the walker away from 0 draws its own channel, X channel 1 and Y
            # channel 2; channel 2 at key k is channel 1 at key k + GOLDEN,
            # the counter's next channel, so one call draws both
            edge_keys = keys[edge]
            edge_keys += y_away * np.uint64(_GOLDEN)
            _step(away, _uniforms(edge_keys, t, 1, edge.size, words), up, down)
            # and the walker at 0 moves to 1
            low[edge] = away > 0
            away -= 1
            np.negative(away, out=away, where=y_away)
            gap[edge] = away
            dead = edge[away == 0]
        else:
            _step(x[:n], _uniforms(keys, t, 1, n, words), up, down)
            _step(y[:n], _uniforms(keys, t, 2, n, words), up, down)
            dead = np.flatnonzero(x[:n] == y[:n])
        n = _drop(dead, n, arrays)
        counts[t] = n
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
    hitting_pmf_exact_curve returns at k.  Evaluated with log-factorials."""
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
    forward DP with an absorbing origin: the mass a step puts on state 0."""
    if n < 1:
        raise ValueError("start state must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    src, dst = np.zeros((2, n + k_max + 2))
    src[n] = 1.0
    pmf, stencil = np.zeros(k_max + 1), _stencil(chain)
    for k in range(1, k_max + 1):
        _advance(chain, stencil, src, dst, max(n - k + 1, 1), n + k - 1)
        pmf[k], dst[0] = dst[0], 0.0  # the mass absorbed at the origin
        src, dst = dst, src
    return pmf


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
    rev = reversibility(chain)
    src, dst = np.zeros((2, horizon + 3))
    src[1:horizon + 1] = rev.nu(np.arange(1, horizon + 1))
    bucket = rev.nu_tail(horizon)  # starts above the barrier: survives surely
    surv = np.zeros(horizon + 1)
    surv[0], stencil = 1.0 - rev.nu(0), _stencil(chain)
    for t in range(1, horizon + 1):
        _advance(chain, stencil, src, dst, 1, horizon)
        bucket += dst[horizon + 1]  # crossed the barrier: survives surely
        dst[0] = dst[horizon + 1] = 0.0  # and the origin absorbs
        src, dst = dst, src
        surv[t] = src[1:horizon + 1].sum() + bucket
    return surv

"""Reflecting nearest-neighbor walk on {0,1,2,...} with a downward drift.

From any state n >= 1 the walk steps up with probability p, holds with r and
steps down with q; the origin reflects (row 0 sends all mass to state 1).
Under q > p, r > 0 the chain is positive recurrent and aperiodic.  Everything
in this module is either a closed form or exact dynamic programming on the
finite support reachable in t steps, so there is no truncation error to
account for downstream.

One step of the walk, _advance, serves every DP: the TV sweep (a row per t,
its drift removed per block of times), the DP twin kernel_oracle of
mixing.kernel_matrix (the law of a point start) and the hitting curves.  Past
the reflecting origin a step is one 3-tap correlation, which adds each
state's p, r and q terms left to right; the tests pin that order bit for bit
against fancy-index steps.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainParams",
    "Reversibility",
    "reversibility",
    "tv_oracle",
    "tv_oracle_curve",
    "kernel_oracle",
    "drift_identity_residual",
]

STOCHASTIC_TOL = 1e-12
_ROWS, _CELLS = 64, 1 << 16  # tv_oracle_curve's most rows and cells per block of times


@dataclass(frozen=True)
class ChainParams:
    """Validated transition triple (p up, q down, r hold)."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        p, q, r = self.p, self.q, self.r
        # a subnormal p carries fewer than 53 bits, and 1/p overflows
        if not p >= np.finfo(float).tiny:
            raise ValueError(f"p must be positive and a normal float, got p={p!r}")
        if not r > 0.0:
            raise ValueError(f"r must be positive, got r={r}")
        if abs(p + q + r - 1.0) > STOCHASTIC_TOL:
            raise ValueError(
                f"row must be stochastic: p+q+r = {p + q + r!r} is not 1 "
                f"within {STOCHASTIC_TOL}"
            )
        if not q > p:
            raise ValueError(f"q must exceed p, got p={p}, q={q}")

    @property
    def sqrt_pq(self) -> float:
        return math.sqrt(self.p * self.q)

    @property
    def support(self) -> tuple:
        """Interval carrying the continuous part of the spectral measure."""
        return (self.r - 2.0 * self.sqrt_pq, self.r + 2.0 * self.sqrt_pq)


@dataclass(frozen=True)
class Reversibility:
    """Reversibility weights pi_0 = 1, pi_n = p^(n-1)/q^n and their total
    mass rho = (q-p+1)/(q-p).  The stationary law is nu = pi/rho."""

    chain: ChainParams
    rho: float

    def pi(self, n):
        n_arr = np.asarray(n, dtype=float)
        lp, lq = math.log(self.chain.p), math.log(self.chain.q)
        vals = np.exp((n_arr - 1.0) * lp - n_arr * lq)
        out = np.where(n_arr == 0, 1.0, vals)
        return float(out) if out.ndim == 0 else out

    def nu(self, n):
        return self.pi(n) / self.rho

    def pi_tail(self, n: int) -> float:
        """Closed form of sum_{m>n} pi_m (geometric tail), n >= 0."""
        c = self.chain
        return math.exp(n * (math.log(c.p) - math.log(c.q))) / (c.q - c.p)

    def nu_tail(self, n: int) -> float:
        return self.pi_tail(n) / self.rho

    def sample_stationary(self, u):
        """Inverse stationary CDF, vectorized over uniforms in [0,1)."""
        c = self.chain
        arg = (1.0 - np.asarray(u)) * self.rho * (c.q - c.p)
        with np.errstate(divide="ignore"):
            n = np.ceil(np.log(arg) / math.log(c.p / c.q))
        return np.where(arg >= 1.0, 0, n).astype(np.int64)


def reversibility(chain: ChainParams) -> Reversibility:
    return Reversibility(chain=chain, rho=(chain.q - chain.p + 1.0) / (chain.q - chain.p))


def _stencil(chain: ChainParams) -> np.ndarray:
    """_advance's stencil [p, r, q], built once per sweep."""
    return np.array([chain.p, chain.r, chain.q])


def _advance(chain: ChainParams, stencil: np.ndarray, src: np.ndarray, dst: np.ndarray,
             lo: int, hi: int):
    """One step of the walk from src, whose mass lies on states lo..hi (read
    up to hi + 2), written in place into dst on max(lo - 1, 0)..hi + 1.
    Where the window holds state 0, states 0 and 1 come first, the reflecting
    0 -> 1 move leading; the rest is one 3-tap correlation with stencil =
    _stencil(chain), which adds each state's p, r and q terms left to right.
    So every DP on it sums the same floats in the same order (only a zero may
    come out +0.0 where all its terms are -0.0)."""
    if lo <= 1:  # the window holds state 0
        s1 = src.item(1)  # Python floats: the same double sums, faster
        dst[0] = chain.q * s1
        dst[1] = src.item(0) + chain.r * s1 + chain.q * src.item(2)
    first = lo - 1 if lo > 1 else 2  # the first state of the p, r, q body
    if first < hi + 2:  # empty on the first step from the origin
        dst[first:hi + 2] = np.correlate(src[first - 1:hi + 3], stencil, "valid")


def tv_oracle(chain: ChainParams, t: int) -> float:
    """TV distance to stationarity at time t (started at the origin) by dynamic
    programming: the last value of tv_oracle_curve(chain, t)."""
    return tv_oracle_curve(chain, t)[-1]


def tv_oracle_curve(chain: ChainParams, t_max: int) -> list:
    """TV distance to stationarity at t = 0..t_max (started at the origin) by
    dynamic programming on d_t = mu_t - nu, in one sweep: O(t_max^2) in all.

    mu_t lives on 0..t.  Above it d_t = -nu, which the chain maps to itself
    (detailed balance), so a step rewrites only the window 0..t+2 of t's row
    in a block filled with -nu.  Per block, masked row reductions measure d's
    drift along nu, the one direction the chain never damps, and one product
    and subtraction remove it from every cell of a scratch block: s_t nu, s_t
    the mass of row t (window sum minus nu_tail(t+2)), 0 exactly; as nu P =
    nu, that is the per-step correction up to rounding.  Then
    TV_t = (1/2)(sum_{j<=t} |d_j| + nu_tail(t)), with no truncation error.
    The roundoff left lies off nu and decays with the chain: the values are
    accurate relative to TV itself, not to the unit mass (3e-15 where TV is
    7e-24 on the worked example), but not on every chain.  Where p is near 0
    the law sits at 0 and, deep in t, d's entries cancel below the sweep's
    accuracy: on (1.213739110769858e-255, 0.5, 0.5) the step ratios leave
    alpha = 0.5 from about t = 360, the values read 9.745696655292093e-114 at
    t = 378..384 and 0.0 from t = 385, the start of a block, where TV is at
    least (1/2) alpha^t.  A block spans at most _ROWS times and, past one,
    _CELLS cells; its times and width are fixed by t alone, so a sweep to t is
    a prefix of a longer one, bit for bit (rows past t_max are not made)."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    rev = reversibility(chain)
    nu = rev.nu(np.arange(t_max + _ROWS + 4))  # to the last block's widest row
    # nu_tail(0..t_max+2), its closed form in one array op
    log_ratio = math.log(chain.p) - math.log(chain.q)
    tails = np.exp(np.arange(t_max + 3) * log_ratio) / (chain.q - chain.p) / rev.rho
    d, start = 1.0 - nu[:1], 1  # d_0 on its window 0..0, -nu above
    stencil = _stencil(chain)
    values = [0.5 * (abs(d.item()) + tails.item(0))]
    while start <= t_max:  # the block of times start..end-1, its rows to t_max
        end = start + max(1, min(_ROWS, _CELLS // (start + _ROWS)))
        ts, width = np.arange(start, min(end, t_max + 1)), end + 3
        rows = np.negative(nu[:width], out=np.empty((ts.size + 1, width)))
        rows[0, :d.size] = d
        for k, t in enumerate(ts.tolist(), 1):
            _advance(chain, stencil, rows[k - 1], rows[k], 0, t + 1)
        block, window = rows[1:], np.arange(width) <= ts[:, None] + 2  # j <= t + 2
        drift = np.add.reduce(block, axis=1, where=window) - tails[ts + 2]
        fixed = np.multiply(drift[:, None], nu[:width])
        np.subtract(block, fixed, out=fixed)  # off the window only the carried row is read
        d, start = np.where(window[-1], fixed[-1], block[-1]), end
        # j <= t, where the window holds j + 2
        absum = np.add.reduce(np.abs(fixed, out=fixed)[:, :-2], axis=1, where=window[:, 2:])
        values += (0.5 * (absum + tails[ts])).tolist()
    return values


def _power(base: float, exponent: float) -> float:
    """base ** exponent for base > 0, inf past the double range."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _naturals(values, what: str = "t") -> list:
    """values, each a nonnegative integral number, as a nonempty list of ints;
    else ValueError."""
    values = list(values)
    if not values:
        raise ValueError(f"{what} must hold at least one value")
    try:
        ints = [int(v) for v in values]
    except (OverflowError, ValueError):  # inf, nan
        ints = []
    if ints != values or min(ints) < 0:
        raise ValueError(f"{what} must be nonnegative integers")
    return ints


def _kernel_args(ts, n_max, rows, cols) -> tuple:
    """kernel_oracle's and mixing.kernel_matrix's checked (ts, rows, cols): ts as
    ints, rows and cols as int64 arrays, each all of 0..n_max when None; else
    ValueError.  Indices are checked as Python ints, so none rounds or wraps,
    and every power t + i + j the kernel takes must fit in int64."""
    ts = _naturals(ts)
    n_max = _naturals([n_max], "n_max")[0]
    sets = []
    for s in (rows, cols):
        try:
            ints = range(n_max + 1) if s is None else _naturals(np.asarray(s, dtype=object).ravel())
        except ValueError:  # empty, negative or not integral
            ints = ()
        if not ints or max(ints) > n_max:
            raise ValueError(f"rows and cols must be nonempty index sets in 0..{n_max}")
        sets.append(ints)
    if max(ts) + max(sets[0]) + max(sets[1]) > np.iinfo(np.int64).max:
        raise ValueError("rows and cols must keep t + i + j below 2^63")
    return ts, *(np.arange(n_max + 1) if s is None else np.array(ints, dtype=np.int64)
                 for s, ints in zip((rows, cols), sets))


def kernel_oracle(chain: ChainParams, ts, n_max: int, rows=None, cols=None) -> np.ndarray:
    """p_t(i, j) by dynamic programming, the exact twin of mixing.kernel_matrix
    (same arguments, checks and shape), in one sweep per row i to max(ts) that
    reads row i's law at cols only at the requested times.  Row i is the law
    after t steps from the point mass at i."""
    ts, rows, cols = _kernel_args(ts, n_max, rows, cols)
    out = np.empty((len(ts), rows.size, cols.size))
    at = {}  # each time's places in ts
    for k, t in enumerate(ts):
        at.setdefault(t, []).append(k)
    horizon, size, stencil = max(ts), int(cols.max()) + 1, _stencil(chain)
    for a, i in enumerate(rows.tolist()):  # Python ints: no numpy scalar math per step
        src, dst = np.zeros((2, max(i + horizon + 2, size)))
        src[i] = 1.0
        for t in range(horizon + 1):
            if t:
                _advance(chain, stencil, src, dst, max(i - t + 1, 0), i + t - 1)
                src, dst = dst, src
            for k in at.get(t, ()):
                out[k, a] = src[cols]
    return out


def drift_identity_residual(chain: ChainParams, x: int) -> float:
    """Residual of the one-step drift identity for V(y) = (q/p)^(y/2),
    relative to V(x):

        (E[V(X_1) | X_0 = x] - (r + 2 sqrt(pq)) V(x)
                             - (sqrt(q/p) - (r + 2 sqrt(pq))) 1{x = 0}) / V(x)

    which vanishes identically.  V is divided out analytically, V(y +- 1) /
    V(y) = sqrt(q/p)^(+-1), so the return value is pure roundoff on every
    chain, p far below q included (where V leaves the double range).  For
    x >= 1 it is the same number at every x; at x = 0 it compares V(1), taken
    as a power, with sqrt(q/p)."""
    if x < 0:
        raise ValueError("x must be a state")
    p, q, r = chain.p, chain.q, chain.r
    lam = r + 2.0 * chain.sqrt_pq
    step = math.sqrt(q / p)  # V(y + 1) / V(y)
    expect = _power(q / p, 0.5) if x == 0 else q / step + r + p * step  # E[V(X_1) | x] / V(x)
    return expect - lam - (step - lam if x == 0 else 0.0)

"""Reflecting nearest-neighbor walk on {0,1,2,...} with a downward drift.

From any state n >= 1 the walk steps up with probability p, holds with r and
steps down with q; the origin reflects (row 0 sends all mass to state 1).
Under q > p, r > 0 the chain is positive recurrent and aperiodic.  Everything
in this module is either a closed form or exact dynamic programming on the
finite support reachable in t steps, so there is no truncation error to
account for downstream.

One step of the walk, _advance, serves every DP: evolve, the TV sweep, the DP
twin kernel_oracle of mixing.kernel_matrix and the coupling module's hitting curves.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainParams",
    "DistributionVector",
    "Reversibility",
    "reversibility",
    "evolve",
    "tv_oracle",
    "tv_oracle_curve",
    "kernel_oracle",
    "drift_identity_residual",
]

STOCHASTIC_TOL = 1e-12


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
class DistributionVector:
    """Probability mass on a contiguous block of states; nothing lives outside
    it."""

    offset: int
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=float))
        if self.offset < 0:
            raise ValueError("offset must be a state, got %d" % self.offset)
        if np.any(self.mass < 0.0):
            raise ValueError("mass entries must be nonnegative")

    @classmethod
    def point(cls, state: int) -> "DistributionVector":
        return cls(offset=state, mass=np.ones(1))

    def total(self) -> float:
        return float(self.mass.sum())

    def prob(self, n: int) -> float:
        """Carried mass at state n (0 outside the carried block)."""
        k = n - self.offset
        if 0 <= k < self.mass.size:
            return float(self.mass[k])
        return 0.0


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


def _advance(chain: ChainParams, src: np.ndarray, dst: np.ndarray, lo: int, hi: int):
    """One step of the walk from src, whose mass lies on states lo..hi (read
    up to hi + 2), written in place into dst on max(lo - 1, 0)..hi + 1.  Each
    state adds its p, r and q terms in that order, the reflecting 0 -> 1 move
    first, so every DP on it sums the same floats in the same order."""
    p, q, r = chain.p, chain.q, chain.r
    if lo <= 1:  # the window holds state 0
        s1 = src.item(1)  # Python floats: the same double sums, faster
        dst[0] = q * s1
        dst[1] = src.item(0) + r * s1 + q * src.item(2)
    first = lo - 1 if lo > 1 else 2  # the first state of the p, r, q body
    body = dst[first:hi + 2]  # a view: the updates run in place
    np.multiply(src[first - 1:hi + 1], p, out=body)
    body += r * src[first:hi + 2]
    body += q * src[first + 1:hi + 3]


def evolve(chain: ChainParams, start: DistributionVector, t: int) -> DistributionVector:
    """Exact t-step evolution of a finitely supported distribution.

    Support grows by at most one state per side per step, so from a point
    mass the cost is O(t^2) and the result is exact.  The two buffers start at
    the lowest state reached; if that is not 0 they hold no mass at index 0.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    lo, hi = start.offset, start.offset + start.mass.size - 1
    base = max(lo - t, 0)
    src, dst = np.zeros((2, hi + t + 2 - base))
    src[lo - base:hi + 1 - base] = start.mass
    for _ in range(t):
        _advance(chain, src, dst, lo - base, hi - base)
        lo, hi, src, dst = max(lo - 1, 0), hi + 1, dst, src
    return DistributionVector(offset=lo, mass=src[lo - base:hi + 1 - base].copy())


def tv_oracle(chain: ChainParams, t: int) -> float:
    """TV distance to stationarity at time t (started at the origin) by dynamic
    programming: the last value of tv_oracle_curve(chain, t)."""
    return tv_oracle_curve(chain, t)[-1]


def tv_oracle_curve(chain: ChainParams, t_max: int) -> list:
    """TV distance to stationarity at t = 0..t_max (started at the origin) by
    dynamic programming on d_t = mu_t - nu, in one sweep: O(t_max^2) in all.

    mu_t lives on 0..t.  Above it d_t = -nu, which the chain maps to itself
    (detailed balance), so one step rewrites only the window 0..t+2 of a
    buffer filled with -nu once.  Each step then removes d's drift along nu,
    the one direction the chain never damps: s nu on the window, with s the
    total mass of d (window sum minus nu_tail(t+2)), which is 0 exactly.
    TV_t = (1/2)(sum_{j<=t} |d_j| + nu_tail(t)), with the stationary mass
    above t in closed form, so there is no truncation error.  The roundoff
    left lies off nu and decays with the chain: the values are accurate
    relative to TV itself, not to the unit mass (3e-15 where TV is 7e-24)."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    rev = reversibility(chain)
    nu = rev.nu(np.arange(t_max + 4))
    tails = [rev.nu_tail(n) for n in range(t_max + 3)]
    d, new = -nu, -nu  # two buffers, swapped after each step
    d[0] += 1.0
    values = [0.5 * (abs(float(d[0])) + tails[0])]
    for t in range(1, t_max + 1):
        _advance(chain, d, new, 0, t + 1)
        window = new[:t + 3]  # a view: the update runs in place
        window -= (window.sum() - tails[t + 2]) * nu[:t + 3]
        d, new = new, d
        values.append(0.5 * (float(np.abs(d[:t + 1]).sum()) + tails[t]))
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
    (same arguments, checks and shape), in one sweep per row i to max(ts)."""
    ts, rows, cols = _kernel_args(ts, n_max, rows, cols)
    out = np.empty((len(ts), rows.size, cols.size))
    laws = np.empty((max(ts) + 1, cols.size))  # row i's law at cols after t steps
    for a, i in enumerate(rows):
        src, dst = np.zeros((2, max(i + max(ts) + 2, cols.max() + 1)))
        src[i] = 1.0
        laws[0] = src[cols]
        for t in range(1, max(ts) + 1):
            _advance(chain, src, dst, max(i - t + 1, 0), i + t - 1)
            src, dst = dst, src
            laws[t] = src[cols]
        out[:, a] = laws[ts]
    return out


def drift_identity_residual(chain: ChainParams, x: int) -> float:
    """Residual of the one-step drift identity for V(y) = (q/p)^(y/2):

        E[V(X_1) | X_0 = x] - (r + 2 sqrt(pq)) V(x)
                            - (sqrt(q/p) - (r + 2 sqrt(pq))) 1{x = 0}

    which vanishes identically; the return value is pure roundoff, or inf or
    NaN where V leaves the double range (p far below q)."""
    if x < 0:
        raise ValueError("x must be a state")
    p, q, r = chain.p, chain.q, chain.r
    lam = r + 2.0 * chain.sqrt_pq

    def V(y):
        return _power(q / p, y / 2.0)

    if x == 0:
        return V(1) - lam * V(0) - (math.sqrt(q / p) - lam)
    expect = q * V(x - 1) + r * V(x) + p * V(x + 1)
    return expect - lam * V(x)

"""Reflecting nearest-neighbor walk on {0,1,2,...} with a downward drift.

From any state n >= 1 the walk steps up with probability p, holds with r and
steps down with q; the origin reflects (row 0 sends all mass to state 1).
Under q > p, r > 0 the chain is positive recurrent and aperiodic.  Everything
in this module is either a closed form or exact dynamic programming on the
finite support reachable in t steps, so there is no truncation error to
account for downstream.
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

    @property
    def states(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.mass.size)

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


def evolve(chain: ChainParams, start: DistributionVector, t: int) -> DistributionVector:
    """Exact t-step evolution of a finitely supported distribution.

    Support grows by at most one state per side per step, so from a point
    mass the cost is O(t^2) and the result is exact.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    p, q, r = chain.p, chain.q, chain.r
    lo = start.offset
    mass = start.mass.copy()
    for _ in range(t):
        new_lo = max(lo - 1, 0)
        new = np.zeros(mass.size + lo - new_lo + 1)
        body = mass
        if lo == 0:
            new[1] += mass[0]  # reflecting row: 0 -> 1 surely
            body = mass[1:]
        # body's first state sits at index 1 of new either way
        m = body.size
        new[2:m + 2] += p * body
        new[1:m + 1] += r * body
        new[:m] += q * body
        lo, mass = new_lo, new
    return DistributionVector(offset=lo, mass=mass)


def tv_oracle(chain: ChainParams, t: int) -> float:
    """Total variation distance between the law at time t (started at the
    origin) and the stationary law, by dynamic programming: the last value
    of tv_oracle_curve(chain, t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
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
    relative to TV itself, not to the unit mass (on the worked example,
    within 3e-15 relative of the series at t = 500, where TV is 7e-24)."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    p, q, r = chain.p, chain.q, chain.r
    rev = reversibility(chain)
    nu = np.atleast_1d(rev.nu(np.arange(t_max + 4)))
    tails = [rev.nu_tail(n) for n in range(t_max + 3)]
    d, new = -nu, -nu  # two buffers, swapped after each step
    d[0] += 1.0
    values = [0.5 * (abs(d[0]) + tails[0])]
    for t in range(1, t_max + 1):
        w = t + 3  # the window 0..t+2
        new[0] = q * d[1]
        new[1] = d[0] + r * d[1] + q * d[2]
        body, window = new[2:w], new[:w]  # views: the updates run in place
        np.multiply(d[1:w - 1], p, out=body)
        body += r * d[2:w]
        body += q * d[3:w + 1]
        window -= (window.sum() - tails[t + 2]) * nu[:w]
        d, new = new, d
        values.append(0.5 * (float(np.abs(d[:t + 1]).sum()) + tails[t]))
    return values


def drift_identity_residual(chain: ChainParams, x: int) -> float:
    """Residual of the one-step drift identity for V(y) = (q/p)^(y/2):

        E[V(X_1) | X_0 = x] - (r + 2 sqrt(pq)) V(x)
                            - (sqrt(q/p) - (r + 2 sqrt(pq))) 1{x = 0}

    which vanishes identically; the return value is pure roundoff."""
    if x < 0:
        raise ValueError("x must be a state")
    p, q, r = chain.p, chain.q, chain.r
    lam = r + 2.0 * chain.sqrt_pq

    def V(y):
        return (q / p) ** (y / 2.0)

    if x == 0:
        expect = V(1)
        return expect - lam * V(0) - (math.sqrt(q / p) - lam)
    expect = q * V(x - 1) + r * V(x) + p * V(x + 1)
    return expect - lam * V(x)

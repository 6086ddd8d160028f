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
        hi = lo + mass.size - 1
        new_lo = max(lo - 1, 0)
        new = np.zeros(hi + 2 - new_lo)
        if lo == 0:
            new[1 - new_lo] += mass[0]  # reflecting row: 0 -> 1 surely
            body, s0 = mass[1:], 1
        else:
            body, s0 = mass, lo
        if body.size:
            j = np.arange(s0, hi + 1) - new_lo
            new[j + 1] += p * body
            new[j] += r * body
            new[j - 1] += q * body
        lo, mass = new_lo, new
    return DistributionVector(offset=lo, mass=mass)


def _tv_to_stationary(rev: Reversibility, mu: DistributionVector) -> float:
    """TV distance between an exactly carried law and the stationary law; the
    stationary mass above the carried block enters through its closed tail."""
    states = mu.states
    diff = float(np.abs(mu.mass - rev.nu(states)).sum())
    return 0.5 * (diff + rev.nu_tail(int(states[-1])))


def tv_oracle(chain: ChainParams, t: int) -> float:
    """Total variation distance between the law at time t (started at the
    origin) and the stationary law, by dynamic programming.

    The carried support after t steps is {0,...,t} and the stationary mass
    above it enters through the closed geometric tail, so there is no
    truncation error.  There is float64 roundoff: a few ulp of the unit mass
    per step, which levels off near 6e-15 absolute.  Once the true distance
    falls below that floor (t of about 300 on the worked example) the value
    is roundoff, overstating the distance by up to 1e9 times at t = 500."""
    return _tv_to_stationary(reversibility(chain), evolve(chain, DistributionVector.point(0), t))


def tv_oracle_curve(chain: ChainParams, t_max: int) -> list:
    """tv_oracle(chain, t) for t = 0..t_max from one forward sweep of
    one-step evolves: O(t_max^2) in all instead of O(t_max^3), and bit for
    bit the same values, because evolve steps one at a time either way."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    rev = reversibility(chain)
    mu = DistributionVector.point(0)
    values = [_tv_to_stationary(rev, mu)]
    for _ in range(t_max):
        mu = evolve(chain, mu, 1)
        values.append(_tv_to_stationary(rev, mu))
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

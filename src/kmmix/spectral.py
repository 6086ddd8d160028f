"""Spectral measure of the walk: two atoms plus an absolutely continuous
density, with quadrature, the resolvent corner entry, and residue checks.

The measure psi on [-1, 1] consists of

  * an atom at 1 of weight w1 = (q-p)/(1+q-p) = 1/rho,
  * an atom at -q/(q+r) of weight w2 = ((1+q-p)(q+r)-q)/((1+q-p)(q+r)),
  * the density phi(x) = sqrt(4pq - (x-r)^2) / (2 pi ((r+q)x + q)(1-x))
    on (r - 2 sqrt(pq), r + 2 sqrt(pq)), of total mass p/(q+r).

Quadrature against phi substitutes x = r + 2 sqrt(pq) cos(theta), under which
phi(x) dx becomes a smooth periodic integrand in theta (the square-root
endpoint vanishing is absorbed), so the uniform trapezoid rule converges
spectrally.  Its nodes sit at theta_k = k pi / K and its weights carry the
panel width pi / K, so an integral against phi is one weighted sum.  Nodes
and reductions are carried in extended precision where the platform provides
it: high-degree polynomial integrands cancel by many orders of magnitude and
double-precision roundoff would otherwise set a noise floor near 1e-8.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainParams

__all__ = [
    "SpectralMeasure",
    "QuadratureConfig",
    "QuadratureError",
    "RegimeError",
    "build_measure",
    "negative_atom",
    "theta_nodes",
    "refine",
    "integrate_psi",
    "resolvent_a0",
    "residue_check",
]

_LD = np.longdouble
_PI = np.arccos(_LD(-1))  # pi in extended precision; np.pi is a double
# spectral convergence puts the truncation error below roundoff almost at once;
# estimates of violently cancelling integrands then wander at this floor per
# unit of integrand L1 size, which a stopping rule must accept
EPS_FLOOR = 32.0 * float(np.finfo(_LD).eps)


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the last two estimates."""

    def __init__(self, message, estimates):
        super().__init__(f"{message}: last two estimates {estimates[0]!r}, {estimates[1]!r}")
        self.estimates = estimates


class RegimeError(RuntimeError):
    """The chain's spectral measure is outside the regime the quadrature is
    validated for: in floating point a density pole touches the AC interval
    or the negative atom leaves (-1, 0)."""


@dataclass(frozen=True)
class QuadratureConfig:
    node_count: int = 512
    max_doublings: int = 3
    tol: float = 1e-10

    def __post_init__(self):
        if self.node_count < 16:
            raise ValueError("node_count must be at least 16")
        if self.max_doublings < 0 or not self.tol > 0.0:
            raise ValueError("max_doublings must be >= 0 and tol positive")


@dataclass(frozen=True)
class SpectralMeasure:
    """The measure psi: atom locations/weights and the AC interval (the density
    on it is carried by theta_nodes' weights)."""

    chain: ChainParams
    atom1: tuple  # (1.0, w1)
    atom2: tuple  # (-q/(q+r), w2)
    ac_interval: tuple


def negative_atom(chain: ChainParams) -> tuple:
    """Location -q/(q+r) and weight w2 of the atom of psi below the AC part."""
    p, q, r = chain.p, chain.q, chain.r
    return -q / (q + r), ((1.0 + q - p) * (q + r) - q) / ((1.0 + q - p) * (q + r))


def build_measure(chain: ChainParams) -> SpectralMeasure:
    """Assemble psi and check that the density's two apparent poles (at 1 and
    at the negative atom) sit strictly outside the closed AC interval.

    In exact arithmetic they always do; in floating point the AC edge
    r + 2 sqrt(pq) rounds to 1 when q - p is below about 1e-8, and then
    RegimeError is raised."""
    p, q, r = chain.p, chain.q, chain.r
    w1 = (q - p) / (1.0 + q - p)
    loc2, w2 = negative_atom(chain)
    lo, hi = chain.support
    if not (loc2 < lo and hi < 1.0):
        raise RegimeError(
            "spectral measure is outside its validated regime: a density pole "
            f"touches the AC interval ({lo}, {hi}) for p={p}, q={q}, r={r}"
        )
    if not (-1.0 < loc2 < 0.0):
        raise RegimeError(f"negative atom location {loc2} escaped (-1, 0)")
    return SpectralMeasure(chain=chain, atom1=(1.0, w1), atom2=(loc2, w2), ac_interval=(lo, hi))


def _theta_grid(n_nodes: int):
    """The interior angles theta_k = k pi / n_nodes, k = 1..n_nodes-1, of the
    theta trapezoid rule, in extended precision."""
    return _PI * np.arange(1, n_nodes, dtype=_LD) / n_nodes


@lru_cache(maxsize=32)
def theta_nodes(chain: ChainParams, n_nodes: int) -> tuple:
    """Interior nodes x and weights w of the theta-substituted trapezoid rule
    with n_nodes panels, in extended precision and read-only.

    x = r + 2 sqrt(pq) cos(theta) at theta = k pi / n_nodes, k = 1..n_nodes-1,
    and w = 2pq sin^2(theta) / (n_nodes ((r+q)x+q)(1-x)) is the density's
    Jacobian-weighted value there times the panel width pi / n_nodes: the
    integral of f against phi is sum w f(x).  The transformed integrand
    vanishes at theta = 0, pi, so the interior sum is the full trapezoid value."""
    p, q, r = _LD(chain.p), _LD(chain.q), _LD(chain.r)
    theta = _theta_grid(n_nodes)
    x = r + 2.0 * np.sqrt(p * q) * np.cos(theta)
    w = 2.0 * p * q * np.sin(theta) ** 2 / (n_nodes * ((r + q) * x + q) * (1.0 - x))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _ac_fixed(measure: SpectralMeasure, f, n_nodes: int):
    """One pass of the theta-substituted trapezoid rule with n_nodes panels.

    Returns the integral and the L1 size of the integrand, which sets the
    roundoff floor of the estimate."""
    x, w = theta_nodes(measure.chain, n_nodes)
    vals = np.asarray(f(x))
    total = np.sum(vals * w)
    l1 = float(np.sum(np.abs(vals) * w))
    if np.iscomplexobj(vals):
        return complex(total), l1
    return float(total), l1


def refine(node_pass, keys, cfg: QuadratureConfig, name: str) -> dict:
    """The package's one node-doubling loop.  node_pass(n_nodes, keys) returns
    {key: (estimate, l1)}, an estimate being a scalar or an array and l1 its
    integrand's L1 size (0 for no roundoff floor).  From cfg.node_count the
    node count doubles up to cfg.max_doublings times; a key leaves once two
    successive estimates agree entrywise within cfg.tol relative or
    EPS_FLOOR * l1.  QuadratureError carries the last two estimates of the
    worst entry of the first key left over."""
    n = cfg.node_count
    cur = node_pass(n, keys)
    if cfg.max_doublings == 0:
        return {k: est for k, (est, _) in cur.items()}
    done, pending = {}, list(keys)
    for _ in range(cfg.max_doublings):
        prev, n = cur, 2 * n
        cur = node_pass(n, pending)
        for k in pending:
            (old, _), (new, l1) = prev[k], cur[k]
            # gap <= max(tol * max(1, |new|), EPS_FLOOR * l1): a bool for
            # scalar estimates, which skip numpy, an array otherwise
            gap = abs(new - old)
            settled = (gap <= cfg.tol) | (gap <= cfg.tol * abs(new)) | (gap <= EPS_FLOOR * l1)
            if settled is True or np.all(settled):
                done[k] = new
        pending = [k for k in pending if k not in done]
        if not pending:
            return done
    k = pending[0]
    (old, _), (new, l1) = prev[k], cur[k]
    old, new = np.asarray(old), np.asarray(new)
    at = np.argmax(abs(new - old) / np.maximum(cfg.tol * np.maximum(1.0, abs(new)),
                                               EPS_FLOOR * l1))
    where = "" if k is None else f" at t={k}"
    raise QuadratureError(f"{name} quadrature did not converge{where} within "
                          f"{cfg.max_doublings} doublings (final node count {n})",
                          (old.flat[at].item(), new.flat[at].item()))


def integrate_psi(measure: SpectralMeasure, f, include_atoms=(True, True), cfg=None):
    """Integral of f against psi: selected atoms plus the AC part.

    f must accept an ndarray of points in [-1, 1] and evaluate elementwise;
    complex-valued integrands are supported.  Raises QuadratureError when the
    doubling refinement fails to meet cfg.tol."""
    total = refine(lambda n, _: {None: _ac_fixed(measure, f, n)}, [None],
                   cfg or QuadratureConfig(), "density")[None]
    for flag, (loc, weight) in zip(include_atoms, (measure.atom1, measure.atom2)):
        if flag:
            total += weight * np.asarray(f(np.array([loc]))).reshape(-1)[0]
    return total


def resolvent_a0(chain: ChainParams, s: complex) -> complex:
    """Upper-left entry of (P - sI)^(-1), i.e. the Stieltjes transform of psi.

    Off the real axis exactly one characteristic root rho(s) satisfies
    |rho| < sqrt(q/p) (their product is q/p), and a_0(s) = 1/(rho - s) for
    that root."""
    s = complex(s)
    if s.imag == 0.0:
        raise ValueError("resolvent_a0 requires Im(s) != 0")
    p, q, r = chain.p, chain.q, chain.r
    sd = np.sqrt(complex((s - r) ** 2 - 4.0 * p * q))
    rho1 = ((s - r) + sd) / (2.0 * p)
    rho2 = ((s - r) - sd) / (2.0 * p)
    small = rho1 if abs(rho1) < abs(rho2) else rho2
    return 1.0 / (small - s)


def residue_check(chain: ChainParams, radius_scale: float = 0.25, n_nodes: int = 512):
    """Pole strengths of g(z) = sqrt((z-r)^2 - 4pq) / (((r+q)z + q)(1-z)) at
    z = 1 and z = -q/(q+r), by small-circle contour quadrature in the
    principal branch.

    Each strength is measured against the displayed pole factor, 1/(1-z) at
    z = 1 (hence the sign flip on the raw residue) and 1/(z + q/(q+r)) at the
    negative pole; with that convention the pair equals the atom weights
    (w1, w2) of the spectral measure."""
    p, q, r = chain.p, chain.q, chain.r
    lo, hi = chain.support
    loc2 = negative_atom(chain)[0]

    def g(z):
        return np.sqrt((z - r) ** 2 - 4.0 * p * q) / (((r + q) * z + q) * (1.0 - z))

    def raw_residue(center, radius):
        z = center + radius * np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
        return complex(np.mean(g(z) * (z - center)))

    # keep each circle clear of the branch cut on [lo, hi] and of Re z = r,
    # where the principal square root of (z-r)^2 - 4pq changes sheets
    rad1 = radius_scale * min(1.0 - hi, 1.0 - r)
    rad2 = radius_scale * min(lo - loc2, r - loc2, 1.0 + loc2)
    raw1 = raw_residue(1.0, rad1)
    raw2 = raw_residue(loc2, rad2)
    return (-raw1.real, raw2.real)

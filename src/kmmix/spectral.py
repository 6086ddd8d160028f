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
panel width pi / K, so an integral against phi is one weighted sum.  The
integrand is analytic in the strip |Im theta| < a left by the poles at 1 and
-q/(q+r), so the error falls like e^(-2aK) with a closed-form constant; less
its closed-form errors on their partial fractions (pole_errors) times f(1)
and f(-q/(q+r)), the rule is exact on polynomials f of degree <= 2K - 3.
node_count plans the lesser count within NODE_CAP, and the correction it takes.
It picks no precision: nodes, weights and the correction are computed in
extended precision (np.longdouble) where the platform provides it, and
mixing's TV series and kernel, which know their roundoff floor, run on the
nodes rounded once to float64 where that floor allows.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

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
    "node_count",
    "pole_errors",
    "integrate_psi",
    "resolvent_a0",
    "residue_check",
]

_LD = np.longdouble
_PI = np.arccos(_LD(-1))  # pi in extended precision; np.pi is a double
NODE_CAP = 1 << 16  # the most panels one trapezoid pass may take
_STRIP_STEPS = 64  # strip half-widths y a bound is minimised over
_RESIDUE_SCALE = 0.25  # residue_check's circle radius per its distance to the nearest cut
_RESIDUE_NODES = 512  # residue_check's points per circle


class QuadratureError(RuntimeError):
    """The node count that certifies tol passes NODE_CAP or a node_count
    override; carries both counts."""

    def __init__(self, name, needed, allowed, what):
        super().__init__(f"{name} quadrature needs {needed} nodes to certify its "
                         f"tolerance, past {what} of {allowed}")
        self.needed, self.allowed = needed, allowed


class RegimeError(RuntimeError):
    """The chain's spectral measure is outside the regime the quadrature is
    validated for: in floating point a density pole touches the AC interval
    or the negative atom leaves (-1, 0)."""


@dataclass(frozen=True)
class QuadratureConfig:
    """tol bounds each quadrature's error, certified before the pass by
    node_count.  node_count None takes the least count that meets tol; an
    int overrides it, QuadratureError where its bound misses tol."""

    node_count: Optional[int] = None
    tol: float = 1e-10

    def __post_init__(self):
        if not (self.node_count is None or self.node_count >= 16) or not self.tol > 0.0:
            raise ValueError("node_count must be None or at least 16, and tol positive")


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


def _checked_support(chain: ChainParams) -> tuple:
    """The AC interval, checked to lie strictly between the density's two
    apparent poles (the negative atom and 1).  In exact arithmetic it always
    does; in floating point the AC edge r + 2 sqrt(pq) rounds to 1 when q - p
    is below about 1e-8, and then RegimeError is raised, as it is where
    sqrt(pq) rounds to p or below (q - p within about an ulp of p, or pq
    underflowing), which the envelope divides by and the nodes scale by."""
    lo, hi = chain.support
    if not (negative_atom(chain)[0] < lo and hi < 1.0 and chain.p < chain.sqrt_pq):
        raise RegimeError(
            "spectral measure is outside its validated regime: a density pole touches "
            f"the AC interval ({lo}, {hi}) or sqrt(pq) is not above p for p={chain.p}, "
            f"q={chain.q}, r={chain.r}")
    return lo, hi


def build_measure(chain: ChainParams) -> SpectralMeasure:
    """Assemble psi, its AC interval checked by _checked_support."""
    p, q = chain.p, chain.q
    w1 = (q - p) / (1.0 + q - p)
    loc2, w2 = negative_atom(chain)
    lo, hi = _checked_support(chain)
    if not (-1.0 < loc2 < 0.0):
        raise RegimeError(f"negative atom location {loc2} escaped (-1, 0)")
    return SpectralMeasure(chain=chain, atom1=(1.0, w1), atom2=(loc2, w2), ac_interval=(lo, hi))


def _theta_grid(n_nodes: int):
    """The interior angles theta_k = k pi / n_nodes, k = 1..n_nodes-1, of the
    theta trapezoid rule, in extended precision."""
    return _PI * np.arange(1, n_nodes, dtype=_LD) / n_nodes


@lru_cache(maxsize=64)
def theta_nodes(chain: ChainParams, n_nodes: int, dtype=_LD) -> tuple:
    """Interior nodes x, weights w, 2 cos(theta) and sin(theta) of the theta
    trapezoid rule with n_nodes panels, read-only, in dtype: computed in
    extended precision, and each rounded once to float64 for a float64 pass.

    x = r + 2 sqrt(pq) cos(theta) at theta = k pi / n_nodes, k = 1..n_nodes-1,
    and w = 2pq sin^2(theta) / (n_nodes ((r+q)x+q)(1-x)) is the density's
    Jacobian-weighted value there times the panel width pi / n_nodes: the
    integral of f against phi is sum w f(x).  1 - x is taken as
    (p + q) - 2 sqrt(pq) cos(theta), which keeps its digits where the AC
    interval lies near 1 (subtracting x would not).  The transformed integrand
    vanishes at theta = 0, pi, so the interior sum is the full trapezoid value."""
    if dtype is not _LD:
        return tuple(_read_only(a.astype(dtype)) for a in theta_nodes(chain, n_nodes, _LD))
    p, q, r = _LD(chain.p), _LD(chain.q), _LD(chain.r)
    theta = _theta_grid(n_nodes)
    two_cos = 2.0 * np.cos(theta)
    sines = np.sin(theta)
    sqrt_pq = np.sqrt(p * q)
    x = r + sqrt_pq * two_cos  # = r + 2 sqrt(pq) cos(theta), bit for bit
    w = 2.0 * p * q * sines ** 2 / (n_nodes * ((r + q) * x + q) * ((p + q) - sqrt_pq * two_cos))
    return tuple(_read_only(a) for a in (x, w, two_cos, sines))


def _read_only(a):
    a.flags.writeable = False
    return a


def node_count(chain: ChainParams, cfg: QuadratureConfig, name: str, log_sup=None, t: int = 0,
               poles=(), degree=None) -> tuple:
    """(K, bound, E1, E2): the panels of the one trapezoid pass integrating x^t f
    against phi within cfg.tol, its truncation bound, and its pole correction
    in extended precision (the value is the pass's sum less E1 f(1) + E2
    f(-q/(q+r))), for |f| <= exp(log_sup(y)) / prod |x - s| (s in poles) on
    |Im theta| <= y, x^t f of degree <= degree if given.

    Two counts are certified, each rounded up to 16 times a 5-smooth number (a
    fast FFT length); the lesser is taken, a tie going to the strip count.
    The strip count: the theta integrand is even, 2 pi-periodic and analytic
    in |Im theta| < a, a set by the nearest pole (1, -q/(q+r) or one of poles),
    so the K-panel rule errs by at most exp(log_m(y)) / (e^(2yK) - 1) for
    y < a (Trefethen & Weideman 2014, Thm 3.2, halved), log_m bounding the
    integrand through |sin theta| <= cosh y (a log_sup that takes a sin theta
    into its own bound divides that cosh y out: orthopoly.q_log_sup) and
    |Re x - r|, |Im x| <= 2 sqrt(pq) (cosh y, sinh y); K is the least count
    meeting tol at some y of a grid in (0, a), and E1 = E2 = 0.0.  The
    exact-degree count ceil((degree + 3) / 2): less (E1, E2) =
    pole_errors(chain, K) the rule is exact, and bound is 0.0.
    cfg.node_count overrides both, corrected where it reaches the exact-degree
    count.  Roundoff is not in bound: the pass that knows its integrand's L1
    size states its floor (mixing.tv_quadrature, mixing.kernel_matrix).

    The plan is cached per (chain, cfg, log_sup, t, poles, degree), so
    log_sup is hashable and describes the integrand by value where it can
    (orthopoly.q_log_sup's degrees, the TV series' cutoff): equal descriptions
    share the plan.  QuadratureError, raised under the caller's name, where
    both counts pass NODE_CAP or the override meets neither."""
    need, n_nodes, bound, e1, e2 = _plan(chain, cfg, log_sup, int(t),
                                         tuple(complex(z) for z in poles), degree)
    if n_nodes is None:
        allowed, what = ((NODE_CAP, "the cap") if cfg.node_count is None
                         else (cfg.node_count, "the node_count override"))
        needed = math.ceil(need) if need < math.inf else need  # inf or nan as they are
        raise QuadratureError(name, needed, allowed, what)
    return n_nodes, bound, e1, e2


def _fast_length(need: float):
    """16 times the least 5-smooth m with 16 m >= need; inf past NODE_CAP."""
    if not need <= NODE_CAP:
        return math.inf
    m = max(1, math.ceil(need / 16))
    while 30 ** 12 % m:  # m <= 2^12 is 5-smooth iff it divides 30^12
        m += 1
    return 16 * m


@lru_cache(maxsize=256)
def _plan(chain: ChainParams, cfg: QuadratureConfig, log_sup, t: int, poles: tuple,
          degree=None) -> tuple:
    """node_count's (need, K, bound, E1, E2), need the real-valued count asked
    for; K and bound are None where both counts pass NODE_CAP or the override."""
    p, q, r = chain.p, chain.q, chain.r
    s2 = 2.0 * chain.sqrt_pq
    points = [complex(z) for z in (1.0, negative_atom(chain)[0], *poles)]
    a = min(max(math.acosh(max(1.0, abs(z.real - r) / s2)), math.asinh(abs(z.imag) / s2))
            for z in points)
    y = a * np.arange(1, _STRIP_STEPS + 1) / (_STRIP_STEPS + 1)
    reach, height = s2 * np.cosh(y), s2 * np.sinh(y)
    log_m = math.log(4.0 * p * q / (q + r)) + 2.0 * np.log(np.cosh(y)) + t * np.log(r + reach)
    with np.errstate(divide="ignore"):  # a gap rounded to 0 bounds nothing: log_m = inf
        sup = 0.0 if log_sup is None else log_sup(y)
        log_m = log_m + sup
        for z in points:
            log_m -= np.log(np.hypot(np.maximum(abs(z.real - r) - reach, 0.0),
                                     np.maximum(abs(z.imag) - height, 0.0)))
        need = float(np.min(np.logaddexp(0.0, log_m - math.log(cfg.tol)) / (2.0 * y)))
    need_exact = math.inf if degree is None else math.ceil((degree + 3) / 2)
    if cfg.node_count is not None:
        n_nodes, exact = cfg.node_count, cfg.node_count >= need_exact
        certified = exact or n_nodes >= need
    else:
        counts = _fast_length(need_exact), _fast_length(need)
        n_nodes, exact = min(counts), counts[0] < counts[1]
        certified = n_nodes <= NODE_CAP
    if not certified:
        return min(need_exact, need), None, None, 0.0, 0.0
    if exact:
        return need_exact, n_nodes, 0.0, *pole_errors(chain, n_nodes)
    u = 2.0 * y * n_nodes  # log(e^u - 1) = u + log(1 - e^-u)
    return need, n_nodes, float(np.exp(np.min(log_m - u - np.log(-np.expm1(-u))))), 0.0, 0.0


def pole_errors(chain: ChainParams, n_nodes: int) -> tuple:
    """(E1, E2), in extended precision: the n_nodes-panel rule's errors (sum
    less integral) on the pole parts of 1/(((r+q)x+q)(1-x)) = [1/(1-x) +
    (r+q)/((r+q)x+q)] / (r+2q), each (2pq/(r+2q)) sin^2(theta) / (a -+ b
    cos(theta)), b = 2 sqrt(pq).  Its cosine coefficients -(2pq/(r+2q))
    (1/rho - rho)^2 rho^m / (2s) (m >= 2; s = sqrt(a^2 - b^2), rho = (a - s)/b)
    at m = 2K, 4K, ... alias onto the mean: E = -(s/(r+2q)) / (rho^(-2K) - 1).
    At 1, a = p + q (theta_nodes' 1 - x), s = q - p and rho = sqrt(p/q).  At
    -q/(q+r), a = r + q/(q+r) of the chain's own r, a - b = ((q+r - sqrt(pq))^2
    + q delta)/(q+r) with delta = 1 - p - q - r by math.fsum, s = sqrt((a - b)
    (a + b)) and rho = b/(a + s): neither cancels in a - b."""
    p, q, r = _LD(chain.p), _LD(chain.q), _LD(chain.r)
    a, b = r + q / (q + r), 2 * np.sqrt(p * q)
    delta = _LD(math.fsum((1.0, -chain.p, -chain.q, -chain.r)))  # exactly rounded
    s = np.sqrt(((q + r - b / 2) ** 2 + q * delta) / (q + r) * (a + b))
    parts = ((q - p, np.sqrt(p / q)), (s, b / (a + s)))
    with np.errstate(over="ignore"):  # rho^(-2K) past the range: E = -0
        return tuple(-s / ((r + 2 * q) * np.expm1(-2 * n_nodes * np.log(rho)))
                     for s, rho in parts)


def integrate_psi(measure: SpectralMeasure, f, atoms: bool = True, cfg=None,
                  log_sup=None, poles=()):
    """Integral of f against psi: the AC part in one pass of node_count panels,
    plus the two atoms unless atoms is False.

    f must accept an ndarray of points in [-1, 1] and evaluate elementwise;
    complex-valued integrands are supported.  The pass is certified for f
    bounded on the strip as node_count states: log_sup None covers powers of
    x (|x| < 1 there), poles=[s] 1/(x - s), orthopoly.q_log_sup Q_n products.
    It takes the strip count and no pole correction, so that checks of the
    AC mass and of psi's normalization test the nodes and weights alone."""
    n_nodes = node_count(measure.chain, cfg or QuadratureConfig(), "density", log_sup,
                         poles=poles)[0]
    x, w = theta_nodes(measure.chain, n_nodes, _LD)[:2]
    total = np.sum(np.asarray(f(x)) * w)
    total = complex(total) if np.iscomplexobj(total) else float(total)
    for loc, weight in (measure.atom1, measure.atom2) if atoms else ():
        total += weight * np.asarray(f(np.array([loc]))).reshape(-1)[0]
    return total


def resolvent_a0(chain: ChainParams, s: complex) -> complex:
    """Upper-left entry of (P - sI)^(-1), i.e. the Stieltjes transform of psi.

    Off the real axis exactly one characteristic root rho(s) satisfies
    |rho| < sqrt(q/p), and a_0(s) = 1/(rho - s) for that root.  It is taken
    as q/p over the other root (their product is q/p), as the quadratic
    formula's small root cancels as p -> 0."""
    s = complex(s)
    if s.imag == 0.0:
        raise ValueError("resolvent_a0 requires Im(s) != 0")
    p, q, r = chain.p, chain.q, chain.r
    sd = np.sqrt(complex((s - r) ** 2 - 4.0 * p * q))
    big = max(((s - r) + sd) / (2.0 * p), ((s - r) - sd) / (2.0 * p), key=abs)
    return 1.0 / (q / p / big - s)


def residue_check(chain: ChainParams):
    """Pole strengths of g(z) = sqrt((z-r)^2 - 4pq) / (((r+q)z + q)(1-z)) at
    z = 1 and z = -q/(q+r), by small-circle contour quadrature in the
    principal branch, _RESIDUE_NODES points on circles of _RESIDUE_SCALE times
    each pole's distance to the nearest cut.

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
        z = center + radius * np.exp(2j * np.pi * np.arange(_RESIDUE_NODES) / _RESIDUE_NODES)
        return complex(np.mean(g(z) * (z - center)))

    # keep each circle clear of the branch cut on [lo, hi] and of Re z = r,
    # where the principal square root of (z-r)^2 - 4pq changes sheets
    rad1 = _RESIDUE_SCALE * min(1.0 - hi, 1.0 - r)
    rad2 = _RESIDUE_SCALE * min(lo - loc2, r - loc2, 1.0 + loc2)
    raw1 = raw_residue(1.0, rad1)
    raw2 = raw_residue(loc2, rad2)
    return (-raw1.real, raw2.real)

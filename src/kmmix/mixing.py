"""Distance to stationarity, closed-form bounds and mixing times.

For the chain started at the origin,

    || nu - mu_t ||_TV = (1/2) sum_n pi_n | I_t(n) |,
    I_t(n) = integral over (-1, 1) of lambda^t Q_n(lambda) dpsi(lambda),

where the atom of psi at 1 is excluded.  I_t(n) has two equivalent
representations implemented here:

  interval:  w2 (-q/(q+r))^(t+n) + integral of lambda^t Q_n phi over the AC
             support, by the substituted trapezoid rule;

  contour:   w2 (-q/(q+r))^(t+n) + (q/p)^(n/2) (p/(q+r)) * (1/2 pi i) times
             the unit-circle integral of
                 (sqrt(pq)(z + 1/z) + r)^t z^n (z - 1/z)
                 / ((z - z_a)(z - z_b)) dz,
             z_a = sqrt(p/q) (r + (1+q-p))/(2(q+r)),
             z_b = sqrt(p/q) (r - (1+q-p))/(2(q+r)),
             with all finite poles strictly inside the circle, so the uniform
             M-point rule is exponentially accurate once M resolves the
             degree t + n + 1 of the outer Laurent part.

Bounding |I_t(n)| termwise by
    w2 alpha^(t+n) + (q/p)^(n/2) (p/(q+r)) M_env beta^t,
with alpha = q/(q+r), beta = r + 2 sqrt(pq) and M_env the max modulus of the
contour integrand's rational factor, and summing the two geometric series in
n (ratios p/(q+r) and sqrt(p/q)) gives the closed-form envelope

    TV(t) <= A alpha^t + B beta^t,
    A = ((1+q-p)(q+r) - q) / ((1+q-p)(1-2p)),
    B = (p/(q+r)) (1 + 1/(sqrt(pq) - p)) / ((1 - z_a)(1 + z_b)),

and, when alpha > beta, the matching lower envelope A alpha^t - B beta^t.
The mixing time is the first t at which TV drops to the target; TV is
non-increasing in t, so geometric bracketing plus bisection finds it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, reversibility
from .orthopoly import q_bracket_matrix, q_values
from .spectral import QuadratureConfig, QuadratureError, build_measure, integrate_psi, \
    negative_atom, theta_nodes

__all__ = [
    "BoundCoefficients",
    "TailControl",
    "ConvergenceError",
    "RouteDisagreement",
    "bound_coefficients",
    "contour_envelope",
    "spectral_integral",
    "tv_curve",
    "tv_exact",
    "tv_upper",
    "tv_lower",
    "t_mix",
    "kernel_spectral",
]

_LD = np.longdouble


class ConvergenceError(RuntimeError):
    """Series truncation hit its cap; carries the bound that was achieved."""

    def __init__(self, message, achieved_bound):
        super().__init__(f"{message} (achieved tail bound {achieved_bound:.3e})")
        self.achieved_bound = achieved_bound


class RouteDisagreement(RuntimeError):
    """Interval and contour evaluations of the same integral disagree."""

    def __init__(self, t, n, interval_value, contour_value, tolerance):
        super().__init__(
            f"interval/contour mismatch at t={t}, n={n}: "
            f"{interval_value!r} vs {contour_value!r} (tolerance {tolerance:.3e})"
        )
        self.values = (interval_value, contour_value)


@dataclass(frozen=True)
class BoundCoefficients:
    """Constants of the TV envelope A alpha^t +- B beta^t."""

    A: float
    B: float
    alpha: float
    beta: float
    m: float


@dataclass(frozen=True)
class TailControl:
    """Truncation policy for the TV series over polynomial degree n."""

    series_tol: float = 1e-12
    n_cap: int = 100_000

    def __post_init__(self):
        if not self.series_tol > 0.0 or self.n_cap < 1:
            raise ValueError("series_tol must be positive and n_cap >= 1")


def contour_envelope(chain: ChainParams) -> float:
    """Max modulus bound M_env of the contour integrand's rational factor:
    2 / ((1 - z_a)(1 + z_b)) with the pole locations z_a, z_b."""
    za, zb = _pole_pair(chain)
    return 2.0 / ((1.0 - za) * (1.0 + zb))


def _pole_pair(chain: ChainParams):
    p, q, r = chain.p, chain.q, chain.r
    scale = math.sqrt(p / q) / (2.0 * (q + r))
    return (scale * (r + (1.0 + q - p)), scale * (r - (1.0 + q - p)))


def bound_coefficients(chain: ChainParams) -> BoundCoefficients:
    p, q, r = chain.p, chain.q, chain.r
    alpha = q / (q + r)
    beta = r + 2.0 * chain.sqrt_pq
    A = ((1.0 + q - p) * (q + r) - q) / ((1.0 + q - p) * (1.0 - 2.0 * p))
    B = 0.5 * contour_envelope(chain) * (p / (q + r)) * (1.0 + 1.0 / (chain.sqrt_pq - p))
    return BoundCoefficients(A=A, B=B, alpha=alpha, beta=beta, m=max(alpha, beta))


def _atom2_term(chain: ChainParams, t: int, n: int) -> float:
    loc2, w2 = negative_atom(chain)
    return w2 * loc2 ** (t + n)


def _contour_part(chain: ChainParams, t: int, n: int, n_nodes: int) -> float:
    """(q/p)^(n/2) (p/(q+r)) times the uniform-rule unit-circle integral."""
    p, q, r = chain.p, chain.q, chain.r
    za, zb = _pole_pair(chain)
    z = np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    core = (chain.sqrt_pq * (z + 1.0 / z) + r) ** t
    f = core * z ** n * (z - 1.0 / z) / ((z - za) * (z - zb))
    integral = np.mean(f * z).real  # (1/2 pi i) contour integral
    return (q / p) ** (n / 2.0) * (p / (q + r)) * integral


def contour_nodes_default(t: int, n: int, chain: ChainParams = None) -> int:
    """Node count resolving the degree-(t+n+1) outer Laurent part, plus
    enough nodes for the inner aliases (geometric in the largest pole
    modulus, which approaches the circle as q approaches p)."""
    base = 2 * (t + n) + 64
    if chain is None:
        return base
    za, zb = _pole_pair(chain)
    decay = -math.log(max(abs(za), abs(zb)))
    return base + min(int(math.ceil(28.0 / decay)), 1_000_000)


def spectral_integral(chain: ChainParams, t: int, n: int, route: str = "interval",
                      cfg: QuadratureConfig = None, contour_node_count: int = None) -> float:
    """I_t(n), the integral of lambda^t Q_n over (-1, 1) against psi (the atom
    at 1 excluded, the negative atom included).

    route 'interval' integrates the density directly, 'contour' uses the
    unit-circle representation, and 'both' evaluates the two and raises
    RouteDisagreement if they differ beyond
    1e-8 * max(1, beta^t (q/p)^(n/2))."""
    if t < 0 or n < 0:
        raise ValueError("t and n must be nonnegative")
    if route not in ("interval", "contour", "both"):
        raise ValueError(f"unknown route {route!r}")
    atom = _atom2_term(chain, t, n)
    if route in ("interval", "both"):
        measure = build_measure(chain)

        def f(x):
            return np.power(x, t) * q_values(chain, n, x)

        interval_val = atom + integrate_psi(measure, f, include_atoms=(False, False),
                                            cfg=cfg or QuadratureConfig())
        if route == "interval":
            return interval_val
    nodes = contour_node_count or contour_nodes_default(t, n, chain)
    contour_val = atom + _contour_part(chain, t, n, nodes)
    if route == "contour":
        return contour_val
    beta = chain.support[1]
    tol = 1e-8 * max(1.0, beta ** t * (chain.q / chain.p) ** (n / 2.0))
    if abs(interval_val - contour_val) > tol:
        raise RouteDisagreement(t, n, interval_val, contour_val, tol)
    return interval_val


def _geometric_depth(amp: float, ratio: float, log_tol: float) -> float:
    """Least n >= 0 with amp ratio^(n+1) <= exp(log_tol), up to rounding of
    the logarithms (inf when ratio has rounded to 1)."""
    if amp <= 0.0 or math.log(amp) + math.log(ratio) <= log_tol:
        return 0
    if ratio >= 1.0:
        return math.inf
    return math.ceil((log_tol - math.log(amp)) / math.log(ratio)) - 1


def _series_cutoff(chain: ChainParams, co: BoundCoefficients, t: int, ctl: TailControl):
    """Smallest N whose certified series tail is below the working tolerance.

    The tail of (1/2) sum_n pi_n |I_t(n)| is dominated termwise by two
    geometric series with ratios p/(q+r) and sqrt(p/q).  The tolerance is
    additionally pinned under the beta^t scale of the TV envelope's width:
    the sandwich A alpha^t - B beta^t <= TV <= A alpha^t + B beta^t leaves
    only O(beta^t) of slack, and a truncation deficit above that scale would
    poke out of it.

    The tail bound is nonincreasing in N.  Each geometric term alone reaching
    the tolerance is necessary and both reaching half of it is sufficient;
    these closed forms bracket N, and bisection on the exact tail expression
    pins it, so N and its tail are those of a scan upward from N = 0."""
    p, q, r = chain.p, chain.q, chain.r
    x = p / (q + r)
    y = math.sqrt(p / q)
    w2 = negative_atom(chain)[1]
    amp_atom = 0.5 * w2 * co.alpha ** t / p / (1.0 - x)
    amp_cont = 0.5 * contour_envelope(chain) * x * co.beta ** t / p / (1.0 - y)
    tol = max(min(ctl.series_tol, 0.05 * co.B * co.beta ** t), 5e-324)

    def tail(n):
        return amp_atom * x ** (n + 1) + amp_cont * y ** (n + 1)

    log_tol = math.log(tol)
    need = max(_geometric_depth(amp_atom, x, log_tol), _geometric_depth(amp_cont, y, log_tol))
    log_half = log_tol - math.log(2.0)
    enough = max(_geometric_depth(amp_atom, x, log_half), _geometric_depth(amp_cont, y, log_half))
    # tail(lo) > tol >= tail(hi), with lo = -1 standing for "no N below hi"
    lo = max(min(need - 2, ctl.n_cap - 1), -1)
    while lo >= 0 and tail(lo) <= tol:
        lo = lo // 2 - 1
    hi = max(min(enough + 1, ctl.n_cap), lo + 1)
    while tail(hi) > tol:
        if hi == ctl.n_cap:
            raise ConvergenceError(
                f"series cutoff exceeded n_cap={ctl.n_cap} at t={t}", tail(hi)
            )
        lo, hi = hi, min(2 * hi + 1, ctl.n_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi, tail(hi)


def _tv_series_fixed(chain: ChainParams, t: int, n_cut: int, pi_vals, n_nodes: int,
                     q_rows, xt) -> float:
    """(1/2) sum_{n <= n_cut} pi_n |I_t(n)| with the AC parts of every degree
    evaluated on the shared n_nodes-panel node set.

    q_rows holds Q_n at those nodes in rows 0..n_cut (further rows are
    ignored) and xt holds x^t there, so the AC parts are one
    extended-precision matrix-vector product."""
    _, w = theta_nodes(chain, n_nodes)
    wxt = w * xt * (_LD(np.pi) / _LD(n_nodes))
    # np.dot, not @: numpy's matmul loop for longdouble is about 2.5x slower
    ac = np.dot(q_rows[: n_cut + 1], wxt).astype(float)
    loc2, w2 = negative_atom(chain)
    i_tn = w2 * loc2 ** (t + np.arange(n_cut + 1)) + ac
    return math.fsum(0.5 * pi_vals[: n_cut + 1] * np.abs(i_tn))


def _tv_pass(chain: ChainParams, ts, cuts: dict, pi_vals, n_nodes: int) -> dict:
    """The truncated series at every t of ts (ascending) on one node set.

    The Q_n matrix is built once, to the largest cutoff, and released on
    return, so a curve holds one at a time; x^t is carried forward from one t
    to the next instead of being tabulated."""
    x, _ = theta_nodes(chain, n_nodes)
    n_max = max(cuts[t] for t in ts)
    q_rows = q_bracket_matrix(chain, n_max, x)
    values, xt, t_prev = {}, None, 0
    for t in ts:
        if xt is None:
            xt = np.power(x, t)
        else:
            xt = xt * (x if t - t_prev == 1 else np.power(x, t - t_prev))
        t_prev = t
        values[t] = _tv_series_fixed(chain, t, cuts[t], pi_vals, n_nodes, q_rows, xt)
    return values


def tv_curve(chain: ChainParams, ts, ctl: TailControl = None,
             cfg: QuadratureConfig = None) -> list:
    """TV distance at every time in ts (in the given order) by summing the
    spectral series.

    Each t gets its own degree cutoff N_t, certified by the closed geometric
    tail bounds (the returned value is the partial sum; the discarded tail is
    provably below the working tolerance of _series_cutoff).  At each node
    count the bracket matrix is built once for all t; the shared-node
    quadrature is refined by doubling, and a t leaves the refinement as soon
    as its value stabilizes.  Raises ConvergenceError when some N_t exceeds
    ctl.n_cap and QuadratureError when some t does not stabilize within
    cfg.max_doublings."""
    ts = list(ts)
    if not ts:
        raise ValueError("ts must hold at least one time")
    if min(ts) < 0:
        raise ValueError("t must be nonnegative")
    ctl = ctl or TailControl()
    cfg = cfg or QuadratureConfig()
    co = bound_coefficients(chain)
    pending = sorted(set(ts))
    cuts = {t: _series_cutoff(chain, co, t, ctl)[0] for t in pending}
    pi_vals = np.atleast_1d(reversibility(chain).pi(np.arange(max(cuts.values()) + 1)))
    nodes = cfg.node_count
    cur = _tv_pass(chain, pending, cuts, pi_vals, nodes)
    if cfg.max_doublings == 0:
        return [cur[t] for t in ts]
    done = {}
    for _ in range(cfg.max_doublings):
        prev, nodes = cur, 2 * nodes
        cur = _tv_pass(chain, pending, cuts, pi_vals, nodes)
        for t in pending:
            if abs(cur[t] - prev[t]) <= cfg.tol * max(1.0, abs(cur[t])):
                done[t] = cur[t]
        pending = [t for t in pending if t not in done]
        if not pending:
            return [done[t] for t in ts]
    t = pending[0]
    raise QuadratureError(
        f"tv_exact quadrature did not stabilize at t={t} ({nodes} nodes)", (prev[t], cur[t])
    )


def tv_exact(chain: ChainParams, t: int, ctl: TailControl = None,
             cfg: QuadratureConfig = None) -> float:
    """TV distance at time t by summing the spectral series; see tv_curve."""
    return tv_curve(chain, [t], ctl=ctl, cfg=cfg)[0]


def tv_upper(chain: ChainParams, t: int) -> float:
    co = bound_coefficients(chain)
    return co.A * co.alpha ** t + co.B * co.beta ** t


def tv_lower(chain: ChainParams, t: int):
    """Matching lower envelope A alpha^t - B beta^t; only meaningful (valid
    flag) when alpha > beta and the value is positive."""
    co = bound_coefficients(chain)
    value = co.A * co.alpha ** t - co.B * co.beta ** t
    return value, (co.alpha > co.beta and value > 0.0)


def t_mix(chain: ChainParams, eps: float, method: str = "exact") -> int:
    """Least t with TV(t) <= eps (method 'exact') or with the closed-form
    upper envelope below eps (method 'bound', an upper bound on the exact
    answer).  Uses doubling to bracket and bisection inside, which is valid
    because TV is non-increasing in t."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if method not in ("exact", "bound"):
        raise ValueError(f"unknown method {method!r}")
    if method == "bound":
        def tv_at(t):
            return tv_upper(chain, t)
    else:
        ctl = TailControl(series_tol=min(1e-12, eps * 1e-3))

        def tv_at(t):
            return tv_exact(chain, t, ctl=ctl)

    if tv_at(0) <= eps:
        return 0
    lo, hi = 0, 1
    while tv_at(hi) > eps:
        lo, hi = hi, hi * 2
        if hi > 10 ** 7:
            raise ConvergenceError(f"t_mix bracket exceeded 1e7 for eps={eps}", tv_at(lo))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tv_at(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def kernel_spectral(chain: ChainParams, t: int, i: int, j: int,
                    cfg: QuadratureConfig = None) -> float:
    """Transition probability p_t(i, j) via the full spectral representation
    pi_j * integral of lambda^t Q_i Q_j dpsi (both atoms included)."""
    if t < 0 or i < 0 or j < 0:
        raise ValueError("t, i, j must be nonnegative")
    measure = build_measure(chain)

    def f(x):
        return np.power(x, t) * q_values(chain, i, x) * q_values(chain, j, x)

    integral = integrate_psi(measure, f, include_atoms=(True, True),
                             cfg=cfg or QuadratureConfig())
    return float(reversibility(chain).pi(j) * integral)

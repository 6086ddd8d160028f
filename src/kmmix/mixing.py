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
The series takes the interval route, I_t(0..N) at once per t: one sine
transform over the nodes (orthopoly.q_node_sums), in one pass at the node
count spectral.node_count certifies beforehand.  The mixing time is the
first t at which TV drops to the target, searched for in rounds of batched
evaluations inside a bracket set by the envelope.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainParams, reversibility
from .orthopoly import q_bracket_matrix, q_log_sup, q_node_sums
from .spectral import EPS_FLOOR, QuadratureConfig, RegimeError, build_measure, negative_atom, \
    node_count, theta_nodes

__all__ = [
    "BoundCoefficients",
    "TailControl",
    "ConvergenceError",
    "RouteDisagreement",
    "bound_coefficients",
    "contour_envelope",
    "spectral_integral",
    "tv_curve",
    "tv_quadrature",
    "tv_upper",
    "tv_lower",
    "t_mix",
    "kernel_matrix",
    "kernel_spectral",
]

_PROBES = 15  # evaluations per round of _first_below
_BLOCK = 8  # times per batch of tv_curve's node pass (bounds the FFT's memory)
_GAP_MEMO = 4  # powers x^gap that one _powers call keeps for reuse
T_CAP = 10 ** 7  # the largest time t_mix searches to


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


@lru_cache(maxsize=32)
def bound_coefficients(chain: ChainParams) -> BoundCoefficients:
    """The envelope's constants, computed once per chain (the value is
    immutable; tv_upper, tv_lower and t_mix read it per t)."""
    p, q, r = chain.p, chain.q, chain.r
    alpha = q / (q + r)
    beta = r + 2.0 * chain.sqrt_pq
    A = ((1.0 + q - p) * (q + r) - q) / ((1.0 + q - p) * (1.0 - 2.0 * p))
    B = 0.5 * contour_envelope(chain) * (p / (q + r)) * (1.0 + 1.0 / (chain.sqrt_pq - p))
    return BoundCoefficients(A=A, B=B, alpha=alpha, beta=beta, m=max(alpha, beta))


def _contour_part(chain: ChainParams, t: int, n: int, n_nodes: int) -> float:
    """(q/p)^(n/2) (p/(q+r)) times the uniform-rule unit-circle integral."""
    p, q, r = chain.p, chain.q, chain.r
    za, zb = _pole_pair(chain)
    z = np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    core = (chain.sqrt_pq * (z + 1.0 / z) + r) ** t
    f = core * z ** n * (z - 1.0 / z) / ((z - za) * (z - zb))
    integral = np.mean(f * z).real  # (1/2 pi i) contour integral
    return (q / p) ** (n / 2.0) * (p / (q + r)) * integral


def contour_nodes_default(t: int, n: int, chain: ChainParams) -> int:
    """Node count resolving the degree-(t+n+1) outer Laurent part, plus
    enough nodes for the inner aliases (geometric in the largest pole
    modulus, which approaches the circle as q approaches p)."""
    za, zb = _pole_pair(chain)
    decay = -math.log(max(abs(za), abs(zb)))
    return 2 * (t + n) + 64 + min(int(math.ceil(28.0 / decay)), 1_000_000)


def spectral_integral(chain: ChainParams, t: int, n: int, route: str = "interval",
                      cfg: QuadratureConfig = None, contour_node_count: int = None) -> float:
    """I_t(n), the integral of lambda^t Q_n over (-1, 1) against psi (the atom
    at 1 excluded, the negative atom included).

    route 'interval' takes the AC part from the kernel's quadrature core
    (entry (0, n), Q_0 = 1) and adds w2 loc2^(t+n), 'contour' uses the
    unit-circle representation, and 'both' evaluates the two and raises
    RouteDisagreement if they differ beyond
    1e-8 * max(1, beta^t (q/p)^(n/2))."""
    t, n = _naturals([t, n], "t and n")
    if route not in ("interval", "contour", "both"):
        raise ValueError(f"unknown route {route!r}")
    if contour_node_count is not None and contour_node_count < 1:
        raise ValueError("contour_node_count must be at least 1")
    loc2, w2 = negative_atom(chain)
    if route in ("interval", "both"):
        build_measure(chain)  # RegimeError outside the validated regime
        ac, _ = _kernel_ac(chain, [t], n, [0], [n], cfg or QuadratureConfig(),
                           "spectral_integral")
        interval_val = w2 * loc2 ** (t + n) + float(ac[t][0, 0])
        if route == "interval":
            return interval_val
    nodes = contour_node_count or contour_nodes_default(t, n, chain)
    contour_val = w2 * loc2 ** (t + n) + _contour_part(chain, t, n, nodes)
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


def _cutoff_rule(chain: ChainParams, co: BoundCoefficients, ctl: TailControl):
    """The function t -> (N, tail): the smallest N whose certified series tail
    is below the working tolerance, and that tail.  The per-chain constants
    are taken once, here.

    The tail of (1/2) sum_n pi_n |I_t(n)| is dominated termwise by two
    geometric series with ratios p/(q+r) and sqrt(p/q).  The tolerance is
    additionally pinned under the beta^t scale of the TV envelope's width:
    the sandwich A alpha^t - B beta^t <= TV <= A alpha^t + B beta^t leaves
    only O(beta^t) of slack, and a truncation deficit above that scale would
    poke out of it.

    The tail bound is nonincreasing in N.  Both geometric terms reaching half
    the tolerance is sufficient; bisection on the exact tail expression below
    that closed form pins N, so N and its tail are those of a scan upward
    from N = 0.  A guess `near` (the cutoff of a neighbouring t) is taken
    as it is when it already is that least N: tail(near) <= tol <
    tail(near - 1)."""
    p, q, r = chain.p, chain.q, chain.r
    x = p / (q + r)
    y = math.sqrt(p / q)
    half_w2 = 0.5 * negative_atom(chain)[1]
    half_env_x = 0.5 * contour_envelope(chain) * x

    def cutoff(t, near=None):
        amp_atom = half_w2 * co.alpha ** t / p / (1.0 - x)
        amp_cont = half_env_x * co.beta ** t / p / (1.0 - y)
        tol = max(min(ctl.series_tol, 0.05 * co.B * co.beta ** t), 5e-324)

        def tail(n):
            return amp_atom * x ** (n + 1) + amp_cont * y ** (n + 1)

        if near is not None and tail(near) <= tol and (near == 0 or tail(near - 1) > tol):
            return near, tail(near)
        log_half = math.log(tol) - math.log(2.0)
        enough = max(_geometric_depth(amp_atom, x, log_half),
                     _geometric_depth(amp_cont, y, log_half))
        # tail(lo) > tol >= tail(hi), with lo = -1 standing for "no N below hi"
        lo, hi = -1, min(enough + 1, ctl.n_cap)
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
    return cutoff


def _powers(x, ts):
    """(t, x^t) for the ascending ts, each power carried forward from the last
    as xt * x^gap.  Gap 1 multiplies by x; any other x^gap is one np.power
    (powl per element, about 80 longdouble multiplies), kept for the rest of
    the call, since _first_below's probe times repeat a few gaps (the first
    jump, then d and d + 1).  At most _GAP_MEMO are kept, the oldest dropped
    first; every x^t is bit for bit that of a fresh np.power per step."""
    xt, t_prev, steps = np.ones_like(x), 0, {}
    for t in ts:
        gap, t_prev = t - t_prev, t
        if gap != 1 and gap not in steps:
            if len(steps) == _GAP_MEMO:
                del steps[next(iter(steps))]
            steps[gap] = np.power(x, gap)
        xt = xt * (x if gap == 1 else steps[gap])
        yield t, xt


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


def tv_curve(chain: ChainParams, ts, ctl: TailControl = None,
             cfg: QuadratureConfig = None) -> list:
    """TV distance at every time in ts (in the given order) by summing the
    spectral series.

    Each t gets its own degree cutoff N_t, certified by the closed geometric
    tail bounds (the returned value is the partial sum; the discarded tail is
    provably below the working tolerance of _cutoff_rule).  One pass at
    tv_quadrature's node count serves every t.  Per batch of _BLOCK ascending
    times the AC parts of I_t(0..N_t) come from one sine transform per t
    (orthopoly.q_node_sums).  Raises ConvergenceError when some N_t exceeds
    ctl.n_cap and QuadratureError when the node count passes
    spectral.NODE_CAP."""
    ts = _naturals(ts)
    cuts, n_nodes, _ = tv_quadrature(chain, ts, ctl, cfg)
    pi_vals = np.atleast_1d(reversibility(chain).pi(np.arange(max(cuts.values()) + 1)))
    loc2, w2 = negative_atom(chain)
    x, w, _ = theta_nodes(chain, n_nodes)
    order = list(cuts)
    powers, values = _powers(x, order), {}
    for start in range(0, len(order), _BLOCK):
        block = [next(powers) for _ in order[start:start + _BLOCK]]
        n_cut = max(cuts[t] for t, _ in block)
        acs = q_node_sums(chain, n_cut, np.array([w * xt for _, xt in block]))
        for (t, _), ac in zip(block, acs):
            i_tn = w2 * loc2 ** (t + np.arange(cuts[t] + 1)) + ac[: cuts[t] + 1].astype(float)
            values[t] = math.fsum(0.5 * pi_vals[: cuts[t] + 1] * np.abs(i_tn))
    return [values[t] for t in ts]


def tv_quadrature(chain: ChainParams, ts, ctl: TailControl = None,
                  cfg: QuadratureConfig = None) -> tuple:
    """(cuts, K, bound): tv_curve's cutoffs {t: N_t} over the ascending
    distinct ts, the node count of its one pass, and there the certified bound
    on each value's quadrature error.  By orthopoly.q_log_sup,
    pi_n |Q_n| <= c z^n / p (n >= 1) on the strip: (1/2) sum_{n <= N} pi_n |Q_n|
    is a geometric sum in z = sqrt(p/q) e^y < 1 (as y < a <= log sqrt(q/p))."""
    cutoff = _cutoff_rule(chain, bound_coefficients(chain), ctl or TailControl())
    cuts, near = {}, None
    for t in sorted(set(_naturals(ts))):  # each t's N is the next one's guess
        near = cuts[t] = cutoff(t, near)[0]
    n_cut, log_c, log_p = max(cuts.values()), q_log_sup(chain, 0), math.log(chain.p)

    def log_sup(y):
        log_z = y - 0.5 * math.log(chain.q / chain.p)
        with np.errstate(divide="ignore"):  # n_cut = 0: no terms past n = 0
            terms = log_z - log_p + np.log(-np.expm1(n_cut * log_z)) - np.log(-np.expm1(log_z))
        return math.log(0.5) + log_c(y) + np.logaddexp(0.0, terms)
    return (cuts, *node_count(chain, cfg or QuadratureConfig(), "tv_curve", log_sup, min(cuts)))


def tv_upper(chain: ChainParams, t: int) -> float:
    if t < 0:
        raise ValueError("t must be nonnegative")
    co = bound_coefficients(chain)
    return co.A * co.alpha ** t + co.B * co.beta ** t


def tv_lower(chain: ChainParams, t: int):
    """Matching lower envelope A alpha^t - B beta^t; only meaningful (valid
    flag) when alpha > beta and the value is positive."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    co = bound_coefficients(chain)
    value = co.A * co.alpha ** t - co.B * co.beta ** t
    return value, (co.alpha > co.beta and value > 0.0)


def _first_below(values, limit: float, lo: int, hi: int) -> int:
    """Least t in (lo, hi] with values([t])[0] <= limit, for values non-increasing
    in t and at or below limit at hi (not evaluated): rounds of one values(ts)
    call at _PROBES evenly spaced times, each keeping the gap where they cross."""
    while hi - lo > 1:
        ts = sorted({lo + k * (hi - lo) // (_PROBES + 1) for k in range(1, _PROBES + 1)} - {lo})
        hi = min((t for t, v in zip(ts, values(ts)) if v <= limit), default=hi)
        lo = max((t for t in ts if t < hi), default=lo)
    return hi


def t_mix(chain: ChainParams, eps: float, method: str = "exact") -> int:
    """Least t with TV(t) <= eps (method 'exact') or with the envelope
    A alpha^t + B beta^t <= eps (method 'bound', an upper bound on the exact
    answer), by _first_below.  Its bracket ends a step (for roundoff) past the
    closed-form time where each envelope term is below eps/2, or past the
    envelope's answer for TV (TV <= envelope); ConvergenceError past t = 1e7."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if method not in ("exact", "bound"):
        raise ValueError(f"unknown method {method!r}")
    co = bound_coefficients(chain)
    hi = max(_geometric_depth(2.0 * co.A, co.alpha, math.log(eps)),
             _geometric_depth(2.0 * co.B, co.beta, math.log(eps))) + 2
    if hi > T_CAP:
        raise ConvergenceError(f"t_mix bracket exceeded 1e7 for eps={eps}; the bound below is "
                               "min(1, envelope) at t = 1e7", min(1.0, tv_upper(chain, 1e7)))
    if eps * (1.0 - co.m) < 2.0 ** -1064:  # a step's decrement must span 2^10 subnormals
        raise ValueError(f"eps={eps} is too small for floats to resolve one step of TV")
    bound = _first_below(lambda ts: [tv_upper(chain, t) for t in ts], eps, -1, hi)
    if method == "bound":
        return bound
    ctl = TailControl(series_tol=min(1e-12, eps * 1e-3))
    return _first_below(lambda ts: tv_curve(chain, ts, ctl=ctl), eps, -1, bound + 1)


def kernel_matrix(chain: ChainParams, ts, n_max: int, cfg: QuadratureConfig = None,
                  rows=None, cols=None) -> np.ndarray:
    """p_t(i, j) = pi_j * integral of lambda^t Q_i Q_j dpsi for every t of ts
    (in the given order), i in rows and j in cols, index sets in 0..n_max
    (each all of 0..n_max by default): shape (len(ts), len(rows), len(cols)).

    One pass, its node count certifying every AC part within cfg.tol, builds
    one Q_n matrix for every t; the AC parts are one product
    (Q[rows] w x^t) Q[cols]^T per t.  The atoms add w1 and w2 loc2^(t+i+j).
    An entry whose roundoff floor pi_j EPS_FLOOR L1 misses cfg.tol is NaN:
    far below the diagonal (pi_j Q_i Q_j grows like (q/p)^((i-j)/2)), and as
    p -> 0, where the AC interval narrows and the integrals cancel past
    extended precision."""
    ts = _naturals(ts)
    n_max = _naturals([n_max], "n_max")[0]
    every = np.arange(n_max + 1)
    rows, cols = (every if s is None else np.atleast_1d(np.asarray(s, dtype=float))
                  for s in (rows, cols))
    if not all(s.size and np.isin(s, every).all() for s in (rows, cols)):
        raise ValueError(f"rows and cols must be nonempty index sets in 0..{n_max}")
    rows, cols = rows.astype(int), cols.astype(int)
    measure = build_measure(chain)
    cfg = cfg or QuadratureConfig()
    pi = np.atleast_1d(reversibility(chain).pi(cols))
    ac, l1 = _kernel_ac(chain, ts, n_max, rows, cols, cfg, "kernel_matrix")
    (_, w1), (loc2, w2) = measure.atom1, measure.atom2
    # not <=: a floor of 0 * inf (l1 past the double range, pi_j subnormal) is NaN
    return np.array([np.where(~(pi * EPS_FLOOR * l1[t] <= cfg.tol), np.nan,
                              (ac[t] + w1 + w2 * loc2 ** (t + np.add.outer(rows, cols))) * pi)
                     for t in ts])


def _kernel_ac(chain: ChainParams, ts, n_max: int, rows, cols, cfg: QuadratureConfig,
               name: str):
    """The quadrature core of the kernel: the AC parts (Q[rows] w x^t) Q[cols]^T
    for the ts and their L1 twins, ({t: ac}, {t: l1}), from one Q_0..Q_{n_max}
    matrix on the nodes of one pass.  Its node count certifies every entry
    within cfg.tol by orthopoly.q_log_sup's bound on |Q_i Q_j|, taken at the
    degree sum rounded up past a multiple of 16: a slice and a single entry
    within one such block share the node count, and so their bits."""
    block = (max(rows) + max(cols)) // 16 * 16 + 16
    n_nodes = node_count(chain, cfg, name, q_log_sup(chain, block, 0), t=min(ts))[0]
    x, w, two_cos = theta_nodes(chain, n_nodes)
    q_rows = q_bracket_matrix(chain, n_max, x, two_cos)
    left, right = q_rows[rows], q_rows[cols]
    ac, l1 = {}, {}
    for t, xt in _powers(x, sorted(set(ts))):
        wxt = w * xt
        l1[t] = np.dot(np.abs(left) * np.abs(wxt), np.abs(right).T).astype(float)
        ac[t] = np.dot(left * wxt, right.T).astype(float)
    return ac, l1


def kernel_spectral(chain: ChainParams, t: int, i: int, j: int,
                    cfg: QuadratureConfig = None) -> float:
    """Transition probability p_t(i, j): kernel_matrix on the one entry
    (rows [i], cols [j]).  Raises RegimeError where it is NaN (not certified)."""
    t, i, j = _naturals([t, i, j], "t, i, j")
    value = float(kernel_matrix(chain, [t], max(i, j), cfg=cfg, rows=[i], cols=[j])[0, 0, 0])
    if math.isnan(value):
        raise RegimeError(f"p_{t}({i}, {j}) cannot be certified: its roundoff floor "
                          "exceeds the quadrature tolerance")
    return value

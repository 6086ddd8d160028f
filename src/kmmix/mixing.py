"""Distance to stationarity, closed-form bounds and mixing times.

For the chain started at the origin,

    || nu - mu_t ||_TV = (1/2) sum_n pi_n | I_t(n) |,
    I_t(n) = integral over (-1, 1) of lambda^t Q_n(lambda) dpsi(lambda),

where the atom of psi at 1 is excluded.  I_t(n) has two equivalent
representations implemented here:

  interval:  w2 (-q/(q+r))^(t+n) + integral of lambda^t Q_n phi over the AC
             support, by the substituted trapezoid rule: kernel_matrix's
             entry (0, n), as I_t(n) = p_t(0, n)/pi_n - w1;

  contour:   spectral_integral, w2 (-q/(q+r))^(t+n) + (q/p)^(n/2) (p/(q+r))
             times (1/2 pi i) the unit-circle integral of
                 (sqrt(pq)(z + 1/z) + r)^t z^n (z - 1/z)
                 / ((z - z_a)(z - z_b)) dz,
             z_a = sqrt(p/q) and z_b = -sqrt(pq)/(q+r) strictly inside the
             circle.  The mean over the
             M = t + n + 1 roots of unity is exact on the Laurent polynomial
             and errs only by the two poles' closed-form aliasing, subtracted.

Bounding |I_t(n)| termwise by
    w2 alpha^(t+n) + (q/p)^(n/2) (p/(q+r)) M_env beta^t,
with alpha = q/(q+r), beta = r + 2 sqrt(pq) and M_env the max modulus of the
contour integrand's rational factor, and summing the two geometric series in
n (ratios p/(q+r) and sqrt(p/q)) gives the closed-form envelope

    TV(t) <= A alpha^t + B beta^t,
    A = ((1+q-p)(q+r) - q) / ((1+q-p)(1-2p)),
    B = (p/(q+r)) (1 + 1/(sqrt(pq) - p)) / ((1 - z_a)(1 + z_b)),

and, when alpha > beta, the matching lower envelope A alpha^t - B beta^t.
The series takes the interval route, I_t(0..N) at once per t: a sine
transform over the nodes (orthopoly.q_node_sums) in one pass at a certified
node count, less the pole correction its plan carries (spectral.node_count),
and the atom terms (w2 - E2) loc2^t loc2^n, as Q_n(loc2) = loc2^n, by one
rule (_atom_powers) that the kernel takes over t and i + j.  N <= t, as past
t the terms are nu_n and sum to (1/2) nu_tail(t).  t_mix is the first t at
which TV drops to the target: log TV is close to linear in t, so a
safeguarded regula falsi on it finds t in a few series calls of two times
each, inside a bracket from the lower bound (1/2) alpha^t (the eigenfunction
(-alpha)^n of the negative atom) to the envelope's answer.  Until the upper
end is evaluated, a round steps along the slope of log TV that the last pair
(t - 1, t) measured.

The quadrature plan (spectral.node_count) sizes a pass; the pass picks its
precision.  Its roundoff floor is 32 eps times its integrand's L1 size, and
it runs in float64 where _F64_MARGIN times float64's floor meets its
tolerance (_pass_dtype), else in longdouble.  The series states that size a
priori (_series_floor); the kernel measures it on its float64 Q_n rows.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .chain import ChainParams, _kernel_args, _naturals, _power, reversibility
from .orthopoly import q_bracket_matrix, q_log_sup, q_node_sums
from .spectral import NODE_CAP, QuadratureConfig, QuadratureError, RegimeError, \
    _checked_support, build_measure, negative_atom, node_count, theta_nodes

__all__ = [
    "BoundCoefficients",
    "ConvergenceError",
    "bound_coefficients",
    "spectral_integral",
    "tv_curve",
    "tv_quadrature",
    "tv_envelope",
    "t_mix",
    "kernel_matrix",
]

_CELLS = 1 << 13  # cells per batch of times; per t tv_curve's 2K + N_t + 1, _kernel_ac's R(K+C)
_T_DOUBLE = int(np.finfo(float).max)  # the largest time the TV routes take: they power in doubles
T_CAP = 10 ** 7  # the largest time t_mix searches to
N_CAP = 100_000  # the largest degree cutoff N of the TV series
_F64_MARGIN = 10.0  # how far a float64 pass keeps its floor inside tol, its values inside range
_LOG_F64_ROOM = math.log(np.finfo(np.float64).max / _F64_MARGIN)  # log of a float64 pass's peak


class ConvergenceError(RuntimeError):
    """A cap met before TV is certified: tv_curve's series cutoff past N_CAP or
    a term past the double range, or t_mix's bracket past T_CAP; carries the
    bound achieved (the series' tail bound, or min(1, envelope) at T_CAP)."""

    def __init__(self, message, achieved_bound):
        super().__init__(f"{message} (achieved bound {achieved_bound:.3e})")
        self.achieved_bound = achieved_bound


@dataclass(frozen=True)
class BoundCoefficients:
    """Constants of the TV envelope A alpha^t +- B beta^t."""

    A: float
    B: float
    alpha: float
    beta: float
    m: float


def _pole_pair(chain: ChainParams):
    """The contour integrand's poles, z_a = sqrt(p/q) and z_b = -sqrt(pq)/(q+r)."""
    return math.sqrt(chain.p / chain.q), -chain.sqrt_pq / (chain.q + chain.r)


def _contour_envelope(chain: ChainParams) -> float:
    """Max modulus bound M_env of the contour integrand's rational factor:
    2 / ((1 - z_a)(1 + z_b)) with the pole locations z_a, z_b."""
    za, zb = _pole_pair(chain)
    return 2.0 / ((1.0 - za) * (1.0 + zb))


@lru_cache(maxsize=32)
def bound_coefficients(chain: ChainParams) -> BoundCoefficients:
    """The envelope's constants, computed once per chain (the value is
    immutable; tv_envelope reads it per call).  RegimeError where sqrt(pq) - p,
    which B divides by, is not positive in floating point."""
    p, q, r = chain.p, chain.q, chain.r
    if not p < chain.sqrt_pq:
        raise RegimeError(f"the TV envelope divides by sqrt(pq) - p, which is not positive in "
                          f"floating point for p={p}, q={q}, r={r}")
    alpha = q / (q + r)
    beta = r + 2.0 * chain.sqrt_pq
    A = ((1.0 + q - p) * (q + r) - q) / ((1.0 + q - p) * (1.0 - 2.0 * p))
    B = 0.5 * _contour_envelope(chain) * (p / (q + r)) * (1.0 + 1.0 / (chain.sqrt_pq - p))
    return BoundCoefficients(A=A, B=B, alpha=alpha, beta=beta, m=max(alpha, beta))


def _contour_part(chain: ChainParams, t: int, n: int) -> float:
    """(q/p)^(n/2) (p/(q+r)) times the unit-circle integral: the mean of
    g = P (1 + a/(z - z_a) + b/(z - z_b)), P = lambda^t z^n, over the M = t + n + 1
    roots of unity, less its aliasing a P(z_a) z_a^(M-1)/(1 - z_a^M) + b P(z_b)
    z_b^(M-1)/(1 - z_b^M), where P(z_a) = z_a^n (lambda(z_a) = 1), P(z_b) = loc2^t z_b^n.
    QuadratureError past M = 2 NODE_CAP, the degree the kernel's exact
    count ceil((d + 3)/2) <= NODE_CAP reaches; inf or NaN where (q/p)^(n/2)
    leaves the double range."""
    m = t + n + 1
    if m > 2 * NODE_CAP:
        raise QuadratureError("spectral_integral", m, 2 * NODE_CAP, "the contour cap")
    p, q, r = chain.p, chain.q, chain.r
    za, zb = _pole_pair(chain)
    z = np.exp(2j * np.pi * np.arange(m) / m)
    g = (chain.sqrt_pq * (z + 1.0 / z) + r) ** t * z ** n * (z * z - 1.0) / ((z - za) * (z - zb))
    a = (p - q) / q / (za - zb)  # (z_a^2 - 1)/(z_a - z_b), z_a^2 = p/q
    b = (zb * zb - 1.0) / (zb - za)
    alias = (a * za ** (n + m - 1) / -math.expm1(0.5 * m * math.log(p / q))  # 1 - z_a^M
             + b * negative_atom(chain)[0] ** t * zb ** (n + m - 1) / (1.0 - zb ** m))
    return _power(q / p, n / 2.0) * (p / (q + r)) * (float(np.mean(g).real) - alias)


def spectral_integral(chain: ChainParams, t: int, n: int) -> float:
    """I_t(n), the integral of lambda^t Q_n over (-1, 1) against psi (the atom
    at 1 excluded, the negative atom included), by the contour route: exact
    less closed-form pole aliasing, accurate relative to
    max(1, beta^t (q/p)^(n/2)).  The interval route is kernel_matrix's entry
    (0, n): I_t(n) = p_t(0, n)/pi_n - w1 (the verify command compares the two).
    RegimeError outside build_measure's regime, QuadratureError past M = 2 NODE_CAP."""
    t, n = _naturals([t, n], "t and n")
    loc2, w2 = build_measure(chain).atom2  # RegimeError outside the validated regime
    return w2 * loc2 ** (t + n) + _contour_part(chain, t, n)


def _geometric_depth(amp: float, ratio: float, log_tol: float) -> float:
    """Least n >= 0 with amp ratio^(n+1) <= exp(log_tol), up to rounding of
    the logarithms (inf when ratio has rounded to 1)."""
    if amp <= 0.0 or math.log(amp) + math.log(ratio) <= log_tol:
        return 0
    if ratio >= 1.0:
        return math.inf
    return math.ceil((log_tol - math.log(amp)) / math.log(ratio)) - 1


def _tail_rule(chain: ChainParams, co: BoundCoefficients):
    """The function t -> series, the two (amp, ratio) of geometric series amp ratio^(n+1)
    bounding the TV series' terms past degree n at time t (_tail): ratio p/(q+r)
    for the atom terms, sqrt(p/q) for the AC parts; per-chain constants taken once."""
    p, q, r = chain.p, chain.q, chain.r
    x = p / (q + r)
    y = math.sqrt(p / q)
    half_w2 = 0.5 * negative_atom(chain)[1]
    half_env_x = 0.5 * _contour_envelope(chain) * x
    return lambda t: ((half_w2 * co.alpha ** t / p / (1.0 - x), x),
                      (half_env_x * co.beta ** t / p / (1.0 - y), y))


def _tail(series, n: int) -> float:
    """The tail bound past degree n of _tail_rule's series: a x^(n+1) + c y^(n+1)."""
    (a, x), (c, y) = series
    return a * x ** (n + 1) + c * y ** (n + 1)


def _cutoff_rule(chain: ChainParams, co: BoundCoefficients, series_tol: float):
    """The function t -> (N, tail): the smallest N whose certified series tail
    (_tail_rule) is below the working tolerance, or t if that N passes t
    (tv_curve adds the exact rest there, with no search once tail(t) misses
    the tolerance), and the tail past the N returned.

    The tolerance is additionally pinned under the beta^t scale of the TV
    envelope's width: the sandwich A alpha^t - B beta^t <= TV <= A alpha^t +
    B beta^t leaves only O(beta^t) of slack, and a truncation deficit above
    that scale would poke out of it.

    The tail bound is nonincreasing in N.  A guess `near` (an earlier t's
    cutoff, else where the larger term alone meets tol) and then near + 1 are
    checked first, by inline float expressions.  Else tail(cap), cap = min(t,
    N_CAP), missing tol cuts the series at t, or raises past N_CAP; meeting
    it, one bisection over (-1, cap] pins N, so N and its tail are those of a
    scan upward from N = 0."""
    tail_at = _tail_rule(chain, co)

    def cutoff(t, near=None):
        (a, x), (c, y) = series = tail_at(t)
        tol = max(min(series_tol, 0.05 * co.B * co.beta ** t), 5e-324)
        cap = min(t, N_CAP)
        if near is None:
            near = max(_geometric_depth(amp, ratio, math.log(tol)) for amp, ratio in series)
        if near < cap:
            at = a * x ** (near + 1) + c * y ** (near + 1)  # tail(near)
            if at <= tol and (near == 0 or a * x ** near + c * y ** near > tol):
                return near, at
            after = a * x ** (near + 2) + c * y ** (near + 2)
            if at > tol >= after:
                return near + 1, after
        tail = partial(_tail, series)
        if tail(cap) > tol:
            if cap == t:
                return t, tail(t)
            raise ConvergenceError(f"series cutoff exceeded n_cap={N_CAP} at t={t}", tail(cap))
        # tail(lo) > tol >= tail(hi), with lo = -1 standing for "no N below hi"
        lo, hi = -1, cap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tail(mid) <= tol:
                hi = mid
            else:
                lo = mid
        return hi, tail(hi)
    return cutoff


def _node_power(x, gap: int):
    """x^gap for the nodes x, in their dtype, by right-to-left binary powering:
    the squares x, x^2, x^4, ... in turn, those of gap's set bits multiplied
    into ones in ascending bit order (exact ones at gap 0).  About 2 log2(gap)
    multiplies per node where np.power on longdouble runs powl's 80 or so; the
    relative error stays within about gap eps, that of the node's own
    rounding carried through x^gap."""
    power, square = np.ones_like(x), x
    while gap:
        if gap & 1:
            power *= square
        gap >>= 1
        if gap:
            square = square * square
    return power


def _power_batches(x, batches):
    """The rows x^t of each batch of ascending times in turn, each the last row
    times the step x^gap, in place: x^t_prev x^gap t by t, from ones at 0.  A
    step is x for gap 1, else one _node_power, kept while the gap repeats;
    t_mix's pairs (g - 1, g) take one power, evenly strided times one in all."""
    last, t_prev, gap, step = np.ones_like(x), 0, 1, x
    for times in batches:
        rows = np.empty((len(times), x.size), dtype=x.dtype)
        for row, t in zip(rows, times):
            if t - t_prev != gap:
                gap = t - t_prev
                step = x if gap == 1 else _node_power(x, gap)
            last = np.multiply(last, step, out=row)
            t_prev = t
        yield rows


def _batches(cuts: dict, fft_cells: int):
    """tv_curve's batches, runs of the ascending times of cuts ({t: N_t}), each
    within _CELLS cells (or of one time) at fft_cells + N_t + 1 cells per t."""
    batch, cells = [], 0
    for t, n_cut in cuts.items():
        if batch and cells + fft_cells + n_cut + 1 > _CELLS:
            yield batch
            batch, cells = [], 0
        batch.append(t)
        cells += fft_cells + n_cut + 1
    yield batch


def _atom_powers(loc2: float, times, degrees, weight: float = 1.0) -> np.ndarray:
    """weight loc2^t loc2^d for each t of times (ints of any size) and d of
    degrees, one outer product; loc2^t is powered at t as a double and signed
    by t's own parity (loc2 < 0; past 2^53 doubles are even).  A zero row
    loc2^t, as in every near-critical t_mix round, powers no degrees."""
    loc2_t = np.copysign(np.power(loc2, np.array(times, dtype=float)),
                         [1 - 2 * (t & 1) for t in times])
    # not for its multiplies: past degree ~900 np.power(loc2, degrees) underflows
    # through libm's slow path, about 0.2 us a degree (t_mix((0.3, 0.32, 0.38),
    # 1e-3) takes about 1.5 times as long without this skip)
    if not loc2_t.any():
        return np.zeros((len(times), *np.shape(degrees)))
    return np.multiply.outer(float(weight) * loc2_t, np.power(loc2, degrees))


def tv_curve(chain: ChainParams, ts, series_tol: float = 1e-12,
             cfg: QuadratureConfig = None) -> list:
    """TV distance at every time in ts (in the given order) by summing the
    spectral series.

    Each t gets its own degree cutoff N_t, certified by the closed geometric
    tail bounds (the returned value is the partial sum; the discarded tail is
    provably below _cutoff_rule's working tolerance, series_tol or less), or
    t where N_t passes t: mu_t lives on 0..t, so past t the terms are nu_n and
    add up to (1/2) nu_tail(t) exactly.  One pass at tv_quadrature's node count K
    serves every t, with its plan's E1 off each AC part and w2 - E2 as the
    atom weight (both 0.0 under the strip count), in tv_quadrature's dtype:
    float64 where its a-priori roundoff floor meets the tolerance, else
    longdouble.  The ascending times run in batches of at most _CELLS cells,
    2K for a t's FFT and N_t + 1 for its terms.  Per batch the node powers
    x^t come row by row from the steps x^gap, one binary power (_node_power)
    per distinct gap (_power_batches), the AC parts of I_t(0..N_t) from one
    sine transform per t (orthopoly.q_node_sums) and the series terms of all
    its (t, n) pairs from one array, atom terms by _atom_powers; only the
    fsum is per t.
    Raises ConvergenceError when some N_t exceeds N_CAP or a term leaves the
    double range (the AC parts carry (q/p)^(n/2)), QuadratureError past
    spectral.NODE_CAP nodes, and ValueError and RegimeError as tv_quadrature."""
    ts = _naturals(ts)
    cuts, n_nodes, _, e1, e2, dtype = tv_quadrature(chain, ts, series_tol, cfg)
    rev = reversibility(chain)
    half_pi = 0.5 * rev.pi(np.arange(max(cuts.values()) + 1))
    loc2, w2 = negative_atom(chain)
    x, w = theta_nodes(chain, n_nodes, dtype)[:2]
    batches, values = list(_batches(cuts, 2 * n_nodes)), {}
    for times, xt in zip(batches, _power_batches(x, batches)):
        sizes = [cuts[t] + 1 for t in times]
        n = np.arange(max(sizes))
        keep = n < np.array(sizes)[:, None]  # the batch's pairs (t, n <= N_t), t by t
        acs = q_node_sums(chain, n.size - 1, w * xt)
        with np.errstate(over="ignore", invalid="ignore"):  # a term past doubles raises below
            i_tn = (acs[keep] - e1).astype(float) + _atom_powers(loc2, times, n, w2 - e2)[keep]
            terms = np.broadcast_to(half_pi[: n.size], keep.shape)[keep] * np.abs(i_tn)
        if not np.isfinite(terms).all():
            row, n_bad = np.argwhere(keep)[np.argmin(np.isfinite(terms))]
            raise _overflow_error(chain, series_tol, times[row], int(n_bad), sizes[row] - 1)
        terms = terms.tolist()
        for t, m, end in zip(times, sizes, accumulate(sizes)):
            values[t] = math.fsum(terms[end - m:end]) + (0.5 * rev.nu_tail(t) if cuts[t] == t
                                                          else 0.0)
    return [values[t] for t in ts]


def _overflow_error(chain: ChainParams, series_tol: float, t: int, n: int, n_cut: int):
    """The ConvergenceError for tv_curve's first term out of the double range,
    at t and degree n of the n_cut its tolerance asks for; it carries the tail
    bound past n - 1, the most the doubles reach."""
    return ConvergenceError(f"the TV series at t={t} leaves the double range at degree n={n}, "
                            f"of the N={n_cut} that series_tol={series_tol!r} asks for",
                            _tail(_tail_rule(chain, bound_coefficients(chain))(t), n - 1))


@dataclass(frozen=True)
class _SeriesSup:
    """y -> log of a bound on (1/2) sum_{n <= n_cut} pi_n |Q_n| on |Im theta| <= y,
    tv_curve's integrand for spectral.node_count, by value: equal cutoffs on
    one chain hash equal and share a cached plan.  By orthopoly.q_log_sup,
    pi_n |Q_n| <= c z^n / p (n >= 1) on the strip, c taking one sin(theta) of
    the weights for every term alike: a geometric sum in
    z = sqrt(p/q) e^y < 1 (as y < a <= log sqrt(q/p)).  On the support
    _series_floor bounds the same sum."""

    chain: ChainParams
    n_cut: int

    def __call__(self, y):
        chain = self.chain
        log_z = y - 0.5 * math.log(chain.q / chain.p)
        with np.errstate(divide="ignore"):  # n_cut = 0: no terms past n = 0
            terms = log_z - math.log(chain.p) + np.log(-np.expm1(self.n_cut * log_z)) \
                - np.log(-np.expm1(log_z))
        return math.log(0.5) + q_log_sup(chain, 0)(y) + np.logaddexp(0.0, terms)


def _eps_floor(dtype) -> float:
    """Roundoff of a cancelling integrand's sum in dtype per unit of its L1
    size, 32 eps; roundoff is not truncation, and kernel_matrix returns NaN
    where this floor of the dtype its pass ran in misses tol."""
    return 32.0 * float(np.finfo(dtype).eps)


def _pass_dtype(chain: ChainParams, tol: float, floor64: float, span: int):
    """The dtype of a pass whose float64 roundoff floor is floor64 and whose
    Q_n reach degree span: float64 where floor64 stays _F64_MARGIN inside tol
    and the scales (q/p)^(n/2) (2(n + 1))^2, n <= span, which bound its values
    on the support (|Q_n| <= 2 (n + 1) (q/p)^(n/2) there), stay _F64_MARGIN
    inside float64's range; else longdouble."""
    log_peak = 0.5 * span * math.log(chain.q / chain.p) + 2.0 * math.log(2.0 * (span + 1))
    if _F64_MARGIN * floor64 <= tol and log_peak < _LOG_F64_ROOM:
        return np.float64
    return np.longdouble


def _series_floor(chain: ChainParams, t: int, n_cut: int, dtype) -> float:
    """tv_curve's roundoff floor in dtype at its least t: _eps_floor(dtype) (p/(q+r))
    sup |x^t f| on the support, f = (1/2) sum_{n <= n_cut} pi_n |Q_n|.  There
    |x|^t <= beta^t, taken no less than the dtype's least normal number, and
    |Q_n| <= (1 + r z) (n + 1) (q/p)^(n/2) (as |U_m| <= m + 1), z = sqrt(p/q),
    so f <= (1 + r z) (1 + S/p) / 2, S = sum_{n=1}^{N} (n + 1) z^n, summed where
    m (1 - z) < 1 (m = N + 1), else (z (2 - z) - z^m (1 + m (1 - z))) / (1 - z)^2,
    whose numerator stays above 1 - 2/e - (1 - z)^2: it cancels little."""
    p, q, r = chain.p, chain.q, chain.r
    z, m = math.sqrt(p / q), n_cut + 1
    if m * (1.0 - z) < 1.0:  # near z = 1 the closed form cancels
        terms = np.sum(np.arange(2, m + 1) * z ** np.arange(1, m)) / p
    else:
        terms = (z * (2.0 - z) - z ** m * (1.0 + m * (1.0 - z))) / (1.0 - z) ** 2 / p
    log_tiny = np.finfo(dtype).minexp * math.log(2.0)  # its least normal number is 2^minexp
    log_l1 = max(t * math.log(r + 2.0 * chain.sqrt_pq), log_tiny) \
        + math.log(0.5 + 0.5 * terms) + math.log(1.0 + r * z)
    try:
        return _eps_floor(dtype) * (p / (q + r)) * math.exp(log_l1)
    except OverflowError:  # an L1 past the double range
        return math.inf


def tv_quadrature(chain: ChainParams, ts, series_tol: float = 1e-12,
                  cfg: QuadratureConfig = None) -> tuple:
    """(cuts, K, bound, E1, E2, dtype): tv_curve's cutoffs {t: N_t} at series_tol
    over the ascending distinct ts, spectral.node_count's plan of its one pass
    for the integrand _SeriesSup describes, of degree d = max t + N_t, and its
    dtype, _pass_dtype's for _series_floor and degree d - t (so series_tol
    weighs in through the cutoff).  E1, E2 are rounded to it, and bound adds
    its floor.  ValueError unless series_tol > 0 and every t is at most the
    largest double (_double_times), RegimeError where _checked_support fails."""
    if not series_tol > 0.0:  # nan too
        raise ValueError("series_tol must be positive")
    ts = _double_times(_naturals(ts))
    _checked_support(chain)
    cutoff = _cutoff_rule(chain, bound_coefficients(chain), series_tol)
    cuts, near = {}, None
    for t in sorted(set(ts)):  # each t's N is the next one's guess
        near = cuts[t] = cutoff(t, near)[0]
    cfg = cfg or QuadratureConfig()
    least, n_cut = min(cuts), max(cuts.values())
    degree = max(t + n for t, n in cuts.items())
    n_nodes, bound, e1, e2 = node_count(chain, cfg, "tv_curve", _SeriesSup(chain, n_cut),
                                        least, degree=degree)
    floor = _series_floor(chain, least, n_cut, np.float64)
    dtype = _pass_dtype(chain, cfg.tol, floor, degree - least)
    if dtype is not np.float64:
        floor = _series_floor(chain, least, n_cut, dtype)
    return cuts, n_nodes, bound + floor, dtype(e1), dtype(e2), dtype


def tv_envelope(chain: ChainParams, ts) -> tuple:
    """(upper, lower, valid), lists over the times ts: the envelope
    A alpha^t + B beta^t, its lower twin A alpha^t - B beta^t, and whether that
    lower value is a bound on TV (alpha > beta and the value is positive).
    One coefficient lookup serves every t; each value is the same float
    expression at every t, however many times ts holds."""
    ts = _double_times(list(ts))
    if ts and min(ts) < 0:
        raise ValueError("t must be nonnegative")
    co = bound_coefficients(chain)
    A, B, alpha, beta = co.A, co.B, co.alpha, co.beta
    slow = [A * alpha ** t for t in ts]
    fast = [B * beta ** t for t in ts]
    lower = [a - b for a, b in zip(slow, fast)]
    return ([a + b for a, b in zip(slow, fast)], lower,
            [alpha > beta and value > 0.0 for value in lower])


def _double_times(ts) -> list:
    """ts, checked to be at most _T_DOUBLE, as the envelope and the series'
    tail bounds power at t as a double; else ValueError."""
    if ts and max(ts) > _T_DOUBLE:
        raise ValueError(f"t must be at most {float(_T_DOUBLE):.17g}, the largest double")
    return ts


def _log(value: float) -> float:
    """log value, -inf at 0."""
    return math.log(value) if value > 0.0 else -math.inf


def _first_below(values, limit: float, lo: int, hi: int, log_lo: float, rate: float) -> int:
    """Least t in (lo, hi] with values([t])[0] <= limit, for values non-increasing
    in t, above limit at lo and at or below it at hi (neither evaluated; log_lo
    estimates log values(lo), and rate in (0, 1) their decay per step).

    A safeguarded regula falsi on log values.  Each round is one values call
    on a pair (g - 1, g): the bracket shrinks to the side where they cross,
    or the crossing lies between them.  g is where a line reaches log limit:
    the line through the ends' log values once hi is evaluated, an end kept
    twice in a row having its distance to log limit halved (Illinois); before
    that, the line leaving lo with the slope the pair that last moved lo
    measured, log(at / before) where 0 < at < before, or log(rate) until a
    pair has.  A round that fails to halve the bracket is followed by a
    bisection round, so zeros (log -inf) or a badly shaped curve cost at most
    about twice bisection's rounds; but before a round along a measured slope
    only such a round that failed to bring lo closer to log limit forces one."""
    target = math.log(limit)
    f_lo, f_hi = log_lo - target, None  # log value less log limit at each end
    slope, measured = math.log(rate), False
    last, bisect = None, False  # the end moved last
    while hi - lo > 1:
        width, gap, steered = hi - lo, f_lo, False
        if bisect or (f_hi is not None and not f_lo > f_hi):
            g = (lo + hi + 1) // 2
        elif f_hi is None:
            g, steered = lo + max(f_lo, 0.0) / -slope, measured
        else:
            g = lo + width * (f_lo / (f_lo - f_hi))
        g = min(max(math.ceil(g), lo + 2), hi)
        before, at = values([g - 1, g])
        if before <= limit:
            hi, f_hi, moved = g - 1, _log(before) - target, "hi"
        elif at <= limit:
            return g
        else:
            lo, f_lo, moved = g, _log(at) - target, "lo"
            if 0.0 < at < before:
                slope, measured = math.log(at / before), True
        if moved == last == "hi":  # lo kept twice in a row
            f_lo *= 0.5
        elif moved == last == "lo" and f_hi is not None:
            f_hi *= 0.5
        last = moved
        if f_hi is None and measured:  # the next round follows a measured slope
            bisect = steered and not f_lo < gap
        else:
            bisect = 2 * (hi - lo) > width
    return hi


def t_mix(chain: ChainParams, eps: float, method: str = "exact") -> int:
    """Least t with TV(t) <= eps (method 'exact') or with the envelope
    A alpha^t + B beta^t <= eps (method 'bound', an upper bound on the exact
    answer), by _first_below.  Its bracket starts two steps (for roundoff)
    short of the closed-form time where (1/2) alpha^t <= TV(t) reaches eps,
    and ends a step past the time where each envelope term is below eps/2,
    or past the envelope's answer for TV (TV <= envelope); ConvergenceError
    past t = 1e7.  TV is summed with its quadrature and series tolerances
    both within eps * 1e-3, so every value compared with eps is certified
    to a thousandth of it (QuadratureError where that takes more than
    spectral.NODE_CAP nodes).  The lower end's value is estimated as
    A alpha^t where alpha > beta (TV -> A alpha^t, so the first round goes to
    the time where that reaches eps) and as (1/2) alpha^t elsewhere; later
    rounds follow the slope each pair measures."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if method not in ("exact", "bound"):
        raise ValueError(f"unknown method {method!r}")
    co = bound_coefficients(chain)
    hi = max(_geometric_depth(2.0 * co.A, co.alpha, math.log(eps)),
             _geometric_depth(2.0 * co.B, co.beta, math.log(eps))) + 2
    if hi > T_CAP:
        raise ConvergenceError(f"t_mix bracket exceeded 1e7 for eps={eps}; the bound below is "
                               "min(1, envelope) at t = 1e7",
                               min(1.0, tv_envelope(chain, [T_CAP])[0][0]))
    if eps * (1.0 - co.m) < 2.0 ** -1064:  # a step's decrement must span 2^10 subnormals
        raise ValueError(f"eps={eps} is too small for floats to resolve one step of TV")
    log_alpha = math.log(co.alpha)
    lo = max(-1, math.ceil(math.log(2.0 * eps) / log_alpha) - 2) if log_alpha < 0.0 else -1
    log_lo = math.log(co.A if co.alpha > co.beta else 0.5) + lo * log_alpha
    bound = _first_below(lambda ts: tv_envelope(chain, ts)[0], eps, lo, hi, log_lo, co.m)
    if method == "bound":
        return bound
    tol = min(1e-12, eps * 1e-3)
    cfg = QuadratureConfig(tol=min(QuadratureConfig.tol, eps * 1e-3))
    return _first_below(lambda ts: tv_curve(chain, ts, series_tol=tol, cfg=cfg), eps, lo,
                        bound + 1, log_lo, co.m)


def kernel_matrix(chain: ChainParams, ts, n_max: int, cfg: QuadratureConfig = None,
                  rows=None, cols=None) -> np.ndarray:
    """p_t(i, j) = pi_j * integral of lambda^t Q_i Q_j dpsi for every t of ts
    (in the given order), i in rows and j in cols, index sets in 0..n_max
    (each all of 0..n_max by default): shape (len(ts), len(rows), len(cols)).

    The one public quadrature route of the kernel's integrals (a single
    entry is rows=[i], cols=[j]).  One pass, its node count certifying every
    AC part within cfg.tol and sized for the largest i and j asked for,
    builds one Q_n matrix for every t; the AC parts are one product
    (Q[rows] w x^t) Q[cols]^T per batch of times.  The atoms add w1 and
    w2 loc2^t loc2^(i+j).  The pass runs in float64 where the entries' L1
    sizes, measured before it (_kernel_ac), let float64's floor meet cfg.tol.
    An entry whose roundoff floor pi_j _eps_floor(dtype) L1 in the dtype of
    its pass misses cfg.tol is NaN: far below the diagonal (pi_j Q_i Q_j grows
    like (q/p)^((i-j)/2)), and as p -> 0, where the AC interval narrows and
    the integrals cancel past extended precision."""
    ts, rows, cols = _kernel_args(ts, n_max, rows, cols)
    measure = build_measure(chain)
    cfg = cfg or QuadratureConfig()
    pi = reversibility(chain).pi(cols)
    (_, w1), (_, w2) = measure.atom1, measure.atom2
    ac, l1, atom, dtype = _kernel_ac(chain, ts, rows, cols, pi, cfg)
    # not <=: a floor of 0 * inf (l1 past the double range, pi_j subnormal) is NaN
    with np.errstate(invalid="ignore"):  # 0 * inf, masked to NaN here
        return np.where(~(pi * _eps_floor(dtype) * l1 <= cfg.tol), np.nan,
                        (ac + w1 + w2 * atom) * pi)


def _kernel_ac(chain: ChainParams, ts, rows, cols, pi, cfg: QuadratureConfig):
    """The quadrature core of the kernel: the AC parts (Q[rows] w x^t) Q[cols]^T,
    their L1 twins and the atom powers loc2^t loc2^(i+j), three arrays in the
    order of ts, and the dtype of the pass, from the Q_n rows of rows and cols
    on the nodes of one pass, a product per batch of times within _CELLS.  Its
    node count certifies every entry within cfg.tol by orthopoly.q_log_sup's
    bound on |Q_i Q_j| for the largest i and j asked for (degree max(ts) + i +
    j).  Each AC part is less the plan's E1 + E2 times its _atom_powers term
    (Q_n(1) = 1, Q_n(loc2) = loc2^n; 0.0 under the strip count), and its L1
    twin gains their moduli.  The rows are built once, in longdouble, and
    rounded once to float64 with the nodes and E1, E2; that set's L1 twins at
    the least t, where they are largest (|x_k|, |loc2| < 1), pick the dtype by
    _pass_dtype: float64 where _F64_MARGIN pi_j _eps_floor(float64) L1 meets
    cfg.tol at every entry (pi = pi_j over cols) and degree i + j keeps the
    values inside float64's range, else longdouble, on the rows as built."""
    i, j = int(max(rows)), int(max(cols))  # Python ints: t + i + j may pass 2^63
    n_nodes, _, e1, e2 = node_count(chain, cfg, "kernel_matrix", q_log_sup(chain, i, j),
                                    t=min(ts), degree=max(ts) + i + j)
    x, w, two_cos, _ = theta_nodes(chain, n_nodes, np.longdouble)
    degrees = sorted(set(rows.tolist()) | set(cols.tolist()))  # np.union1d imports numpy.ma
    q_rows = q_bracket_matrix(chain, degrees[-1], x, two_cos, degrees)
    left, right = (q_rows[np.searchsorted(degrees, s)] for s in (rows, cols))
    uniq = sorted(set(ts))
    atoms = _atom_powers(negative_atom(chain)[0], uniq, np.add.outer(rows, cols))
    ac, l1 = np.empty(atoms.shape), np.empty(atoms.shape)
    size = max(1, _CELLS // (left.size + atoms[0].size))  # times per batch
    with np.errstate(over="ignore", invalid="ignore"):  # inf, and inf * 0: longdouble or NaN
        wide = x, w, left, right, e1, e2
        x, w, left, right, e1, e2 = (*theta_nodes(chain, n_nodes, np.float64)[:2],
                                     left.astype(np.float64), right.astype(np.float64),
                                     np.float64(e1), np.float64(e2))
        first = np.matmul(np.abs(left) * np.abs(w * _node_power(x, uniq[0])), np.abs(right).T) \
            + (abs(e1) + np.abs(e2 * atoms[0]))
        dtype = _pass_dtype(chain, cfg.tol, (pi * first).max() * _eps_floor(np.float64), i + j)
        if dtype is np.longdouble:
            x, w, left, right, e1, e2 = wide
        moduli = np.abs(left), np.abs(right).T
        starts = range(0, len(uniq), size)
        for start, xt in zip(starts, _power_batches(x, (uniq[s:s + size] for s in starts))):
            batch = slice(start, start + size)
            wxt = w * xt[:, None]
            pole = e2 * atoms[batch]
            l1[batch] = np.matmul(moduli[0] * np.abs(wxt), moduli[1]) + (abs(e1) + np.abs(pole))
            ac[batch] = np.matmul(left * wxt, right.T) - (e1 + pole)
    at = np.asarray(uniq).searchsorted(ts)  # np.searchsorted wraps a list in a slower call
    return ac[at], l1[at], atoms[at], dtype

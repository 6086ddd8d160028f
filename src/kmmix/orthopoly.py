"""Eigenpolynomials Q_n of the reflecting walk.

Q_0 = 1, Q_1 = lambda, and the transition rows give the three-term recursion

    lambda Q_n = q Q_{n-1} + r Q_n + p Q_{n+1}        (n >= 1).

Its two characteristic roots have product q/p.  Dividing out that scale,
B_n = Q_n / (q/p)^(n/2) obeys the bracket recursion

    B_0 = 1,  B_1 = x / sqrt(q/p),  B_{n+1} = ((x - r)/sqrt(pq)) B_n - B_{n-1},

whose coefficient is 2 cos(theta) at x = r + 2 sqrt(pq) cos(theta).  On the
spectral support both of its modes have modulus one, so it is neutrally
stable: roundoff grows at most polynomially in n, the edges r +- 2 sqrt(pq)
(where the roots merge) included.  Off the support it follows the dominant
root, which carries Q_n there.  q_bracket_matrix, the one evaluator of Q_n
at points, runs it except at the atoms of the spectral measure, 1 and
-q/(q+r) (by _atoms, off the AC interval).  There the growing root's
coefficient vanishes and Q_n = lambda^n exactly; any recursion in floating
point re-excites that mode with roundoff, and its n-th power swamps the
true value, so q_bracket_matrix returns the closed form instead.

Sums of Q_n against weights g_k on the theta quadrature nodes, for every
degree up to some N at once, use the brackets in Chebyshev-U form instead.
With U_n = sin((n+1) theta)/sin(theta), U_{-1} = 0 and U_{-2} = -1, at
x = r + 2 sqrt(pq) cos(theta)

    B_n = p U_n + r sqrt(p/q) U_{n-1} - (1-p) U_{n-2}

exactly (it holds at n = 0, 1 and each U_n obeys the same recursion), so
sum_k B_n(theta_k) g_k needs only the sine sums
D[m] = sum_k sin(m theta_k) g_k / sin(theta_k).  At theta_k = k pi / K these
are one real FFT of length 2K per weight row, O(K log K) for all N degrees
against O(N K) for the bracket-matrix product.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainParams, _naturals, reversibility
from .spectral import negative_atom, theta_nodes

__all__ = ["q_bracket_matrix", "q_node_sums", "q_log_sup", "point_mass_summability"]

_PI_CHUNK = 1 << 16  # point_mass_summability's k per pi array: its memory is O(chunk) in n_trunc


def _sine_brackets(chain: ChainParams, s):
    """The U-form of the brackets: from s[..., m] = S_m, m = 0..N+1, the image
    of sin(m theta) under a map linear in it (so S_{-1} = -S_1), return
    p S_{n+1} + r sqrt(p/q) S_n - (1-p) S_{n-1} for n = 0..N.  With
    S_m = sin(m theta)/sin(theta) that is B_n(cos theta)."""
    dt = s.dtype.type
    p, q, r = dt(chain.p), dt(chain.q), dt(chain.r)
    below = np.concatenate([-s[..., 1:2], s[..., :-2]], axis=-1)
    return p * s[..., 1:] + r * np.sqrt(p / q) * s[..., :-1] - (1 - p) * below


def _sine_sums(h, m_max: int):
    """D[..., m] = sum_{k=1}^{K-1} sin(m k pi/K) h[..., k-1] for m = 0..m_max,
    where K - 1 = h.shape[-1]: D = -Im of one real FFT of length 2K per row,
    read past m = K through D's period 2K and its fold D[2K-m] = -D[m]."""
    n_panels = h.shape[-1] + 1
    padded = np.zeros(h.shape[:-1] + (n_panels,), dtype=h.dtype)
    padded[..., 1:] = h
    half = -np.fft.rfft(padded, n=2 * n_panels).imag  # m = 0..K
    if m_max > n_panels:
        half = np.concatenate([half, -half[..., -2:0:-1]], axis=-1)  # m = 0..2K-1
    return half[..., np.arange(m_max + 1) % (2 * n_panels)]


def _scales(chain: ChainParams, dt, n_max: int):
    """(q/p)^(n/2) in dtype dt at the degrees 0..n_max, read-only: a slice of
    one table per (chain, dtype) and power-of-two size, so passes over the
    same chain do not redo its powl per element."""
    return _scale_table(chain, dt, 1 << int(n_max).bit_length())[: n_max + 1]


@lru_cache(maxsize=32)
def _scale_table(chain: ChainParams, dt, size: int):
    # scalar powers: numpy's array power of float64 may differ in the last bit
    base = np.sqrt(dt(chain.q) / dt(chain.p))
    with np.errstate(over="ignore"):  # a degree past the double range reads inf
        table = np.array([base ** n for n in np.arange(size, dtype=dt)], dtype=dt)
    table.flags.writeable = False
    return table


def _atoms(chain: ChainParams, x):
    """Where x lies within 1e-13 of an atom, 1 or -q/(q+r): the one matching
    rule of q_bracket_matrix and point_mass_summability."""
    return np.minimum(np.abs(x - 1.0), np.abs(x - negative_atom(chain)[0])) <= 1e-13


def q_bracket_matrix(chain: ChainParams, n_max: int, x, two_cos=None, keep=None):
    """Q_n(x) for n = 0..n_max, or only at the degrees keep, strictly
    ascending in 0..n_max (else ValueError): the bracket recursion, two rows
    at a time, times (q/p)^(n/2) from _scales, at x as a 1-d array in
    longdouble if given so, else float64.  At an atom (_atoms) off the open
    AC interval, where two_cos = (x - r)/sqrt(pq) has |two_cos| >= 2, Q_n =
    x^n; inside it the recursion is stable.  At quadrature nodes pass
    theta_nodes' 2 cos(theta), as for p -> 0 the rounding of x loses it; no
    atom is matched where two_cos is given, as the nodes lie inside.  Shape
    (len(keep), len(x)), in x's dtype."""
    n_max = _naturals([n_max], "n_max")[0]
    keep = list(range(n_max + 1)) if keep is None else _naturals(keep, "keep")
    if keep[-1] > n_max or any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError(f"keep must be strictly ascending degrees in 0..{n_max}")
    x = np.atleast_1d(np.asarray(x))
    x = x if x.dtype == np.longdouble else x.astype(np.float64, copy=False)
    dt = x.dtype.type
    p, q, r = dt(chain.p), dt(chain.q), dt(chain.r)
    out = np.empty((len(keep), x.size), dtype=x.dtype)
    if two_cos is None:
        two_cos = (x - r) / np.sqrt(p * q)
        atom = (np.abs(two_cos) >= 2) & _atoms(chain, x)
        if atom.any():
            out[:, atom] = x[atom] ** np.array(keep)[:, None]
            out[:, ~atom] = q_bracket_matrix(chain, n_max, x[~atom], two_cos[~atom], keep)
            return out
    row = {n: k for k, n in enumerate(keep)}
    b_prev, b_n = np.ones_like(x), x / np.sqrt(q / p)  # B_0, B_1
    for n in range(keep[-1] + 1):
        if n >= 2:
            b_prev, b_n = b_n, two_cos * b_n - b_prev
        if n in row:
            out[row[n]] = b_n if n else b_prev
    out *= _scales(chain, dt, keep[-1])[keep, None]
    return out


def q_node_sums(chain: ChainParams, n_max: int, g):
    """sum_k Q_n(x_k) g[..., k] for n = 0..n_max, for each row of g, where x_k
    are the K - 1 = g.shape[-1] interior nodes of spectral.theta_nodes(chain,
    K), at the angles k pi / K that the FFT's twiddles also take: the sine
    transform of the U-form, one real FFT of length 2K per row, dividing by
    the sines sin(theta_k) theta_nodes returns, times (q/p)^(n/2) from the
    cached table of _scales.  The brackets are formed over one period 2K, read
    past it by index: B_{n+2K} = B_n exactly, the fold D[2K-1] = -D[1] of n = 0
    included.  Shape (..., n_max+1), in g's dtype."""
    g = np.asarray(g)
    dt, n_panels = g.dtype.type, g.shape[-1] + 1
    sines = theta_nodes(chain, n_panels)[3].astype(dt, copy=False)
    period = min(n_max + 1, 2 * n_panels)  # B_{n+2K} = B_n on the nodes
    brackets = _sine_brackets(chain, _sine_sums(g / sines, period))
    if period <= n_max:  # no copy within one period
        brackets = brackets[..., np.arange(n_max + 1) % period]
    return brackets * _scales(chain, dt, n_max)


def q_log_sup(chain: ChainParams, *degrees):
    """y -> log prod c g^n over degrees, bounding |prod Q_n| on |Im theta| <= y
    for spectral.node_count: there the U-form's |U_m| <= cosh((m+1) y) / sinh y
    and cosh((n+k) y) <= e^(ny) cosh(ky) give |Q_n| <= c g^n, with
    c = (cosh y + r sqrt(p/q)) / sinh y and g = sqrt(q/p) e^y.  The first two
    factors each take one sin(theta) of the weights' sin^2(theta) instead:
    sin(theta) U_m = sin((m+1) theta) gives |sin(theta) Q_n| <= (cosh y +
    r sqrt(p/q)) g^n, so such a factor drops its 1/sinh y and, as its c, divides
    out the cosh y that node_count's plan takes for that |sin(theta)|.  The
    bound depends on the degrees only through their count and sum, and is
    returned as that value (_QLogSup): products with equal count and sum hash
    equal and share node_count's cached plan."""
    return _QLogSup(chain, len(degrees), int(sum(degrees)))


@dataclass(frozen=True)
class _QLogSup:
    """q_log_sup's bound for `count` factors Q_n of total degree `total`."""

    chain: ChainParams
    count: int
    total: int

    def __call__(self, y):
        half_log = 0.5 * math.log(self.chain.q / self.chain.p)
        rs = self.chain.r * math.sqrt(self.chain.p / self.chain.q)
        sine_free = min(self.count, 2)  # the factors that take a sin(theta) of the weights
        return self.count * np.log(np.cosh(y) + rs) - sine_free * np.log(np.cosh(y)) \
            - (self.count - sine_free) * np.log(np.sinh(y)) + self.total * (half_log + y)

    def on_support(self) -> float:
        """The bound on the support, where |U_m| <= m + 1: |Q_n| <= (1 + r sqrt(p/q))
        (n + 1) (q/p)^(n/2), and prod (n + 1) <= (1 + total/count)^count."""
        rs = self.chain.r * math.sqrt(self.chain.p / self.chain.q)
        return self.count * math.log((1.0 + rs) * (1.0 + self.total / max(self.count, 1))) + \
            self.total * 0.5 * math.log(self.chain.q / self.chain.p)


def point_mass_summability(chain: ChainParams, lam: float, n_trunc: int) -> float:
    """Partial sum sum_{k <= n_trunc} pi_k Q_k(lambda)^2 at an atom of the
    spectral measure (lambda = 1 or -q/(q+r)); its limit is the reciprocal of
    the atom's weight.  At an atom Q_k(lambda) = lambda^k, so the terms are
    pi_k lambda^(2k)."""
    if not _atoms(chain, lam):
        raise ValueError(f"lambda must be an atom location (1.0 or {negative_atom(chain)[0]}), "
                         f"got {lam}")
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    rev = reversibility(chain)
    pis = (pk for start in range(0, n_trunc + 1, _PI_CHUNK)  # one pi array per chunk of k
           for pk in rev.pi(np.arange(start, min(start + _PI_CHUNK, n_trunc + 1))).tolist())
    return math.fsum(pk * lam ** (2 * k) for k, pk in enumerate(pis))

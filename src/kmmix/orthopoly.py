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
root, which carries Q_n there.  q_bracket_matrix runs it, the one
recursion for values of Q_n here: q_values reads its row n.

The one exception is the pair of atoms of the spectral measure, 1 and
-q/(q+r), where the growing root's coefficient vanishes and Q_n = lambda^n
exactly.  Any recursion in floating point re-excites that mode with
roundoff, and its n-th power swamps the true value, so there the closed form
is returned instead.

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

from .chain import ChainParams, reversibility
from .spectral import negative_atom, theta_nodes

__all__ = ["q_values", "q_bracket_matrix", "q_node_sums", "q_log_sup", "point_mass_summability"]


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


def q_values(chain: ChainParams, n: int, x):
    """Q_n over an array of points in [-1, 1]: row n of q_bracket_matrix,
    except at the two atoms (matched to 1e-13 relative), where Q_n = x^n.
    Longdouble input stays longdouble."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.atleast_1d(np.asarray(x))
    if x.dtype != np.dtype(np.longdouble):
        x = x.astype(np.float64)
    atom = np.zeros(x.shape, dtype=bool)
    for loc in (1.0, negative_atom(chain)[0]):
        atom |= np.abs(x - loc) <= 1e-13 * max(1.0, abs(loc))
    out = np.empty_like(x)
    out[atom] = x[atom] ** n
    if not atom.all():
        out[~atom] = q_bracket_matrix(chain, n, x[~atom], keep=[n])[0]
    return out


def q_bracket_matrix(chain: ChainParams, n_max: int, x, two_cos=None, keep=None):
    """Q_n(x) for n = 0..n_max, or only at the ascending degrees keep in
    0..n_max: the one bracket recursion, two rows at a time, times (q/p)^(n/2)
    from _scales.  two_cos, its coefficient (x - r)/sqrt(pq), is computed from
    x if not given; at quadrature nodes pass theta_nodes' 2 cos(theta), as
    for p -> 0 the rounding of x loses cos(theta).  No atom override (q_values
    has it).  Shape (len(keep), len(x)), in x's dtype."""
    x = np.asarray(x)
    keep = np.arange(n_max + 1) if keep is None else np.asarray(keep)
    top = int(keep[-1])
    row = {n: k for k, n in enumerate(keep.tolist())}
    dt = x.dtype.type
    p, q, r = dt(chain.p), dt(chain.q), dt(chain.r)
    two_cos = (x - r) / np.sqrt(p * q) if two_cos is None else two_cos
    out = np.empty((keep.size, x.size), dtype=x.dtype)
    b_prev, b_n = np.ones_like(x), x / np.sqrt(q / p)  # B_0, B_1
    for n in range(top + 1):
        if n >= 2:
            b_prev, b_n = b_n, two_cos * b_n - b_prev
        if n in row:
            out[row[n]] = b_n if n else b_prev
    out *= _scales(chain, dt, top)[keep, None]
    return out


def q_node_sums(chain: ChainParams, n_max: int, g):
    """sum_k Q_n(x_k) g[..., k] for n = 0..n_max, for each row of g, where x_k
    are the K - 1 = g.shape[-1] interior nodes of spectral.theta_nodes(chain,
    K), at the angles k pi / K that the FFT's twiddles also take: the sine
    transform of the U-form, one real FFT of length 2K per row, dividing by
    the sines sin(theta_k) theta_nodes returns, times (q/p)^(n/2) from the
    cached table of _scales.  Shape (..., n_max+1), in g's dtype."""
    g = np.asarray(g)
    dt = g.dtype.type
    sines = theta_nodes(chain, g.shape[-1] + 1)[3].astype(dt, copy=False)
    brackets = _sine_brackets(chain, _sine_sums(g / sines, n_max + 1))
    return brackets * _scales(chain, dt, n_max)


def q_log_sup(chain: ChainParams, *degrees):
    """y -> log prod c g^n over degrees, bounding |prod Q_n| on |Im theta| <= y
    for spectral.node_count: there the U-form's |U_m| <= cosh((m+1) y) / sinh y
    and cosh((n+k) y) <= e^(ny) cosh(ky) give |Q_n| <= c g^n, with
    c = (cosh y + r sqrt(p/q)) / sinh y and g = sqrt(q/p) e^y.  The bound
    depends on the degrees only through their count and sum, and is returned
    as that value (_QLogSup): products with equal count and sum hash equal
    and share node_count's cached plan."""
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
        return self.count * np.log((np.cosh(y) + rs) / np.sinh(y)) + self.total * (half_log + y)

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
    atoms = (1.0, negative_atom(chain)[0])
    if not any(abs(lam - a) <= 1e-12 for a in atoms):
        raise ValueError(f"lambda must be an atom location (one of {atoms}), got {lam}")
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    rev = reversibility(chain)
    return math.fsum(float(rev.pi(k)) * lam ** (2 * k) for k in range(n_trunc + 1))

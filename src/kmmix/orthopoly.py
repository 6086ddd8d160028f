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
root, which carries Q_n there.  It is the only way Q_n is computed here.

The one exception is the pair of atoms of the spectral measure, 1 and
-q/(q+r), where the growing root's coefficient vanishes and Q_n = lambda^n
exactly.  Any recursion in floating point re-excites that mode with
roundoff, and its n-th power swamps the true value, so there the closed form
is returned instead.
"""

import math

import numpy as np

from .chain import ChainParams, reversibility
from .spectral import negative_atom

__all__ = ["q_values", "q_bracket_matrix", "point_mass_summability"]


def _brackets(chain: ChainParams, n_max: int, x):
    """B_0, ..., B_{n_max} at x in x's dtype, one row at a time."""
    dt = x.dtype.type
    p, q, r = dt(chain.p), dt(chain.q), dt(chain.r)
    two_cos = (x - r) / np.sqrt(p * q)
    b_prev = np.ones_like(x)
    yield b_prev
    if n_max >= 1:
        b_cur = x / np.sqrt(q / p)
        yield b_cur
        for _ in range(n_max - 1):
            b_prev, b_cur = b_cur, two_cos * b_cur - b_prev
            yield b_cur


def _scale(chain: ChainParams, dt, n):
    """(q/p)^(n/2) in dtype dt, for a degree or an array of degrees."""
    return np.sqrt(dt(chain.q) / dt(chain.p)) ** n


def q_values(chain: ChainParams, n: int, x):
    """Q_n over an array of points in [-1, 1]: the bracket recursion, except
    at the two atoms (matched to 1e-13 relative), where Q_n = x^n.  Holds two
    rows at a time; longdouble input stays longdouble."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.atleast_1d(np.asarray(x))
    if x.dtype != np.dtype(np.longdouble):
        x = x.astype(np.float64)
    dt = x.dtype.type
    atom = np.zeros(x.shape, dtype=bool)
    for loc in (1.0, negative_atom(chain)[0]):
        atom |= np.abs(x - loc) <= 1e-13 * max(1.0, abs(loc))
    out = np.empty_like(x)
    out[atom] = x[atom] ** n
    if not atom.all():
        for b_n in _brackets(chain, n, x[~atom]):
            pass
        out[~atom] = _scale(chain, dt, dt(n)) * b_n
    return out


def q_bracket_matrix(chain: ChainParams, n_max: int, x):
    """Q_n(x) for all n = 0..n_max at once, by the bracket recursion times
    (q/p)^(n/2).  Meant for quadrature nodes: unlike q_values it has no atom
    override.  Shape (n_max+1, len(x)), in x's dtype."""
    x = np.asarray(x)
    dt = x.dtype.type
    out = np.empty((n_max + 1, x.size), dtype=x.dtype)
    for n, b_n in enumerate(_brackets(chain, n_max, x)):
        out[n] = b_n
    out *= _scale(chain, dt, np.arange(n_max + 1, dtype=dt))[:, None]
    return out


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

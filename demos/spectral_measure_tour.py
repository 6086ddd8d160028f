"""Tour of the walk's spectral measure.

Builds the worked example p = 1/11, q = 9/11, r = 1/11, prints its
stationary law, assembles the spectral measure (two atoms plus a density on
an interval), and checks the structural identities numerically:
normalization, orthogonality of the eigenpolynomials, the Stieltjes
transform against the resolvent corner entry, and the residue/atom-weight
match.
"""

import numpy as np

from kmmix import (ChainParams, build_measure, integrate_psi, point_mass_summability,
                   q_bracket_matrix, q_log_sup, residue_check, resolvent_a0, reversibility)

chain = ChainParams(1 / 11, 9 / 11, 1 / 11)
rev = reversibility(chain)

print("== chain ==")
print(f"p = {chain.p:.6f}, q = {chain.q:.6f}, r = {chain.r:.6f}")
print(f"reversibility mass rho = {rev.rho}  (stationary law nu = pi / rho)")
print("nu_0..nu_6:", np.round(np.asarray(rev.nu(np.arange(7))), 6))

print("\n== spectral measure ==")
measure = build_measure(chain)
print(f"atom at {measure.atom1[0]}: weight {measure.atom1[1]:.12f}  (= 1/rho)")
print(f"atom at {measure.atom2[0]}: weight {measure.atom2[1]:.12f}")
print(f"density support: ({measure.ac_interval[0]:.6f}, {measure.ac_interval[1]:.6f})")
ac_mass = integrate_psi(measure, lambda x: np.ones_like(x), atoms=False)
print(f"density mass = {ac_mass:.12f}  (closed form p/(q+r) = {chain.p/(chain.q+chain.r):.12f})")
total = measure.atom1[1] + measure.atom2[1] + ac_mass
print(f"total mass = {total:.15f}")

print("\n== atom weights three ways ==")
for loc, weight in (measure.atom1, measure.atom2):
    recip = 1.0 / point_mass_summability(chain, loc, 200)
    print(f"lambda = {loc:6.2f}: stored {weight:.12f}, "
          f"1/sum pi_k Q_k^2 = {recip:.12f}")
res1, res2 = residue_check(chain)
print(f"contour residues: ({res1:.12f}, {res2:.12f})")

print("\n== orthogonality spot check ==")
for (m, n) in ((0, 0), (3, 3), (7, 7), (0, 5), (2, 9)):
    # the node count is certified for the integrand's growth off the real
    # line, which q_log_sup bounds for a product of Q_n
    val = integrate_psi(measure,
                        lambda x: np.prod(q_bracket_matrix(chain, max(m, n), x)[[m, n]], axis=0),
                        log_sup=q_log_sup(chain, m, n))
    print(f"pi_{n} * int Q_{m} Q_{n} dpsi = {float(rev.pi(n)) * val: .2e}"
          f"   (target {1.0 if m == n else 0.0})")

print("\n== resolvent corner entry vs Stieltjes transform ==")
for s in (2j, 0.4 + 0.8j, -1.2 - 0.5j):
    direct = resolvent_a0(chain, s)
    transform = integrate_psi(measure, lambda x: 1.0 / (x - s), poles=[s])
    print(f"s = {s}: |case formula - transform| = {abs(direct - transform):.2e}")

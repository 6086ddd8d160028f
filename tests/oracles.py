"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: truncated transition matrices, direct
path enumeration, and exact pair-chain dynamic programming.  These share no
code with the package internals they are checking, except tv_by_bracket_matrix
and tv_curve_per_t: they take tv_curve's cutoffs, nodes and pole correction
and check only how the series is summed.
node_powers_stepwise (and so tv_curve_per_t) takes each jump x^gap by
binary_power, the package's power rule written out here apart from it, so
the package's node powers must match it bit for bit.
The *_by_steps DPs and evolve_fancy_index step the walk with fresh arrays and
fancy-index adds in the order the package's one DP step uses, so the package
must match them bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from kmmix import ChainParams, bound_coefficients, reversibility
from kmmix.mixing import tv_quadrature
from kmmix.orthopoly import q_bracket_matrix, q_node_sums
from kmmix.spectral import negative_atom, pole_errors, theta_nodes


def transition_matrix(chain: ChainParams, size: int) -> np.ndarray:
    """Truncated transition matrix on states 0..size-1 (top row leaks mass,
    so keep size well above any state reachable in the horizon)."""
    P = np.zeros((size, size))
    P[0, 1] = 1.0
    for n in range(1, size):
        P[n, n - 1] = chain.q
        if n + 1 < size:
            P[n, n + 1] = chain.p
        P[n, n] = chain.r
    return P


def law_after(chain: ChainParams, start: int, t: int, size: int) -> np.ndarray:
    mu = np.zeros(size)
    mu[start] = 1.0
    P = transition_matrix(chain, size)
    for _ in range(t):
        mu = mu @ P
    return mu


def q_exact(chain: ChainParams, n: int, lam) -> Fraction:
    """Q_n(lam) from Q_0 = 1, Q_1 = lam and lam Q_k = q Q_{k-1} + r Q_k +
    p Q_{k+1}, in exact rational arithmetic on the exact binary values of the
    float parameters and of lam."""
    p, q, r, x = (Fraction(*v.as_integer_ratio()) for v in (chain.p, chain.q, chain.r, lam))
    prev, cur = Fraction(1), x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, ((x - r) * cur - q * prev) / p
    return cur


def tv_by_matrix(chain: ChainParams, t: int, size: int = 400) -> float:
    """TV distance via the truncated matrix plus the closed stationary tail."""
    mu = law_after(chain, 0, t, size)
    rev = reversibility(chain)
    nu = np.asarray(rev.nu(np.arange(size)))
    return 0.5 * (np.abs(mu - nu).sum() + rev.nu_tail(size - 1))


def coupling_survival_dp(chain: ChainParams, horizon: int, synchronized: bool,
                         cap: int = 250) -> np.ndarray:
    """Exact survival curve of the coupling time for the classical
    (independent moves) or modified (shared moves away from 0) coupling,
    X_0 = 0 and Y_0 stationary.

    States above `cap` are lumped into a never-coupling bucket; within the
    horizon that mass cannot return, so the curve is exact up to the lumped
    mass (astronomically small for the chains used in tests)."""
    p, q, r = chain.p, chain.q, chain.r
    rev = reversibility(chain)
    surv = np.zeros(horizon + 1)
    lost = rev.nu_tail(cap)
    if synchronized:
        # gap freezes while both are positive: state (m, d), m = min, d = gap
        mass = np.zeros((cap + 1, cap + 1))
        dvals = np.arange(1, cap + 1)
        mass[0, 1:] = np.asarray(rev.nu(dvals))
        surv[0] = mass.sum() + lost
        for t in range(1, horizon + 1):
            new = np.zeros_like(mass)
            sub = mass[1:, :]                      # synchronized descent
            new[2:, :] += p * sub[:-1, :]
            new[1:, :] += r * sub
            new[0:-1, :] += q * sub
            lost += p * mass[cap, :].sum()
            b = mass[0, :]                         # boundary: lower jumps to 1
            new[1, 1:] += p * b[1:]                # upper up: gap unchanged
            new[1, 1:cap] += r * b[2:]             # upper holds: gap-1 (d=1 meets)
            new[0, 1] += q * b[1]                  # (0,1) -> (1,0): dance swap
            new[1, 1:cap - 1] += q * b[3:]         # upper down: gap-2 (d=2 meets)
            mass = new
            surv[t] = mass.sum() + lost
        return surv
    # classical: independent pair (x, y), kill on the diagonal
    mass = np.zeros((cap + 1, cap + 1))
    mass[0, 1:] = np.asarray(rev.nu(np.arange(1, cap + 1)))
    surv[0] = mass.sum() + lost
    for t in range(1, horizon + 1):
        new = np.zeros_like(mass)
        # independent moves: apply the 1-d stencil to each axis in turn
        stage = np.zeros_like(mass)
        stage[1, :] += mass[0, :]                  # x at 0 jumps to 1
        stage[2:, :] += p * mass[1:-1, :]
        stage[1:-1, :] += r * mass[1:-1, :]
        stage[0:-2, :] += q * mass[1:-1, :]
        lost += mass[-1, :].sum()                  # x at cap: lump
        new[:, 1] += stage[:, 0]                   # y at 0 jumps to 1
        new[:, 2:] += p * stage[:, 1:-1]
        new[:, 1:-1] += r * stage[:, 1:-1]
        new[:, 0:-2] += q * stage[:, 1:-1]
        lost += stage[:, -1].sum()
        np.fill_diagonal(new, 0.0)                 # meeting kills the pair
        mass = new
        surv[t] = mass.sum() + lost
    return surv


def counter_uniforms(seed: int, step: int, channel: int, replicas: int) -> np.ndarray:
    """The counter-based draws of replicas 0..replicas-1 at (step, channel):
    splitmix64's finalizer of seed + GOLDEN * (replica * 2^32 + 4 step +
    channel), top 53 bits over 2^53."""
    ctr = (np.arange(replicas, dtype=np.uint64) << np.uint64(32)) + np.uint64(4 * step + channel)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.uint64(0x9E3779B97F4A7C15) * ctr
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def coupling_survival_full(chain: ChainParams, horizon: int, replicas: int, seed: int,
                           synchronized: bool):
    """(survival, stderr) of the coupling simulation with every replica
    stepped on every step: all three move channels drawn for all replicas,
    and coupled pairs held in place by masking."""
    p, r = chain.p, chain.r

    def step(state, u):
        moved = state + (u < p).astype(np.int64) - (u >= p + r).astype(np.int64)
        return np.where(state == 0, 1, moved)

    y = reversibility(chain).sample_stationary(counter_uniforms(seed, 0, 3, replicas))
    x = np.zeros(replicas, dtype=np.int64)
    coupled = x == y
    counts = np.zeros(horizon + 1, dtype=np.int64)
    counts[0] = replicas - int(coupled.sum())
    for t in range(1, horizon + 1):
        u_shared, u_x, u_y = (counter_uniforms(seed, t, c, replicas) for c in (0, 1, 2))
        if synchronized:
            both_positive = (x > 0) & (y > 0)
            u_x = np.where(both_positive, u_shared, u_x)
            u_y = np.where(both_positive, u_shared, u_y)
        x = np.where(coupled, x, step(x, u_x))
        y = np.where(coupled, y, step(y, u_y))
        coupled |= x == y
        counts[t] = replicas - int(coupled.sum())
    survival = counts / float(replicas)
    return survival, np.sqrt(survival * (1.0 - survival) / replicas)


def log_slope(values: np.ndarray, t_lo: int, t_hi: int) -> float:
    """Least-squares slope of log(values[t]) over t_lo..t_hi."""
    t = np.arange(t_lo, t_hi + 1, dtype=float)
    y = np.log(values[t_lo:t_hi + 1])
    return float(np.polyfit(t, y, 1)[0])


def pole_parts_by_weights(chain: ChainParams, n_nodes: int) -> tuple:
    """(errors, integrals): the sums of the two pole parts of theta_nodes'
    weights, w ((r+q)x + q)/(r+2q) and w (1-x)(r+q)/(r+2q), less their
    integrals (2pq/(r+2q)) (a - s)/b^2, with a = p + q at the pole at 1 and
    a = r + q/(q+r) at -q/(q+r), b = 2 sqrt(pq) and s = sqrt(a^2 - b^2); and
    those integrals.  a and a^2 - b^2 are exact rationals on the binary
    parameter values, so s carries no cancellation of a - b."""
    p, q, r = (Fraction(*v.as_integer_ratio()) for v in (chain.p, chain.q, chain.r))
    ld = np.longdouble
    pl, ql, rl = ld(chain.p), ld(chain.q), ld(chain.r)
    x, w, two_cos, _ = theta_nodes(chain, n_nodes)
    one_less_x = (pl + ql) - np.sqrt(pl * ql) * two_cos  # theta_nodes' 1 - x
    errors, integrals = [], []
    for a, part in ((p + q, w * ((rl + ql) * x + ql) / (rl + 2 * ql)),
                    (r + q / (q + r), w * one_less_x * (rl + ql) / (rl + 2 * ql))):
        s = np.sqrt(ld(a * a - 4 * p * q))
        integrals.append(ld(2 * p * q / (r + 2 * q)) * (ld(a) - s) / (4 * pl * ql))
        errors.append(np.sum(part) - integrals[-1])
    return errors, integrals


def binary_power(x: np.ndarray, gap: int) -> np.ndarray:
    """x^gap elementwise by right-to-left binary powering, written out from the
    rule: the squares x, x^2, x^4, ... of gap's binary digits, listed from the
    lowest, and the product of those whose digit is 1, taken left to right
    (ones for gap = 0)."""
    squares = [x]
    for _ in bin(gap)[3:]:  # one square per digit past the leading one
        squares.append(squares[-1] * squares[-1])
    product = np.ones_like(x)
    for digit, square in zip(reversed(bin(gap)[2:]), squares):
        if digit == "1":
            product = product * square
    return product


def node_powers_stepwise(x: np.ndarray, ts):
    """(t, x^t) for the ascending ts, each power carried forward from the last
    by a fresh binary_power per step (x itself for a step of 1), with no reuse."""
    xt, t_prev = np.ones_like(x), 0
    for t in ts:
        xt = xt * (x if t - t_prev == 1 else binary_power(x, t - t_prev))
        t_prev = t
        yield t, xt


def loc2_power(loc2: float, t: int) -> float:
    """loc2^t (loc2 < 0) at a time t of any size: np.power at t as a double,
    with the sign (-1)^t of t itself, as the double of an odd t past 2^53 is
    even."""
    return math.copysign(np.power(loc2, float(t)), (-1.0) ** (t % 2))


def tv_by_bracket_matrix(chain: ChainParams, ts) -> list:
    """tv_curve's series at every t of ts, its AC parts (Q w x^t)_n, n <= N_t,
    taken as one product with the Q_n bracket matrix instead of by the sine
    transform: the same cutoffs N_t and node count, from tv_quadrature, the
    pole correction from pole_errors' closed form where that plan takes one
    (its E1, E2 are not read), the atom terms (w2 - E2) loc2^t loc2^n, and the
    same (1/2) nu_tail(t) where N_t = t, all in the plan's dtype."""
    cuts, n_nodes, _, *plan, dtype = tv_quadrature(chain, ts)
    e1, e2 = (dtype(e) for e in pole_errors(chain, n_nodes)) if any(plan) else (0.0, 0.0)
    x, w, two_cos, _ = theta_nodes(chain, n_nodes, dtype)
    q_rows = q_bracket_matrix(chain, max(cuts.values()), x, two_cos)
    loc2, w2 = negative_atom(chain)
    rev = reversibility(chain)
    values = {}
    for t, n_cut in cuts.items():
        n = np.arange(n_cut + 1)
        ac = (np.dot(q_rows[: n_cut + 1], w * np.power(x, t)) - e1).astype(float)
        pi_n = np.atleast_1d(rev.pi(n))
        atom = float(w2 - e2) * loc2_power(loc2, t) * loc2 ** n
        values[t] = math.fsum(0.5 * pi_n * np.abs(atom + ac)) + \
            (0.5 * rev.nu_tail(t) if n_cut == t else 0.0)
    return [values[t] for t in ts]


def tv_curve_per_t(chain: ChainParams, ts, series_tol=1e-12, cfg=None) -> list:
    """tv_curve's series summed one t at a time: the same cutoffs and nodes,
    pole_errors where that plan is corrected, then per t its own power x^t
    (node_powers_stepwise), its own sine transform to degree N_t, its own
    atom terms (w2 - E2) loc2^t loc2^n at every n <= N_t (loc2^t by
    loc2_power, a time of any size, then loc2^n), its own fsum of
    (1/2) pi_n |I_t(n)| and (1/2) nu_tail(t) where N_t = t.  It shares no
    batching with tv_curve, and runs in the dtype of its plan."""
    ts = list(ts)
    cuts, n_nodes, _, *plan, dtype = tv_quadrature(chain, ts, series_tol, cfg)
    e1, e2 = (dtype(e) for e in pole_errors(chain, n_nodes)) if any(plan) else (0.0, 0.0)
    rev = reversibility(chain)
    pi_vals = np.atleast_1d(rev.pi(np.arange(max(cuts.values()) + 1)))
    loc2, w2 = negative_atom(chain)
    x, w = theta_nodes(chain, n_nodes, dtype)[:2]
    values = {}
    for t, xt in node_powers_stepwise(x, list(cuts)):
        ac = q_node_sums(chain, cuts[t], (w * xt)[None])[0] - e1
        atom = float(w2 - e2) * loc2_power(loc2, t) * loc2 ** np.arange(cuts[t] + 1)
        i_tn = atom + ac.astype(float)
        values[t] = math.fsum(0.5 * pi_vals[: cuts[t] + 1] * np.abs(i_tn)) + \
            (0.5 * rev.nu_tail(t) if cuts[t] == t else 0.0)
    return [values[t] for t in ts]


PROBES = 15  # evaluations per round of first_below_probes


def first_below_probes(values, limit: float, lo: int, hi: int) -> int:
    """Least t in (lo, hi] with values([t])[0] <= limit, for values non-increasing
    in t and at or below limit at hi (not evaluated): rounds of one values(ts)
    call at PROBES evenly spaced times, each keeping the gap where they cross.
    The search t_mix used before its regula falsi, kept as a reference."""
    while hi - lo > 1:
        ts = sorted({lo + k * (hi - lo) // (PROBES + 1) for k in range(1, PROBES + 1)} - {lo})
        hi = min((t for t, v in zip(ts, values(ts)) if v <= limit), default=hi)
        lo = max((t for t in ts if t < hi), default=lo)
    return hi


def envelope_per_t(chain: ChainParams, t: int) -> tuple:
    """(upper, lower, valid) at one t, by the envelope's float expressions
    written out once for that t, from the package's bound_coefficients."""
    co = bound_coefficients(chain)
    lower = co.A * co.alpha ** t - co.B * co.beta ** t
    return co.A * co.alpha ** t + co.B * co.beta ** t, lower, (co.alpha > co.beta and lower > 0.0)


def evolve_fancy_index(chain: ChainParams, start, t: int):
    """(offset, mass) after t steps from start = (offset, mass), mass on the
    states offset, offset + 1, ..., one step at a time through fancy-index
    adds: the p, r and q terms added in that order into a zeroed vector, the
    reflecting 0 -> 1 move first."""
    p, q, r = chain.p, chain.q, chain.r
    lo, mass = start[0], np.array(start[1], dtype=float)
    for _ in range(t):
        hi = lo + mass.size - 1
        new_lo = max(lo - 1, 0)
        new = np.zeros(hi + 2 - new_lo)
        if lo == 0:
            new[1 - new_lo] += mass[0]
            body, s0 = mass[1:], 1
        else:
            body, s0 = mass, lo
        if body.size:
            j = np.arange(s0, hi + 1) - new_lo
            new[j + 1] += p * body
            new[j] += r * body
            new[j - 1] += q * body
        lo, mass = new_lo, new
    return lo, mass


def hitting_pmf_fancy_index(chain: ChainParams, n: int, k_max: int) -> np.ndarray:
    """P(tau = k | Y_0 = n), k <= k_max: one evolve_fancy_index step per k on
    the carried block, whose mass on state 0 is absorbed."""
    lo, mass = n, np.ones(1)
    pmf = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        lo, mass = evolve_fancy_index(chain, (lo, mass), 1)
        if lo == 0:
            pmf[k], lo, mass = mass[0], 1, mass[1:]
    return pmf


def stationary_survival_fancy_index(chain: ChainParams, horizon: int) -> np.ndarray:
    """P(tau > t), t <= horizon, for Y_0 stationary: one evolve_fancy_index
    step per t on states 1..horizon, the mass on 0 absorbed and the mass on
    horizon + 1 moved to a bucket that survives surely."""
    rev = reversibility(chain)
    mass = np.asarray(rev.nu(np.arange(1, horizon + 1)), dtype=float)
    bucket = rev.nu_tail(horizon)
    surv = np.zeros(horizon + 1)
    surv[0] = 1.0 - rev.nu(0)
    for t in range(1, horizon + 1):
        new = evolve_fancy_index(chain, (1, mass), 1)[1]  # on 0..horizon + 1
        bucket += new[-1]
        mass = new[1:-1]
        surv[t] = mass.sum() + bucket
    return surv


def tv_by_fraction(p: Fraction, q: Fraction, r: Fraction, t: int) -> Fraction:
    """TV distance at time t, started at the origin, of the chain with the
    rational parameters (p, q, r), exactly.  The DP runs in integers: with D a
    common denominator of p, q, r, the law mu_t times D^t is an integer vector.
    The stationary law nu_n = pi_n / rho and its tail above t are closed forms."""
    p, q, r = Fraction(p), Fraction(q), Fraction(r)
    if p + q + r != 1:
        raise ValueError("p + q + r must be 1")
    den = math.lcm(p.denominator, q.denominator, r.denominator)
    a, b, c = (int(v * den) for v in (p, q, r))
    mass = [1]  # D^t mu_t on states 0..t
    for _ in range(t):
        new = [0] * (len(mass) + 1)
        new[1] += den * mass[0]
        for j, m in enumerate(mass[1:], start=1):
            new[j + 1] += a * m
            new[j] += c * m
            new[j - 1] += b * m
        mass = new
    ratio, rho = p / q, (q - p + 1) / (q - p)
    nu = [1 / rho] + [ratio ** n / (p * rho) for n in range(1, t + 1)]
    tail = ratio ** t / (q - p) / rho
    scale = Fraction(den) ** t
    return (sum(abs(Fraction(m) / scale - v) for m, v in zip(mass, nu)) + tail) / 2


def kernel_by_steps(chain: ChainParams, t_max: int, n_max: int) -> np.ndarray:
    """p_t(i, j) for t <= t_max and i, j <= n_max, shape (t_max+1, n_max+1,
    n_max+1): from each point mass i, one evolve_fancy_index step per t, the
    mass at j read off the carried block (0 outside it)."""
    out = np.zeros((t_max + 1, n_max + 1, n_max + 1))
    for i in range(n_max + 1):
        lo, mass = i, np.ones(1)
        for t in range(t_max + 1):
            if t:
                lo, mass = evolve_fancy_index(chain, (lo, mass), 1)
            for j in range(max(lo, 0), min(lo + mass.size, n_max + 1)):
                out[t, i, j] = mass[j - lo]
    return out


def hitting_pmf_by_steps(chain: ChainParams, n: int, k_max: int) -> np.ndarray:
    """P(tau = k | Y_0 = n), k <= k_max, by forward DP on states 1..n+k_max+1
    with fresh arrays per step: q mass[1] leaves through the origin, then the
    r, p and q terms are added into a zeroed vector in that order."""
    p, q, r = chain.p, chain.q, chain.r
    mass = np.zeros(n + k_max + 2)  # states 1..top at indices 1..top
    mass[n] = 1.0
    pmf = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        pmf[k] = q * mass[1]
        new = np.zeros_like(mass)
        new[1:-1] += r * mass[1:-1]
        new[2:] += p * mass[1:-1]
        new[1:-2] += q * mass[2:-1]
        mass = new
    return pmf


def stationary_survival_by_steps(chain: ChainParams, horizon: int) -> np.ndarray:
    """P(tau > t), t <= horizon, for Y_0 stationary, by DP on states
    1..horizon with fresh arrays per step: the mass that starts or steps above
    horizon goes to a bucket that survives surely, q mass[1] is absorbed."""
    p, q, r = chain.p, chain.q, chain.r
    rev = reversibility(chain)
    mass = np.asarray(rev.nu(np.arange(1, horizon + 1)), dtype=float)
    bucket = rev.nu_tail(horizon)
    surv = np.zeros(horizon + 1)
    surv[0] = 1.0 - rev.nu(0)
    for t in range(1, horizon + 1):
        new = np.zeros_like(mass)
        new += r * mass
        new[1:] += p * mass[:-1]
        new[:-1] += q * mass[1:]
        bucket += p * mass[-1]
        mass = new
        surv[t] = mass.sum() + bucket
    return surv


def _cell(value) -> str:
    """A CSV cell as the CLI writes it: true/false, repr of a number
    (nan, inf and -inf for the non-finite floats), a string as it is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def csv_from_document(command: str, doc: dict) -> str:
    """The CLI's `--format csv` text of a job, rebuilt from the JSON document
    of the same job: the per-command column order, analyze's flat keys and
    couple's two comment lines, written one value at a time."""
    res = doc["results"]
    lines = []
    if command in ("analyze", "tmix"):
        if command == "analyze":
            pairs = [("rho", res["rho"])] + [(f"nu_{n}", v) for n, v in enumerate(res["nu"])]
            pairs += [(f"{atom}_{key}", res[atom][key]) for atom in ("atom1", "atom2")
                      for key in ("location", "weight")]
            pairs += list(zip(("ac_lo", "ac_hi"), res["ac_interval"]))
            pairs += [(key, res[key]) for key in
                      ("int_phi", "int_phi_closed", "A", "B", "alpha", "beta", "m")]
        else:
            pairs = [(key, res[key]) for key in ("eps", "t_mix_exact", "t_mix_bound")]
        header, rows = ("key", "value"), pairs
    elif command == "couple":
        lines.append(f"# mode={res['mode']} replicas={res['replicas']} seed={doc['meta']['seed']}")
        if res["fitted_rate"] is None:
            lines.append(f"# fitted_rate=unavailable ({res['fit_error']})")
        else:
            lo, hi = res["window"]
            lines.append(f"# fitted_rate={_cell(res['fitted_rate'])} "
                         f"stderr={_cell(res['fitted_rate_stderr'])} window={lo}..{hi}")
        header = ("t", "survival", "stderr")
        rows = [(t, s, e) for t, (s, e) in enumerate(zip(res["survival"], res["stderr"]))]
    else:
        header, table = {
            "tv": (("t", "tv_exact", "tv_oracle", "tv_upper", "tv_lower", "lower_valid"), "rows"),
            "kernel": (("t", "p_spectral", "p_oracle", "abs_diff"), "rows"),
            "verify": (("name", "passed", "worst"), "checks"),
        }[command]
        rows = [[row[key] for key in header] for row in res[table]]
    lines.append(",".join(header))
    lines += [",".join(_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"

"""Command-line front end: analysis, verification and simulation with
machine-readable output (JSON or CSV, byte-identical for a fixed
configuration).

Exit codes: 0 success, 1 internal/convergence failure, 2 usage or parameter
validation error.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .chain import ChainParams, DistributionVector, evolve, reversibility, tv_oracle_curve, \
    drift_identity_residual
from .coupling import rate_fit, simulate_classical, simulate_modified
from .mixing import T_CAP, ConvergenceError, RouteDisagreement, TailControl, \
    bound_coefficients, kernel_matrix, spectral_integral, t_mix, tv_curve, \
    tv_lower, tv_quadrature, tv_upper
from .orthopoly import point_mass_summability
from .spectral import QuadratureConfig, QuadratureError, RegimeError, build_measure, \
    integrate_psi, residue_check, resolvent_a0

# fixed default seed for reproducible simulation output
DEFAULT_SEED = 11

__all__ = ["main", "DEFAULT_SEED"]


def _parse_real(text: str) -> Fraction:
    """Accept plain decimals and exact fractions like 1/11."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse number {text!r}: {exc}") from None


def _to_float(name: str, value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is outside the float range") from None


def _chain_from_args(args) -> ChainParams:
    p = _parse_real(args.p)
    q = _parse_real(args.q)
    r = _parse_real(args.r) if args.r is not None else Fraction(1) - p - q
    return ChainParams(p=_to_float("p", p), q=_to_float("q", q), r=_to_float("r", r))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _emit(text: str, output: str):
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _csv(table) -> list:
    """CSV lines of a key/value dict, or of a list of row dicts with the
    header taken from the first row's keys."""
    if isinstance(table, dict):
        return ["key,value"] + [f"{key},{_fmt(value)}" for key, value in table.items()]
    return [",".join(table[0])] + [",".join(map(_fmt, row.values())) for row in table]


def _emit_doc(args, chain, results, table, comments=()):
    """The JSON document of results, or comment lines and table as CSV."""
    if args.format == "json":
        doc = {
            "params": {"p": chain.p, "q": chain.q, "r": chain.r},
            "results": results,
            "meta": {"version": __version__, "seed": args.seed,
                     "quad_nodes": _quad_cfg(args).node_count},
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    else:
        _emit("\n".join([*comments, *_csv(table)]) + "\n", args.output)


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    return value


def _size(flag: str, value: int) -> int:
    """A count that sizes a time or state list: nonnegative and at most
    T_CAP, checked before the list is built."""
    if _nonnegative(flag, value) > T_CAP:
        raise ValueError(f"{flag} must be at most 1e7, the cap of the t_mix search")
    return value


_CAPPED = " (at most 1e7, the cap of the t_mix search)"  # help text of _size's flags


def _quad_cfg(args) -> QuadratureConfig:
    """The --quad-nodes override, or None (the bound picks each count)."""
    return QuadratureConfig(node_count=getattr(args, "quad_nodes", None))


def _cmd_analyze(args):
    chain = _chain_from_args(args)
    _size("--states", args.states)
    rev = reversibility(chain)
    measure = build_measure(chain)
    co = bound_coefficients(chain)
    cfg = _quad_cfg(args)
    int_phi = integrate_psi(measure, lambda x: np.ones_like(x),
                            include_atoms=(False, False), cfg=cfg)
    nu = rev.nu(np.arange(args.states + 1)).tolist()
    atoms = {"atom1": {"location": measure.atom1[0], "weight": measure.atom1[1]},
             "atom2": {"location": measure.atom2[0], "weight": measure.atom2[1]}}
    rest = {"int_phi": int_phi, "int_phi_closed": chain.p / (chain.q + chain.r),
            "A": co.A, "B": co.B, "alpha": co.alpha, "beta": co.beta, "m": co.m}
    results = {"rho": rev.rho, "nu": nu, **atoms, "ac_interval": list(measure.ac_interval),
               **rest}
    flat = {"rho": rev.rho, **{f"nu_{n}": v for n, v in enumerate(nu)},
            **{f"{atom}_{key}": v for atom, d in atoms.items() for key, v in d.items()},
            "ac_lo": measure.ac_interval[0], "ac_hi": measure.ac_interval[1],
            **rest} if args.format == "csv" else None
    _emit_doc(args, chain, results, flat)
    return 0


def _cmd_tv(args):
    chain = _chain_from_args(args)
    t_max = _size("--t-max", args.t_max)
    ctl = TailControl(series_tol=args.series_tol)
    cfg = _quad_cfg(args)
    ts = range(t_max + 1)
    exact = tv_curve(chain, ts, ctl=ctl, cfg=cfg)
    oracle = tv_oracle_curve(chain, t_max)
    rows = []
    for t in ts:
        lower, valid = tv_lower(chain, t)
        rows.append({
            "t": t,
            "tv_exact": exact[t],
            "tv_oracle": oracle[t],
            "tv_upper": tv_upper(chain, t),
            "tv_lower": lower,
            "lower_valid": bool(valid),
        })
    _emit_doc(args, chain, {"rows": rows}, rows)
    return 0


def _cmd_tmix(args):
    chain = _chain_from_args(args)
    exact = t_mix(chain, args.eps, method="exact")
    bound = t_mix(chain, args.eps, method="bound")
    results = {"eps": args.eps, "t_mix_exact": exact, "t_mix_bound": bound}
    _emit_doc(args, chain, results, results)
    return 0


def _cmd_kernel(args):
    chain = _chain_from_args(args)
    t_max = _size("--t-max", args.t_max)
    i, j = _nonnegative("--i", args.i), _nonnegative("--j", args.j)
    kernel = kernel_matrix(chain, range(t_max + 1), max(i, j), cfg=_quad_cfg(args),
                           rows=[i], cols=[j])[:, 0, 0]
    if np.isnan(kernel).any():
        raise RegimeError(f"p_t({i}, {j}) cannot be certified: its roundoff floor "
                          "exceeds the quadrature tolerance")
    mu = DistributionVector.point(i)
    rows = []
    for t in range(t_max + 1):
        if t > 0:
            mu = evolve(chain, mu, 1)
        oracle = mu.prob(j)
        spectral = float(kernel[t])
        rows.append({"t": t, "p_spectral": spectral, "p_oracle": oracle,
                     "abs_diff": abs(spectral - oracle)})
    _emit_doc(args, chain, {"i": args.i, "j": args.j, "rows": rows}, rows)
    return 0


def _cmd_couple(args):
    chain = _chain_from_args(args)
    simulate = simulate_modified if args.mode == "modified" else simulate_classical
    curve = simulate(chain, args.horizon, args.replicas, args.seed)
    window = (args.window_lo, args.window_hi if args.window_hi is not None else args.horizon)
    fit_error = None
    try:
        fit = rate_fit(curve, window)
        rate, rate_se = fit.rate, fit.stderr
    except ValueError as exc:
        fit_error, rate, rate_se = str(exc), None, None
    results = {
        "mode": args.mode,
        "horizon": args.horizon,
        "replicas": args.replicas,
        "window": list(window),
        "fitted_rate": rate,
        "fitted_rate_stderr": rate_se,
        "fit_error": fit_error,
        "survival": [float(v) for v in curve.survival],
        "stderr": [float(v) for v in curve.stderr],
    }
    lines = [f"# mode={args.mode} replicas={args.replicas} seed={args.seed}"]
    if rate is None:
        lines.append(f"# fitted_rate=unavailable ({fit_error})")
    else:
        lines.append(f"# fitted_rate={_fmt(rate)} stderr={_fmt(rate_se)} "
                     f"window={window[0]}..{window[1]}")
    table = [{"t": t, "survival": curve.survival[t], "stderr": curve.stderr[t]}
             for t in range(args.horizon + 1)]
    _emit_doc(args, chain, results, table, lines)
    return 0


def _verify_checks(chain, cfg):
    """Invariant suite; yields (name, passed, worst_value) triples."""
    rev = reversibility(chain)
    measure = build_measure(chain)
    co = bound_coefficients(chain)

    n = np.arange(0, 101)
    pi = np.atleast_1d(rev.pi(n))
    balance = np.abs(pi[:-1] * np.where(n[:-1] == 0, 1.0, chain.p) - pi[1:] * chain.q)
    yield "detailed_balance_n_le_100", float(balance.max()) <= 1e-12, float(balance.max())

    total = evolve(chain, DistributionVector.point(0), 300).total()
    yield "evolve_mass_conservation_t300", abs(total - 1.0) <= 1e-12, abs(total - 1.0)

    tvs = tv_oracle_curve(chain, 120)
    mono = max(b - a for a, b in zip(tvs, tvs[1:]))
    yield "tv_oracle_nonincreasing_t120", mono <= 1e-15, mono

    norm = integrate_psi(measure, lambda x: np.ones_like(x), cfg=cfg)
    yield "psi_normalization", abs(norm - 1.0) <= 1e-10, abs(norm - 1.0)

    ac = integrate_psi(measure, lambda x: np.ones_like(x), include_atoms=(False, False), cfg=cfg)
    err = abs(ac - chain.p / (chain.q + chain.r))
    yield "ac_mass_p_over_q_plus_r", err <= 1e-10, err

    # p_0(m, n) = pi_n integral of Q_m Q_n dpsi, the orthonormality relations
    worst = float(np.max(np.abs(kernel_matrix(chain, [0], 8, cfg=cfg)[0] - np.eye(9))))
    yield "orthogonality_deg_le_8", worst <= 1e-8, worst

    dp = np.empty((21, 5, 5))
    for i in range(5):
        mu = DistributionVector.point(i)
        for t in range(21):
            if t > 0:
                mu = evolve(chain, mu, 1)
            dp[t, i] = [mu.prob(j) for j in range(5)]
    # np.max, not max: a NaN (uncertified) entry must fail the check
    worst = float(np.max(np.abs(kernel_matrix(chain, range(21), 4, cfg=cfg) - dp)))
    yield "kernel_vs_oracle_t20", worst <= 1e-9, worst

    exact = tv_curve(chain, range(61), cfg=cfg)
    worst = max(abs(x - o) for x, o in zip(exact[:41], tvs))
    yield "tv_exact_vs_oracle_t40", worst <= 1e-8, worst

    # the change from K to 2K nodes against the a-priori bounds at both, plus
    # float64 roundoff of the partial sums
    k, bound = tv_quadrature(chain, range(61), cfg=cfg)[1:]
    wide = QuadratureConfig(node_count=2 * k, tol=cfg.tol)
    bound += tv_quadrature(chain, range(61), cfg=wide)[2] + 1e-14
    worst = max(abs(a - b) for a, b in zip(exact, tv_curve(chain, range(61), cfg=wide)))
    yield "quadrature_bound_k_vs_2k", worst <= bound, worst

    ok = True
    for t, tvx in enumerate(exact):
        upper = tv_upper(chain, t)
        lower, valid = tv_lower(chain, t)
        # the envelope gap 2 B beta^t can sit below double roundoff of the
        # alpha-scale terms; allow that much float slack
        slack = 1e-12 * max(upper, 1e-300)
        if tvx > upper + slack or (valid and tvx < lower - slack):
            ok = False
    yield "tv_sandwich_t60", ok, float(not ok)

    worst = max(abs(drift_identity_residual(chain, x)) / (chain.q / chain.p) ** (x / 2.0)
                for x in range(51))
    yield "drift_identity_x_le_50", worst <= 1e-12, worst

    res = residue_check(chain)
    err = max(abs(res[0] - measure.atom1[1]), abs(res[1] - measure.atom2[1]))
    yield "residues_equal_atom_weights", err <= 1e-8, err

    worst = 0.0
    for s in (2j, 0.5 + 0.7j, -0.3 - 1.1j, 3.0 + 0.25j):
        direct = resolvent_a0(chain, s)
        transform = integrate_psi(measure, lambda x, s=s: 1.0 / (x - s), cfg=cfg, poles=[s])
        worst = max(worst, abs(direct - transform))
    yield "resolvent_stieltjes_consistency", worst <= 1e-8, worst

    ok, worst = True, 0.0
    try:
        for t in (0, 3, 10, 25):
            for deg in (0, 2, 7, 15):
                spectral_integral(chain, t, deg, route="both", cfg=cfg)
    except RouteDisagreement as exc:
        ok, worst = False, abs(exc.values[0] - exc.values[1])
    yield "spectral_integral_route_equivalence", ok, worst

    # series ratio at the atom of slowest decay is p/q; pick the truncation
    # so the certified geometric remainder sits below the tolerance
    depth = math.log(1e-11 * (chain.q - chain.p)) / math.log(chain.p / chain.q)
    n_sum = int(min(50_000, max(60, math.ceil(depth) + 5)))
    err = 0.0
    for loc, weight in (measure.atom1, measure.atom2):
        err = max(err, abs(1.0 / point_mass_summability(chain, loc, n_sum) - weight))
    yield "atom_weight_summability", err <= 1e-9, err


def _cmd_verify(args):
    chain = _chain_from_args(args)
    cfg = _quad_cfg(args)
    checks = [{"name": name, "passed": bool(passed), "worst": float(worst)}
              for name, passed, worst in _verify_checks(chain, cfg)]
    all_passed = all(c["passed"] for c in checks)
    _emit_doc(args, chain, {"checks": checks, "all_passed": all_passed}, checks)
    return 0 if all_passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kmmix",
        description="Mixing-time analysis of the reflecting nearest-neighbor "
                    "walk via its spectral measure.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", required=True, help="up-step probability (decimal or a/b)")
        sp.add_argument("--q", required=True, help="down-step probability (decimal or a/b)")
        sp.add_argument("--r", default=None, help="hold probability; 1-p-q when omitted")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default="-", help="output path, - for stdout")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sp = sub.add_parser("analyze", help="stationary law, spectral measure, bound constants")
    common(sp)
    sp.add_argument("--states", type=int, default=10,
                    help="emit nu_0..nu_states" + _CAPPED)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("tv", help="TV distance table: exact, oracle and bounds")
    common(sp)
    sp.add_argument("--series-tol", type=float, default=1e-12, dest="series_tol")
    sp.add_argument("--t-max", type=int, default=60, dest="t_max",
                    help="last time of the table" + _CAPPED)
    sp.set_defaults(func=_cmd_tv)

    sp = sub.add_parser("tmix", help="mixing time, exact and bound-based")
    common(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.set_defaults(func=_cmd_tmix)

    sp = sub.add_parser("kernel", help="p_t(i,j): spectral vs exact dynamic programming")
    common(sp)
    sp.add_argument("--i", type=int, default=0)
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--t-max", type=int, default=30, dest="t_max",
                    help="last time of the table" + _CAPPED)
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("couple", help="Monte Carlo coupling survival curve")
    common(sp)
    sp.add_argument("--mode", choices=("classical", "modified"), default="modified")
    sp.add_argument("--horizon", type=int, default=100)
    sp.add_argument("--replicas", type=int, default=100_000)
    sp.add_argument("--window-lo", type=int, default=20, dest="window_lo")
    sp.add_argument("--window-hi", type=int, default=None, dest="window_hi")
    sp.set_defaults(func=_cmd_couple)

    sp = sub.add_parser("verify", help="run the invariant suite; nonzero exit on failure")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    # only the commands that integrate against psi read the node count
    for name in ("analyze", "tv", "kernel", "verify"):
        sub.choices[name].add_argument("--quad-nodes", type=int, dest="quad_nodes", help=(
            "nodes of every quadrature pass (default: the least count whose bound meets "
            "the tolerance); exit 1 where the bound at this count misses it"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"kmmix: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ConvergenceError, RouteDisagreement, RegimeError) as exc:
        print(f"kmmix: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: analysis, verification and simulation with
machine-readable output (JSON or CSV, byte-identical for a fixed
configuration).

Exit codes: 0 success, 1 internal/convergence failure, 2 usage or parameter
validation error.
"""

import argparse
import math
import sys
from fractions import Fraction
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .chain import ChainParams, _power, kernel_oracle, reversibility, tv_oracle_curve, \
    drift_identity_residual
from .coupling import rate_fit, simulate_classical, simulate_modified
from .mixing import T_CAP, ConvergenceError, bound_coefficients, kernel_matrix, \
    spectral_integral, t_mix, tv_curve, tv_envelope, tv_quadrature
from .orthopoly import point_mass_summability
from .spectral import NODE_CAP, QuadratureConfig, QuadratureError, RegimeError, \
    build_measure, integrate_psi, residue_check, resolvent_a0

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


class Table(dict):
    """Named columns of equal length, in CSV column order: JSON writes a table
    as its list of row objects, CSV as its header and one line per row."""


# float.__repr__ of the non-finite floats, and the tokens json writes for them
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the text of a str, bool, int or float value, by its exact type
_SCALARS = {str: encode_basestring_ascii, bool: {True: "true", False: "false"}.__getitem__,
            int: int.__repr__, float: float.__repr__}


def _csv(table) -> list:
    """CSV lines of a table, or of a flat dict as a key/value table."""
    if type(table) is dict:
        table = Table(key=list(table), value=list(table.values()))
    return [",".join(table), *map(",".join, zip(*map(_cells, table.values())))]


def _cells(column) -> list:
    """A CSV column's cells: true or false for a bool, else str (repr for a float)."""
    if bool in set(map(type, column)):
        return [_SCALARS[bool](value) if type(value) is bool else str(value) for value in column]
    return list(map(str, column))


def _json(doc) -> str:
    """The text json.dumps(doc, indent=2, sort_keys=True) writes, byte for
    byte, for a doc of str-keyed dicts, lists and Tables (each as its list of
    row objects) over values of exact type str, None, bool, int or float;
    anything else raises TypeError.  json's indented encoder takes one
    generator step per token: here containers are written by hand, and a
    list, dict or column of one exact scalar type is one map of its
    converter.  A Table's rows are one % template per row."""
    return _value(doc, "\n")


def _value(value, nl: str) -> str:
    """One value's text at the indentation nl (a newline and its spaces)."""
    kind = type(value)
    if kind in _SCALARS:
        text = _SCALARS[kind](value)
        return _NONFINITE.get(text, text)
    if value is None:
        return "null"
    if kind is list:
        return _container("[", _texts(value, nl + "  "), nl, "]") if value else "[]"
    if kind is dict:
        return _dict(value, nl) if value else "{}"
    if kind is Table:
        return _table(value, nl)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _container(opening: str, texts, nl: str, closing: str) -> str:
    inner = nl + "  "
    return opening + inner + ("," + inner).join(texts) + nl + closing


def _dict(d: dict, nl: str) -> str:
    keys = sorted(d)  # a key that is not a str: TypeError here or in encode_basestring_ascii
    values = _texts(list(map(d.__getitem__, keys)), nl + "  ")
    return _container("{", map("%s: %s".__mod__, zip(map(encode_basestring_ascii, keys), values)),
                      nl, "}")


def _texts(values, nl: str) -> list:
    """The texts of a list's items, a dict's values or a Table column at the
    indentation nl, converted a column at a time where their exact type is
    uniform."""
    kinds = set(map(type, values))
    convert = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    if convert is None:
        return [_value(value, nl) for value in values]
    texts = list(map(convert, values))
    if convert is float.__repr__ and not _NONFINITE.keys().isdisjoint(texts):
        texts = [_NONFINITE.get(text, text) for text in texts]
    return texts


def _table(table: Table, nl: str) -> str:
    """A Table's list of row objects: one % template per row, filled from
    the converted columns."""
    keys = sorted(table)
    inner = nl + "  "
    template = _container("{", (encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                                for key in keys), inner, "}")
    rows = list(map(template.__mod__, zip(*(_texts(table[key], inner + "  ") for key in keys))))
    return _container("[", rows, nl, "]") if rows else "[]"


def _emit_doc(args, chain, results, table, comments=()):
    """The JSON document of results, or comment lines and table as CSV, to
    stdout or the --output path."""
    if args.format == "json":
        text = _json({"params": {"p": chain.p, "q": chain.q, "r": chain.r}, "results": results,
                      "meta": {"version": __version__, "seed": args.seed,
                               "quad_nodes": getattr(args, "quad_nodes", None)}}) + "\n"
    else:
        text = "\n".join([*comments, *_csv(table)]) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    return value


# The largest value of each flag that sizes a list, and why: (cap, reason).
_T_LIMIT = (T_CAP, "1e7, the cap of the t_mix search")
# a curve of 1e6 steps already takes about 1.1 s and 0.24 GB (2-vCPU Xeon), mostly its output
_HORIZON_LIMIT = (10 ** 6, "1e6, as the curve's time and memory grow with it")


def _size(flag: str, value: int, limit=_T_LIMIT) -> int:
    """A count that sizes a time or state list: nonnegative and at most the
    limit's cap, checked before the list is built."""
    cap, reason = limit
    if _nonnegative(flag, value) > cap:
        raise ValueError(f"{flag} must be at most {reason}")
    return value


_CAPPED = f" (at most {_T_LIMIT[1]})"  # help text of _size's flags


def _quad_cfg(args) -> QuadratureConfig:
    """The --quad-nodes override, or None (the bound picks each count)."""
    nodes = args.quad_nodes
    if nodes is not None and not 16 <= nodes <= NODE_CAP:
        raise ValueError("--quad-nodes must be at most 2^16, the node cap of one quadrature "
                         "pass, and at least 16")
    return QuadratureConfig(node_count=nodes)


def _cmd_analyze(args):
    chain = _chain_from_args(args)
    _size("--states", args.states)
    rev = reversibility(chain)
    measure = build_measure(chain)
    co = bound_coefficients(chain)
    cfg = _quad_cfg(args)
    int_phi = integrate_psi(measure, lambda x: np.ones_like(x), atoms=False, cfg=cfg)
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
    if not args.series_tol > 0.0:  # nan too
        raise ValueError("--series-tol must be positive")
    ts = range(t_max + 1)
    exact = tv_curve(chain, ts, series_tol=args.series_tol, cfg=_quad_cfg(args))
    upper, lower, valid = tv_envelope(chain, ts)
    rows = Table(t=list(ts), tv_exact=exact, tv_oracle=tv_oracle_curve(chain, t_max),
                 tv_upper=upper, tv_lower=lower, lower_valid=valid)
    _emit_doc(args, chain, {"rows": rows}, rows)
    return 0


def _cmd_tmix(args):
    chain = _chain_from_args(args)
    if not 0.0 < args.eps < 1.0:  # nan too
        raise ValueError("--eps must lie in (0, 1)")
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
    if np.isnan(kernel).any():  # kernel_matrix's mark of a roundoff floor past the tolerance
        raise RegimeError(f"p_t({i}, {j}) cannot be certified: its roundoff floor exceeds the "
                          "quadrature tolerance")
    oracle = kernel_oracle(chain, range(t_max + 1), max(i, j), rows=[i], cols=[j])[:, 0, 0]
    rows = Table(t=list(range(t_max + 1)), p_spectral=kernel.tolist(), p_oracle=oracle.tolist(),
                 abs_diff=np.abs(kernel - oracle).tolist())
    _emit_doc(args, chain, {"i": args.i, "j": args.j, "rows": rows}, rows)
    return 0


def _cmd_couple(args):
    chain = _chain_from_args(args)
    simulate = simulate_modified if args.mode == "modified" else simulate_classical
    horizon = _size("--horizon", args.horizon, _HORIZON_LIMIT)
    # peak memory grows by about 38 B per replica: 1e7 replicas take about 0.41 GB
    replicas = _size("--replicas", args.replicas, (10 ** 7, "1e7, as memory grows with it"))
    curve = simulate(chain, horizon, replicas, args.seed)
    window = (args.window_lo, args.window_hi if args.window_hi is not None else args.horizon)
    fit_error = None
    try:
        fit = rate_fit(curve, window)
        rate, rate_se = fit.rate, fit.stderr
    except ValueError as exc:
        fit_error, rate, rate_se = str(exc), None, None
    survival, stderr = curve.survival.tolist(), curve.stderr.tolist()
    results = {
        "mode": args.mode,
        "horizon": args.horizon,
        "replicas": args.replicas,
        "window": list(window),
        "fitted_rate": rate,
        "fitted_rate_stderr": rate_se,
        "fit_error": fit_error,
        "survival": survival,
        "stderr": stderr,
    }
    lines = [f"# mode={args.mode} replicas={args.replicas} seed={args.seed}"]
    if rate is None:
        lines.append(f"# fitted_rate=unavailable ({fit_error})")
    else:
        lines.append(f"# fitted_rate={rate} stderr={rate_se} window={window[0]}..{window[1]}")
    table = Table(t=list(range(horizon + 1)), survival=survival, stderr=stderr)
    _emit_doc(args, chain, results, table, lines)
    return 0


def _verify_checks(chain, cfg) -> list:
    """The invariant suite: one function per row, named after it, each
    returning (passed, worst).  Worst values reduce with np.max, not max, so
    that a NaN anywhere fails its row.  A value that rows share is made by
    the first row that asks for it; where it raises, so does every row that
    asks."""
    n = np.arange(0, 101)
    pi = reversibility(chain).pi(n)
    measure = cache(lambda: build_measure(chain))
    tvs = cache(lambda: tv_oracle_curve(chain, 120))
    exact = cache(lambda: tv_curve(chain, range(61), cfg=cfg))

    def detailed_balance_n_le_100():
        balance = np.abs(pi[:-1] * np.where(n[:-1] == 0, 1.0, chain.p) - pi[1:] * chain.q)
        return float(balance.max()) <= 1e-12, float(balance.max())

    def evolve_mass_conservation_t300():
        total = float(kernel_oracle(chain, [300], 300, rows=[0]).sum())  # the law of 0 at t = 300
        return abs(total - 1.0) <= 1e-12, abs(total - 1.0)

    def tv_oracle_nonincreasing_t120():
        mono = float(np.max(np.diff(tvs())))
        return mono <= 1e-15, mono

    def psi_normalization():
        norm = integrate_psi(measure(), lambda x: np.ones_like(x), cfg=cfg)
        return abs(norm - 1.0) <= 1e-10, abs(norm - 1.0)

    def ac_mass_p_over_q_plus_r():
        ac = integrate_psi(measure(), lambda x: np.ones_like(x), atoms=False, cfg=cfg)
        err = abs(ac - chain.p / (chain.q + chain.r))
        return err <= 1e-10, err

    def orthogonality_deg_le_8():
        # p_0(m, n) = pi_n integral of Q_m Q_n dpsi, the orthonormality relations
        worst = float(np.max(np.abs(kernel_matrix(chain, [0], 8, cfg=cfg)[0] - np.eye(9))))
        return worst <= 1e-8, worst

    def kernel_vs_oracle_t20():
        worst = float(np.max(np.abs(kernel_matrix(chain, range(21), 4, cfg=cfg)
                                    - kernel_oracle(chain, range(21), 4))))
        return worst <= 1e-9, worst

    def tv_exact_vs_oracle_t40():
        worst = float(np.max(np.abs(np.subtract(exact()[:41], tvs()[:41]))))
        return worst <= 1e-8, worst

    def quadrature_bound_k_vs_2k():
        # the change from K to 2K nodes against the a-priori bounds at both (the
        # roundoff floor of a pole-corrected pass), plus float64 roundoff of the
        # partial sums
        k, bound = tv_quadrature(chain, range(61), cfg=cfg)[1:3]
        wide = QuadratureConfig(node_count=2 * k, tol=cfg.tol)
        bound += tv_quadrature(chain, range(61), cfg=wide)[2] + 1e-14
        worst = float(np.max(np.abs(np.subtract(exact(), tv_curve(chain, range(61), cfg=wide)))))
        return worst <= bound, worst

    def tv_sandwich_t60():
        ok = True
        for tvx, upper, lower, valid in zip(exact(), *tv_envelope(chain, range(61))):
            # the envelope gap 2 B beta^t can sit below double roundoff of the
            # alpha-scale terms; allow that much float slack.  A NaN fails.
            slack = 1e-12 * max(upper, 1e-300)
            if not (tvx <= upper + slack and (not valid or tvx >= lower - slack)):
                ok = False
        return ok, float(not ok)

    def drift_identity_x_le_50():
        worst = float(np.max([abs(drift_identity_residual(chain, x)) for x in range(51)]))
        return worst <= 1e-12, worst

    def residues_equal_atom_weights():
        weights = measure().atom1[1], measure().atom2[1]
        err = float(np.max(np.abs(np.subtract(residue_check(chain), weights))))
        return err <= 1e-8, err

    def resolvent_stieltjes_consistency():
        worst = float(np.max([abs(resolvent_a0(chain, s) - integrate_psi(
            measure(), lambda x, s=s: 1.0 / (x - s), cfg=cfg, poles=[s]))
            for s in (2j, 0.5 + 0.7j, -0.3 - 1.1j, 3.0 + 0.25j)]))
        return worst <= 1e-8, worst

    def spectral_integral_route_equivalence():
        # |interval - contour| per 1e-8 max(1, beta^t (q/p)^(n/2)), the interval
        # route's I_t(n) = p_t(0, n)/pi_n - w1 from one kernel pass; where pi_n
        # underflows (p far below q) the quotient is NaN and fails the row
        ts, degrees = (0, 3, 10, 25), (0, 2, 7, 15)
        co = bound_coefficients(chain)
        with np.errstate(divide="ignore", invalid="ignore"):
            interval = kernel_matrix(chain, ts, 15, cfg=cfg, rows=[0], cols=degrees)[:, 0] \
                / pi[list(degrees)] - measure().atom1[1]
        worst = float(np.max([abs(interval[a, b] - spectral_integral(chain, t, deg))
                              / (1e-8 * max(1.0, co.beta ** t * _power(chain.q / chain.p, deg / 2)))
                              for a, t in enumerate(ts) for b, deg in enumerate(degrees)]))
        return worst <= 1.0, worst

    def atom_weight_summability():
        # series ratio at the atom of slowest decay is p/q; pick the truncation
        # so the certified geometric remainder sits below the tolerance
        depth = math.log(1e-11 * (chain.q - chain.p)) / math.log(chain.p / chain.q)
        n_sum = int(min(50_000, max(60, math.ceil(depth) + 5)))
        err = float(np.max([abs(1.0 / point_mass_summability(chain, loc, n_sum) - weight)
                            for loc, weight in (measure().atom1, measure().atom2)]))
        return err <= 1e-9, err

    return [detailed_balance_n_le_100, evolve_mass_conservation_t300,
            tv_oracle_nonincreasing_t120, psi_normalization, ac_mass_p_over_q_plus_r,
            orthogonality_deg_le_8, kernel_vs_oracle_t20, tv_exact_vs_oracle_t40,
            quadrature_bound_k_vs_2k, tv_sandwich_t60, drift_identity_x_le_50,
            residues_equal_atom_weights, resolvent_stieltjes_consistency,
            spectral_integral_route_equivalence, atom_weight_summability]


def _cmd_verify(args):
    """Every row runs on its own: a typed error fails its row with worst NaN
    and one line on stderr, and the rows after it still run."""
    chain = _chain_from_args(args)
    cfg = _quad_cfg(args)
    checks = Table(name=[], passed=[], worst=[])
    for check in _verify_checks(chain, cfg):
        try:
            passed, worst = check()
        except (QuadratureError, ConvergenceError, RegimeError) as exc:
            print(f"kmmix: verify {check.__name__}: {exc}", file=sys.stderr)
            passed, worst = False, math.nan
        checks["name"].append(check.__name__)
        checks["passed"].append(bool(passed))
        checks["worst"].append(float(worst))
    all_passed = all(checks["passed"])
    _emit_doc(args, chain, {"checks": checks, "all_passed": all_passed}, checks)
    return 0 if all_passed else 1


@lru_cache(maxsize=1)
def _build_parser():
    """The one parser of the process, built on the first call of main: every
    later call reuses it (parse_args leaves it unchanged and returns a fresh
    Namespace)."""
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
    sp.add_argument("--horizon", type=int, default=100,
                    help=f"last time of the curve (at most {_HORIZON_LIMIT[1]})")
    sp.add_argument("--replicas", type=int, default=100_000,
                    help="pairs simulated (at most 1e7, as memory grows with it)")
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
            "the tolerance); exit 1 where the bound at this count misses it (at least 16 and "
            "at most 2^16, the node cap of one quadrature pass)"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"kmmix: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ConvergenceError, RegimeError) as exc:
        print(f"kmmix: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

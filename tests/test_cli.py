import json
import math
import os
import pathlib
import runpy
import subprocess
import sys

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from kmmix import ChainParams, QuadratureConfig, cli, mixing, tv_envelope
from kmmix.cli import main
from kmmix.mixing import tv_quadrature
from kmmix.spectral import pole_errors

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_worked_example_constants(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--p", "1/11", "--q", "9/11", "--r", "1/11")
        assert code == 0
        doc = json.loads(out)
        res = doc["results"]
        assert res["A"] == pytest.approx(0.5321637426900585, abs=1e-12)
        assert res["B"] == pytest.approx(1.3928571428571428, abs=1e-12)
        assert res["m"] == pytest.approx(0.9, abs=1e-12)
        assert res["alpha"] == pytest.approx(0.9, abs=1e-12)
        assert res["beta"] == pytest.approx(7 / 11, abs=1e-12)

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--p", "1/11", "--q", "9/11")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["meta"]["seed"] == 11
        assert doc["params"]["p"] == pytest.approx(1 / 11, abs=1e-16)

    def test_r_inferred_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--p", "1/11", "--q", "9/11")
        doc = json.loads(out)
        assert doc["params"]["r"] == pytest.approx(1 / 11, abs=1e-16)

    def test_validation_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--p", "0.3", "--q", "0.3", "--r", "0.4")
        assert code == 2
        assert "q must exceed p" in err

    def test_bad_fraction_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--p", "one/11", "--q", "9/11")
        assert code == 2

    def test_overflowing_parameter_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--p", "1e400", "--q", "0.5")
        assert code == 2 and out == ""
        assert err.startswith("kmmix: ") and "outside the float range" in err

    def test_subnormal_p_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "tv", "--p", "1e-320", "--q", "0.5", "--t-max", "2")
        assert code == 2 and out == ""
        assert err.startswith("kmmix: ") and "normal float" in err

    def test_regime_error_exit_1(self, capsys):
        # the AC edge r + 2 sqrt(pq) rounds to 1.0 and meets the pole there
        code, out, err = run_cli(capsys, "analyze", "--p", "0.49", "--q", "0.4900000001")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: ") and "validated regime" in err

    def test_tmix_regime_error_where_sqrt_pq_rounds_to_p(self, capsys):
        # the envelope divides by sqrt(pq) - p, 0.0 here: it ended in a
        # ZeroDivisionError traceback
        code, out, err = run_cli(capsys, "tmix", "--p", "0.49999999999999994", "--q", "0.5",
                                 "--r", "1.401298464324817e-45", "--eps", "0.1")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: ") and err.count("\n") == 1 and "sqrt(pq) - p" in err

    def test_tv_regime_error_exit_1(self, capsys):
        # the same edge for the TV series, which no count reaches past N_CAP
        # or the node cap any more: the pole correction needs the pole off it
        code, out, err = run_cli(capsys, "tv", "--p", "0.49", "--q", "0.4900000001",
                                 "--t-max", "5")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: ") and "validated regime" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "--states", "-1"),
    ("tv", "--t-max", "-1"),
    ("kernel", "--t-max", "-2"),
    ("kernel", "--i", "-1"),
    ("kernel", "--j", "-1"),
])
def test_negative_count_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--p", "1/11", "--q", "9/11", *argv[1:])
    assert code == 2 and out == ""
    assert "must be nonnegative" in err


HUGE = "1" + "0" * 400  # a 401-digit count
# each flag's cap: couple's --horizon and --replicas have their own, as the
# curve's cost grows with them, and --quad-nodes is one pass's node cap
CAPS = {"--t-max": "1e7", "--states": "1e7", "--horizon": "1e6", "--replicas": "1e7",
        "--quad-nodes": "2^16"}
CAPPED_FLAGS = {"tv": ["--t-max", "--quad-nodes"], "kernel": ["--t-max", "--quad-nodes"],
                "analyze": ["--states", "--quad-nodes"], "couple": ["--horizon", "--replicas"],
                "verify": ["--quad-nodes"]}


@pytest.mark.parametrize("argv, flag", [
    (("tv", "--t-max", HUGE), "--t-max"),
    (("kernel", "--t-max", HUGE), "--t-max"),
    (("analyze", "--states", "100000000000"), "--states"),
    (("tv", "--t-max", "10000001"), "--t-max"),
    (("kernel", "--t-max", "10000001"), "--t-max"),
    (("analyze", "--states", "10000001"), "--states"),
    (("couple", "--horizon", "1000001"), "--horizon"),
    (("analyze", "--quad-nodes", "65552"), "--quad-nodes"),
    (("verify", "--quad-nodes", HUGE), "--quad-nodes"),
    (("couple", "--replicas", "10000001"), "--replicas"),
])
def test_count_past_the_cap_exit_2(capsys, argv, flag):
    # refused before any time or state list is built: no traceback, no hang
    code, out, err = run_cli(capsys, argv[0], "--p", "1/11", "--q", "9/11", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"kmmix: {flag} must be at most {CAPS[flag]}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "tv", "kernel", "verify"])
@pytest.mark.parametrize("nodes", ["8", "-3"])
def test_quad_nodes_below_16_exit_2(capsys, command, nodes):
    # the flag's range is checked by the CLI, in its own terms: no library field name
    code, out, err = run_cli(capsys, command, "--p", "1/11", "--q", "9/11", "--quad-nodes", nodes)
    assert code == 2 and out == ""
    assert err.startswith("kmmix: --quad-nodes must be ") and "at least 16" in err
    assert err.count("\n") == 1 and "node_count" not in err


def test_replicas_past_the_cap_simulate_nothing(capsys, monkeypatch):
    # the count is refused before the simulation sizes an array by it
    for name in ("simulate_modified", "simulate_classical"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("simulated"))
    for mode in ("modified", "classical"):
        code, out, _ = run_cli(capsys, "couple", "--p", "1/11", "--q", "9/11", "--mode", mode,
                               "--replicas", "10000001")
        assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["tv", "kernel", "analyze", "couple", "verify"])
def test_help_states_the_cap(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help at any space
    for flag in CAPPED_FLAGS[command]:
        assert f"at most {CAPS[flag]}" in text, flag


def test_cached_tables_do_not_leak_between_chains(capsys):
    # theta_nodes, the node-count plans and the degree-scale table are cached
    # per chain (and dtype):
    # each chain's output must be the same run cold and run after the other
    # chain, or after the other dtype's tables of the same chains were built
    from kmmix import ChainParams, orthopoly, spectral
    chains = {"near": ("--p", "0.3", "--q", "0.32", "--r", "0.38"),
              "worked": ("--p", "1/11", "--q", "9/11")}
    jobs = {"near": [("tmix", "--eps", "1e-3"), ("kernel", "--i", "2", "--j", "3"),
                     ("tv", "--t-max", "20")],
            "worked": [("tv", "--t-max", "60"), ("tmix", "--eps", "1e-6"),
                       ("kernel", "--i", "1", "--j", "2")]}

    def run(name):
        return [run_cli(capsys, argv[0], *chains[name], *argv[1:]) for argv in jobs[name]]

    def clear():
        spectral.theta_nodes.cache_clear()
        spectral._plan.cache_clear()
        orthopoly._scale_table.cache_clear()

    clear()
    first = {name: run(name) for name in ("near", "worked")}
    clear()
    for chain in (ChainParams(0.3, 0.32, 0.38), ChainParams(1 / 11, 9 / 11, 1 / 11)):
        x = spectral.theta_nodes(chain, 512)[0].astype(float)
        with np.errstate(over="ignore", invalid="ignore"):
            for n_max in (2 ** k for k in range(12)):
                orthopoly.q_bracket_matrix(chain, n_max, x)
    second = {name: run(name) for name in ("worked", "near")}
    assert all(code == 0 for name in first for code, _, _ in first[name])
    assert second == first


@pytest.mark.parametrize("argv", [
    ("tmix", "--eps", "1e-3", "--quad-nodes", "8"),
    ("tmix", "--eps", "1e-3", "--series-tol", "1e-6"),
    ("kernel", "--series-tol", "-1"),
    ("analyze", "--series-tol", "1e-6"),
    ("verify", "--series-tol", "1e-6"),
    ("couple", "--quad-nodes", "1024"),
])
def test_flag_the_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([argv[0], "--p", "1/11", "--q", "9/11", *argv[1:]])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, nodes", [
    (("tmix", "--eps", "1e-3"), None),  # the bound chose each call's count
    (("tv", "--t-max", "2", "--quad-nodes", "1024"), 1024),
    (("kernel", "--t-max", "2", "--quad-nodes", "64"), 64),
])
def test_meta_reports_the_node_count_used(capsys, argv, nodes):
    code, out, _ = run_cli(capsys, argv[0], "--p", "1/11", "--q", "9/11", *argv[1:])
    assert code == 0
    assert json.loads(out)["meta"]["quad_nodes"] == nodes


@pytest.mark.parametrize("command", ["analyze", "tv", "kernel", "verify"])
def test_meta_is_null_where_the_bound_chose(capsys, command):
    code, out, _ = run_cli(capsys, command, "--p", "1/11", "--q", "9/11",
                           *(("--t-max", "2") if command in ("tv", "kernel") else ()))
    assert code == 0 and json.loads(out)["meta"]["quad_nodes"] is None


def test_override_short_of_the_bound_exit_1(capsys):
    # degree 2 t_max = 80 asks for 42 nodes exactly, 768 by the strip bound
    code, out, err = run_cli(capsys, "tv", "--p", "0.3", "--q", "0.32", "--r", "0.38",
                             "--t-max", "40", "--quad-nodes", "32")
    assert code == 1 and out == ""
    assert err.startswith("kmmix: tv_curve quadrature needs ")
    assert "past the node_count override of 32" in err


def test_count_past_the_cap_exit_1(capsys):
    # q - p = 1e-4 narrows the strip to 1e-4: about 2.6e5 nodes, past 2^16
    code, out, err = run_cli(capsys, "analyze", "--p", "0.49", "--q", "0.4901")
    assert code == 1 and out == ""
    assert err.startswith("kmmix: density quadrature needs ")
    assert "past the cap of 65536" in err


@pytest.mark.parametrize("states", [0, 100, 100_000])
def test_analyze_nu_is_the_per_state_law(capsys, states):
    # one vectorised call gives, bit for bit, the per-state nu(n) values
    from kmmix import ChainParams, reversibility
    chain = ("--p", "0.3", "--q", "0.32", "--r", "0.38")
    rev = reversibility(ChainParams(0.3, 0.32, 0.38))
    want = [float(rev.nu(n)) for n in range(states + 1)]
    code, out, _ = run_cli(capsys, "analyze", *chain, "--states", str(states))
    assert code == 0 and json.loads(out)["results"]["nu"] == want
    code, out, _ = run_cli(capsys, "analyze", *chain, "--states", str(states), "--format", "csv")
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert [rows[f"nu_{n}"] for n in range(states + 1)] == [repr(v) for v in want]


class TestTv:
    def test_csv_header_fixed(self, capsys):
        code, out, _ = run_cli(capsys, "tv", "--p", "1/11", "--q", "9/11",
                               "--t-max", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,tv_exact,tv_oracle,tv_upper,tv_lower,lower_valid"
        assert len(lines) == 6

    def test_row_t0(self, capsys):
        code, out, _ = run_cli(capsys, "tv", "--p", "1/11", "--q", "9/11", "--t-max", "0")
        rows = json.loads(out)["results"]["rows"]
        assert rows[0]["tv_exact"] == pytest.approx(0.5789473684210527, abs=1e-9)
        assert rows[0]["tv_oracle"] == pytest.approx(0.5789473684210527, abs=1e-12)

    def test_sandwich_in_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tv", "--p", "1/11", "--q", "9/11", "--t-max", "40")
        for row in json.loads(out)["results"]["rows"]:
            assert row["tv_exact"] <= row["tv_upper"]
            if row["lower_valid"]:
                assert row["tv_lower"] <= row["tv_exact"]

    def test_envelope_columns_are_the_library_values(self, capsys):
        chain = ChainParams(1 / 11, 9 / 11, 1 / 11)
        code, out, _ = run_cli(capsys, "tv", "--p", "1/11", "--q", "9/11", "--t-max", "80")
        assert code == 0
        for t, row in enumerate(json.loads(out)["results"]["rows"]):
            assert [[row["tv_upper"]], [row["tv_lower"]], [row["lower_valid"]]] == list(
                tv_envelope(chain, [t])), t

    def test_series_past_the_double_range_exit_1(self, capsys):
        # the cutoff of series_tol 1e-320 reaches degrees whose AC sums
        # overflow doubles: a typed error, where the column used to read NaN
        code, out, err = run_cli(capsys, "tv", "--p", "1e-8", "--q", "1e-4", "--t-max", "160",
                                 "--format", "csv", "--series-tol", "1e-320")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: the TV series at t=160 leaves the double range")

    @pytest.mark.parametrize("chain", [("--p", "1/11", "--q", "9/11"),
                                       ("--p", "0.3", "--q", "0.32", "--r", "0.38")])
    def test_series_cut_at_t_stays_finite(self, capsys, chain):
        # there N passes t, and the series stops at t: the terms past it are nu_n
        code, out, err = run_cli(capsys, "tv", *chain, "--t-max", "3", "--series-tol", "1e-320")
        rows = json.loads(out)["results"]["rows"]
        assert (code, err) == (0, "")
        assert all(abs(row["tv_exact"] - row["tv_oracle"]) <= 1e-15 for row in rows)

    @pytest.mark.parametrize("argv", [
        ("tv", "--p", "0.3", "--q", "0.30001", "--r", "0.39999", "--t-max", "20"),
        ("kernel", "--p", "0.49", "--q", "0.4901", "--i", "2", "--j", "3", "--t-max", "20"),
    ])
    def test_near_critical_within_the_gates(self, capsys, argv):
        # q - p = 1e-5 and 1e-4: past the node cap by the strip count alone
        code, out, err = run_cli(capsys, *argv)
        rows = json.loads(out)["results"]["rows"]
        assert (code, err) == (0, "") and len(rows) == 21
        if argv[0] == "tv":
            assert all(abs(row["tv_exact"] - row["tv_oracle"]) <= 1e-8 for row in rows)
        else:
            assert all(row["abs_diff"] <= 1e-9 for row in rows)

    def test_nan_series_tol_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "tv", "--p", "1/11", "--q", "9/11",
                                 "--t-max", "2", "--series-tol", "nan")
        assert (code, out, err) == (2, "", "kmmix: --series-tol must be positive\n")


@pytest.mark.parametrize("argv, message", [
    *((("tv", "--series-tol", v), "--series-tol must be positive") for v in ("-1", "0", "nan")),
    *((("tmix", "--eps", v), "--eps must lie in (0, 1)") for v in ("-1", "0", "nan", "1")),
])
def test_out_of_range_flag_is_named_exit_2(capsys, argv, message):
    # the library's checks name its fields (series_tol, eps); the CLI names the flag
    code, out, err = run_cli(capsys, argv[0], "--p", "1/11", "--q", "9/11", *argv[1:])
    assert (code, out, err) == (2, "", f"kmmix: {message}\n")


class TestTmix:
    def test_exact_below_bound(self, capsys):
        code, out, _ = run_cli(capsys, "tmix", "--p", "1/11", "--q", "9/11",
                               "--eps", "1e-3")
        res = json.loads(out)["results"]
        assert code == 0
        assert res["t_mix_exact"] <= res["t_mix_bound"]

    def test_eps_validation(self, capsys):
        code, _, err = run_cli(capsys, "tmix", "--p", "1/11", "--q", "9/11", "--eps", "2.0")
        assert code == 2

    @pytest.mark.parametrize("eps, expect", [("1e-300", 6551), ("1e-310", 6769), ("1e-315", 6879)])
    def test_tiny_eps(self, capsys, eps, expect):
        code, out, _ = run_cli(capsys, "tmix", "--p", "1/11", "--q", "9/11", "--eps", eps)
        res = json.loads(out)["results"]
        assert code == 0
        assert res["t_mix_exact"] == res["t_mix_bound"] == expect

    @pytest.mark.parametrize("chain, eps, expect", [
        (["--p", "0.3", "--q", "0.32", "--r", "0.38"], "1e-30", 187864),
        (["--p", "0.1041069639258611", "--q", "0.5083400962994629", "--r", "0.387552939774676"],
         "1e-13", 139),
    ])
    def test_tiny_eps_is_certified(self, capsys, chain, eps, expect):
        # the series was compared with eps at a quadrature tolerance of 1e-10
        # and answered 178709 and 138; it is now certified to eps * 1e-3
        code, out, _ = run_cli(capsys, "tmix", *chain, "--eps", eps, "--format", "csv")
        assert code == 0
        assert f"t_mix_exact,{expect}" in out.splitlines()

    def test_unresolvable_eps_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "tmix", "--p", "1/11", "--q", "9/11",
                                 "--eps", "5e-324")
        assert code == 2 and out == ""
        assert err.startswith("kmmix: ") and "eps=5e-324" in err

    def test_beta_rounding_to_one_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "tmix", "--p", "0.3", "--q", "0.3000000001",
                                 "--r", "0.3999999999", "--eps", "0.1")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: ") and "bracket exceeded 1e7" in err
        # the envelope at t = 1e7 reads 9e19 here; TV <= 1 caps the bound
        assert "min(1, envelope)" in err
        bound = float(err.rsplit("achieved bound ", 1)[1].rstrip(")\n"))
        assert 0.0 < bound <= 1.0


class TestKernel:
    def test_uncertified_entry_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--p", "1/11", "--q", "9/11",
                                 "--i", "29", "--j", "0", "--t-max", "3")
        assert code == 1 and out == ""
        assert err == ("kmmix: p_t(29, 0) cannot be certified: its roundoff floor exceeds "
                       "the quadrature tolerance\n")

    def test_overflow_leaves_one_stderr_line(self, capsys):
        # as p -> 0 the L1 sums overflow the double range: NaN, and no numpy warning
        code, out, err = run_cli(capsys, "kernel", "--p", "1e-200", "--q", "0.5",
                                 "--i", "4", "--j", "4", "--t-max", "3")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: ") and err.count("\n") == 1

    def test_inf_times_zero_leaves_one_stderr_line(self, capsys):
        # Q_3400 overflows longdouble and meets a zero: NaN, and no numpy warning
        code, out, err = run_cli(capsys, "kernel", "--p", "0.001", "--q", "0.989", "--r", "0.01",
                                 "--i", "0", "--j", "3400", "--t-max", "1")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: ") and err.count("\n") == 1

    def test_degree_past_the_node_cap_exit_1(self, capsys):
        # refused by the node count, before any array is sized by the degree
        code, out, err = run_cli(capsys, "kernel", "--p", "1/11", "--q", "9/11",
                                 "--i", str(10 ** 12), "--j", "0", "--t-max", "0")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: kernel_matrix quadrature needs") and "the cap" in err

    @pytest.mark.parametrize("index", [("--i", str(10 ** 20)), ("--j", str(2 ** 63 - 1))])
    def test_index_past_int64_exit_2(self, capsys, index):
        # t + i + j must fit in int64: these wrapped to -2^63 and raised IndexError
        code, out, err = run_cli(capsys, "kernel", "--p", "1/11", "--q", "9/11", *index,
                                 "--t-max", "1")
        assert code == 2 and out == ""
        assert err.startswith("kmmix: ") and err.count("\n") == 1

    def test_rows_match_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--p", "1/11", "--q", "9/11",
                               "--i", "2", "--j", "3", "--t-max", "12")
        assert code == 0
        for row in json.loads(out)["results"]["rows"]:
            assert row["abs_diff"] <= 1e-9


class TestCouple:
    ARGS = ("couple", "--p", "1/11", "--q", "9/11", "--mode", "modified",
            "--horizon", "40", "--replicas", "20000")

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.ARGS)
        code2, out2, _ = run_cli(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        lines = out.strip().split("\n")
        header_at = lines.index("t,survival,stderr")
        assert lines[header_at - 1].startswith("# fitted_rate=")
        assert len(lines) == header_at + 1 + 41

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS, "--seed", "1")
        _, out2, _ = run_cli(capsys, *self.ARGS, "--seed", "2")
        assert out1 != out2

    @pytest.mark.parametrize("flags", [("--horizon", str(2 ** 30), "--replicas", "1"),
                                       ("--horizon", "0", "--replicas", str(2 ** 32 + 1)),
                                       ("--horizon", "10", "--replicas", "0")])
    def test_overlapping_counter_blocks_exit_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "couple", "--p", "1/11", "--q", "9/11", *flags)
        assert code == 2 and out == ""
        # a horizon of 2^30 and 2^32 + 1 replicas meet the CLI's size caps
        # before the library's guard (test_coupling checks that guard), and
        # no replicas the library's own check
        message = {"0": "--replicas must be at most 1e7", "10": "replicas must be at least 1"}.get(
            flags[1], "--horizon must be at most 1e6")
        assert err.startswith("kmmix: ") and message in err

    def test_classical_mode(self, capsys):
        code, out, _ = run_cli(capsys, "couple", "--p", "1/11", "--q", "9/11",
                               "--mode", "classical", "--horizon", "30",
                               "--replicas", "10000")
        res = json.loads(out)["results"]
        assert code == 0 and res["mode"] == "classical"
        assert res["survival"][0] == pytest.approx(1 - 8 / 19, abs=0.02)


class TestVerify:
    def test_worked_example_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "1/11", "--q", "9/11", "--r", "1/11")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["all_passed"]
        assert all(c["passed"] for c in doc["results"]["checks"])

    def test_near_critical_corrected_at_k_and_2k(self, capsys):
        # both passes of quadrature_bound_k_vs_2k take the pole correction,
        # and its bound is their roundoff floors (not 0) plus 1e-14
        chain = ChainParams(0.3, 0.32, 0.38)
        _, k, bound, *errors, dtype = tv_quadrature(chain, range(61))
        _, wide, wide_bound, *wide_errors, wide_dtype = tv_quadrature(
            chain, range(61), cfg=QuadratureConfig(node_count=2 * k))
        assert (k, wide) == (64, 128)
        assert errors == [dtype(e) for e in pole_errors(chain, k)]
        assert wide_errors == [wide_dtype(e) for e in pole_errors(chain, wide)]
        # each bound is its pass's floor, within tol by the float64 margin
        limit = QuadratureConfig().tol / mixing._F64_MARGIN
        assert 0.0 < bound <= limit and 0.0 < wide_bound <= limit
        code, out, _ = run_cli(capsys, "verify", "--p", "0.3", "--q", "0.32", "--r", "0.38")
        checks = {c["name"]: c for c in json.loads(out)["results"]["checks"]}
        assert code == 0 and checks["quadrature_bound_k_vs_2k"]["passed"]
        assert checks["quadrature_bound_k_vs_2k"]["worst"] <= bound + wide_bound + 1e-14

    def test_reports_every_check_name(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "0.1", "--q", "0.7", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,passed,worst"
        assert len(lines) >= 14

    def test_passes_with_poles_near_circle(self, capsys):
        # slow-mixing corner: beta ~ 0.995, series ratios near 1
        code, out, _ = run_cli(capsys, "verify", "--p", "0.30", "--q", "0.38", "--r", "0.32")
        assert code == 0
        assert json.loads(out)["results"]["all_passed"]

    @pytest.mark.parametrize("argv", [
        ("--p", "1/11", "--q", "9/11", "--quad-nodes", "512"),  # bounds round to 0.0
        # TV moves by 1.1e-16 from K to 2K, above the bound at K alone (8.6e-19)
        ("--p", "0.3", "--q", "0.32", "--r", "0.38", "--quad-nodes", "1024"),
    ])
    def test_passes_under_a_node_override(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv)
        checks = {c["name"]: c["passed"] for c in json.loads(out)["results"]["checks"]}
        assert code == 0 and checks["quadrature_bound_k_vs_2k"], checks

    @pytest.mark.parametrize("offset", [1e-3, math.nan], ids=["off_by_1e-3", "nan"])
    def test_route_row_fails_when_the_routes_disagree(self, capsys, monkeypatch, offset):
        contour_part = mixing._contour_part
        monkeypatch.setattr(mixing, "_contour_part", lambda *args: contour_part(*args) + offset)
        rows = ["spectral_integral_route_equivalence"]
        if math.isnan(offset):  # and a NaN residual past the first x fails the drift row
            residual = cli.drift_identity_residual
            monkeypatch.setattr(cli, "drift_identity_residual",
                                lambda chain, x: math.nan if x == 7 else residual(chain, x))
            rows.append("drift_identity_x_le_50")
        code, out, _ = run_cli(capsys, "verify", "--p", "1/11", "--q", "9/11")
        results = json.loads(out)["results"]
        checks = {c["name"]: c for c in results["checks"]}
        failed = [checks.pop(name) for name in rows]
        assert code == 1 and not results["all_passed"]
        for row in failed:
            assert not row["passed"], row
            # the worst |interval - contour| in units of its tolerance; a NaN stays NaN
            if math.isnan(offset):
                assert math.isnan(row["worst"]), row
            else:
                assert row["worst"] > 1.0
        assert all(c["passed"] for c in checks.values())  # no other row reads the contour


VERIFY_ROWS = ["detailed_balance_n_le_100", "evolve_mass_conservation_t300",
               "tv_oracle_nonincreasing_t120", "psi_normalization", "ac_mass_p_over_q_plus_r",
               "orthogonality_deg_le_8", "kernel_vs_oracle_t20", "tv_exact_vs_oracle_t40",
               "quadrature_bound_k_vs_2k", "tv_sandwich_t60", "drift_identity_x_le_50",
               "residues_equal_atom_weights", "resolvent_stieltjes_consistency",
               "spectral_integral_route_equivalence", "atom_weight_summability"]


class TestVerifyRowsRunOnTheirOwn:
    def test_a_quadrature_past_the_node_cap_fails_only_its_rows(self, capsys):
        # the density quadrature needs 80515 nodes here, past NODE_CAP: each
        # row that integrates against psi fails, and every row is reported
        argv = ("--p", "0.30826502840687187", "--q", "0.30843997332416306",
                "--r", "0.383294998268965")
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, "verify", *argv, "--format", fmt)
            assert code == 1
            if fmt == "json":
                rows = json.loads(out)["results"]["checks"]
                names = [row["name"] for row in rows]
                failed = {row["name"] for row in rows if math.isnan(row["worst"])}
                assert not any(row["passed"] for row in rows if row["name"] in failed)
            else:
                lines = out.splitlines()
                assert lines[0] == "name,passed,worst"
                names = [line.split(",")[0] for line in lines[1:]]
                assert {line.split(",")[0] for line in lines[1:] if line.endswith(",false,nan")} \
                    == failed
            assert names == VERIFY_ROWS
            assert {"psi_normalization", "ac_mass_p_over_q_plus_r"} <= failed
            logged = err.splitlines()
            assert [line.split(":")[1].removeprefix(" verify ") for line in logged] == \
                [name for name in VERIFY_ROWS if name in failed]
            assert all("past the cap of 65536" in line for line in logged), logged

    def test_a_shared_value_that_raises_fails_each_row_that_reads_it(self, capsys, monkeypatch):
        def raises(*args, **kwargs):
            raise mixing.ConvergenceError("no cutoff", 0.5)
        monkeypatch.setattr(cli, "tv_oracle_curve", raises)
        code, out, err = run_cli(capsys, "verify", "--p", "1/11", "--q", "9/11")
        rows = {row["name"]: row for row in json.loads(out)["results"]["checks"]}
        failed = ["tv_oracle_nonincreasing_t120", "tv_exact_vs_oracle_t40"]
        assert code == 1 and list(rows) == VERIFY_ROWS
        assert err.splitlines() == [f"kmmix: verify {name}: no cutoff (achieved bound 5.000e-01)"
                                    for name in failed]
        for name in failed:
            assert not rows[name]["passed"] and math.isnan(rows[name]["worst"])
        assert all(row["passed"] for name, row in rows.items() if name not in failed)


# Chains at the edges of the wedge: p far below q, whose powers of q/p leave
# the double range; q - p down to 1e-5; r = 1e-300, where the negative atom
# rounds to -1; and p = 1e-8 against q = 0.9999 (r = 1 - p - q, about 1e-4).
EDGE_CHAINS = [*(("--p", p, "--q", "0.5") for p in ("1e-300", "1e-100", "1e-15", "1e-12")),
               ("--p", "0.3", "--q", "0.30001", "--r", "0.39999"),
               ("--p", "0.49", "--q", "0.4901"), ("--p", "0.1", "--q", "0.9", "--r", "1e-300"),
               ("--p", "1e-8", "--q", "0.9999"), ("--p", "0.001", "--q", "0.002")]
EDGE_JOBS = [("analyze",), ("tv",), ("tmix", "--eps", "0.1"), ("kernel",), ("verify",),
             ("couple", "--replicas", "1000")]


@pytest.mark.parametrize("chain", EDGE_CHAINS, ids=lambda chain: "-".join(chain[1::2]))
@pytest.mark.parametrize("job", EDGE_JOBS, ids=lambda job: job[0])
def test_edge_chains_exit_without_a_traceback(capsys, chain, job):
    # every command answers or fails with a typed error (exit 1 or 2); an
    # exception escapes main, and pytest turns every warning into an error
    code, _, _ = run_cli(capsys, job[0], *chain, *job[1:])
    assert code in (0, 1, 2)


def _nan_past_the_first(original):
    """original with a NaN past its first value: at index 5 of a returned
    list, as the second of a returned pair, or as the value of its second call."""
    calls = []

    def patched(*args, **kwargs):
        value = original(*args, **kwargs)
        calls.append(None)
        if type(value) is list:
            return value[:5] + [math.nan] + value[6:]
        if type(value) is tuple:
            return value[0], math.nan
        return math.nan if len(calls) == 2 else value
    return patched


@pytest.mark.parametrize("name, rows", [
    ("tv_oracle_curve", ["tv_oracle_nonincreasing_t120", "tv_exact_vs_oracle_t40"]),
    ("tv_curve", ["tv_exact_vs_oracle_t40", "quadrature_bound_k_vs_2k", "tv_sandwich_t60"]),
    ("residue_check", ["residues_equal_atom_weights"]),
    ("resolvent_a0", ["resolvent_stieltjes_consistency"]),
    ("point_mass_summability", ["atom_weight_summability"]),
])
def test_verify_rows_fail_on_a_nan_past_the_first_value(capsys, monkeypatch, name, rows):
    # Python's max keeps its first NaN but drops a later one: each row must
    # fail with its worst value NaN (the sandwich row's worst is its 0/1 flag)
    monkeypatch.setattr(cli, name, _nan_past_the_first(getattr(cli, name)))
    code, out, _ = run_cli(capsys, "verify", "--p", "1/11", "--q", "9/11")
    checks = {c["name"]: c for c in json.loads(out)["results"]["checks"]}
    failed = [checks.pop(row) for row in rows]
    assert code == 1 and not any(row["passed"] for row in failed), failed
    assert all(math.isnan(row["worst"]) for row in failed if row["name"] != "tv_sandwich_t60")
    assert all(c["passed"] for c in checks.values())


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "analysis.json"
        code, out, _ = run_cli(capsys, "analyze", "--p", "1/11", "--q", "9/11",
                               "--output", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["results"]["m"] == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("where", ["missing directory", "a directory"])
    def test_unwritable_path_exit_2(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, "tv", "--p", "1/11", "--q", "9/11", "--t-max", "2",
                                     "--format", fmt, "--output", str(target))
            assert code == 2 and out == ""
            assert err.startswith(f"kmmix: cannot write {target}: ") and err.count("\n") == 1


class TestParserReuse:
    """main builds its parser on the first call and reuses it: no call may see
    a flag, a default or a failure of an earlier one."""

    WORKED = ("--p", "1/11", "--q", "9/11")
    JOBS = [
        ("analyze", *WORKED),
        ("tv", *WORKED, "--t-max", "5"),
        ("tmix", *WORKED, "--eps", "1e-3"),
        ("kernel", *WORKED, "--i", "1", "--j", "2", "--t-max", "3"),
        ("couple", *WORKED, "--horizon", "10", "--replicas", "200", "--window-lo", "2"),
        ("verify", *WORKED),
        ("tv", "--help"),
        ("kernel", *WORKED, "--series-tol", "1e-6"),  # argparse rejects it: exit 2
        ("analyze", *WORKED, "--states", "-1"),  # main rejects it: exit 2
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def cold(self, capsys, argv):
        cli._build_parser.cache_clear()
        return self.call(capsys, argv)

    def test_interleaved_commands_match_cold_calls(self, capsys):
        cold = {argv: self.cold(capsys, argv) for argv in self.JOBS}
        assert [code for code, _, _ in cold.values()] == [0] * 7 + [2, 2]
        cli._build_parser.cache_clear()
        order = [0, 6, 1, 7, 2, 3, 8, 4, 5, 0, 7, 6, 1]
        for k in order:
            assert self.call(capsys, self.JOBS[k]) == cold[self.JOBS[k]], self.JOBS[k]
        assert cli._build_parser.cache_info().misses == 1

    def test_flags_do_not_carry_into_the_next_call(self, capsys):
        plain = ("tv", *self.WORKED, "--t-max", "30")  # N_t < t from t = 19: tol counts
        default = self.cold(capsys, plain)
        for flags in (("--series-tol", "1e-6"), ("--quad-nodes", "64"), ("--format", "csv")):
            flagged = self.call(capsys, plain + flags)
            assert flagged[0] == 0 and flagged != default, flags
            assert self.call(capsys, plain) == default, flags

    def test_import_builds_no_parser_and_module_run_matches(self, capsys):
        # one fresh interpreter: count the parsers that importing kmmix.cli
        # builds, then run the module as `python -m kmmix.cli` runs it
        argv = ("tmix", *self.WORKED, "--eps", "1e-6")
        script = "\n".join([
            "import argparse, runpy, sys",
            "built, init = [], argparse.ArgumentParser.__init__",
            "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(init(*a, **k))",
            "import kmmix.cli",
            "assert not built and kmmix.cli._build_parser.cache_info().currsize == 0",
            "del sys.modules['kmmix.cli']",
            "runpy.run_module('kmmix.cli', run_name='__main__', alter_sys=True)",
        ])
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == self.cold(capsys, argv)[1]


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def plain(doc):
    """doc with every cli.Table as its list of row dicts, the document that
    json.dumps writes as cli._json writes the Table."""
    if type(doc) is cli.Table:
        return [dict(zip(doc, map(plain, row))) for row in zip(*doc.values())]
    if type(doc) is dict:
        return {key: plain(value) for key, value in doc.items()}
    if type(doc) is list:
        return list(map(plain, doc))
    return doc


FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 1.7976931348623157e308]))
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 63 - 2),
                 st.integers(max_value=-2 ** 63))
TEXT = st.one_of(st.text(max_size=6), st.sampled_from(
    ["", "%", "%s", "%%d", "%(t)s", "\x00\x1f\x7f\n\t\"\\/", "\u00e9\u2603\U0001d11e", "\ud800"]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
# the columns a table can have: one exact type throughout, or anything
COLUMNS = [FLOATS, INTS, st.booleans(), TEXT, st.none()]


@st.composite
def tables(draw, values):
    """A cli.Table of up to 5 columns of one length (0 to 6), each column of
    one type or of any values."""
    keys = draw(st.lists(TEXT, max_size=5, unique=True))
    length = draw(st.integers(0, 6))
    return cli.Table({key: draw(st.lists(draw(st.sampled_from(COLUMNS + [values])),
                                         min_size=length, max_size=length)) for key in keys})


def containers(values):
    return st.one_of(st.lists(values, max_size=5), st.dictionaries(TEXT, values, max_size=5),
                     *(st.lists(kind, min_size=1, max_size=8) for kind in COLUMNS),
                     tables(values))


DOCS = st.recursive(SCALARS, containers, max_leaves=40)
WRITER = hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
EDGES = {
    "%s \x00\x1f\n\u00e9\U0001d11e": cli.Table({
        "%(t)s": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308],
        "\u2603\t": [2 ** 63, -2 ** 63 - 1, 2 ** 64, 10 ** 30, 0, True],
        "%": ["%", "%%d", "\x00\x7f\"\\", "\u00e9", "\ud800", ""]}),
    "empty": [[], {}, cli.Table(), cli.Table(t=[]), ""],
    "rows": [cli.Table(x=[[1.0, None], {"a": cli.Table(y=[False])}]), None],
}


class TestJsonWriter:
    """cli._json writes the bytes json.dumps(doc, indent=2, sort_keys=True)
    writes for doc with its Tables as lists of row objects, over the str-keyed
    dicts, lists and Tables of exact str, None, bool, int and float values
    the commands build."""

    @WRITER
    @hypothesis.given(DOCS)
    @hypothesis.example(EDGES)
    def test_matches_json_dumps(self, doc):
        assert cli._json(doc) == dumps(plain(doc))

    @WRITER
    @hypothesis.given(st.dictionaries(st.one_of(INTS, FLOATS, st.none(), st.booleans(),
                                                st.tuples(st.integers())),
                                      SCALARS, min_size=1, max_size=4))
    def test_non_str_keys_raise_type_error(self, doc):
        # json writes int, float, bool and None keys as strings; no command builds them
        with pytest.raises(TypeError):
            cli._json({"results": doc})

    @pytest.mark.parametrize("doc", [
        np.int64(3), [1.0, np.int64(3)], {"a": np.int64(3)}, [np.bool_(True)],
        cli.Table(t=[0, np.int64(1)], x=[1.0, 2.0]), {"rows": [{"x": {1, 2}}]},
        {(1, 2): 0}, {"a": 1, 2: 3}, [{"a": {0.5: 1, "b": 2}}],
        {"x": [np.float64(0.1), np.float64("nan")], "rows": [{"v": np.float64(-0.0)}, {"v": 2.5}]},
        {3: True, -1: [], 10: {2.5: None, -math.inf: 0}}, {True: 1, False: 2}, {None: [{}]},
        cli.Table(v=[np.float64(0.5)]), (1.0, 2.0), {"w": (1, 2)}, cli.Table(s=[{"a"}]),
        [np.float64(1.5), np.float64(2.5)], {"x": object()},
    ])
    def test_unsupported_values_raise_type_error(self, doc):
        # the exact types only: numpy scalars, float and int subclasses,
        # tuples, sets and non-str keys are not values a command builds
        with pytest.raises(TypeError):
            cli._json(doc)


def sweep():
    """Every argv the benchmark runs (bench/workloads.py, read as a script,
    at seeds 101 and 202), then edge argv: a long near-critical table, a
    curve of 3 replicas with no rate, a series cut at t, two chains only the
    pole correction reaches, and two exit-1 cases."""
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    workloads = runpy.run_path(str(bench))
    argvs = [argv for name in sorted(workloads["WHY"]) for seed in (101, 202)
             for argv in workloads["jobs"](name, seed)]
    near, worked = workloads["NEAR_CRITICAL"], workloads["WORKED"]
    edge = [(["tv", *near, "--t-max", "300"], 0),
            (["couple", *worked, "--replicas", "3"], 0),
            (["kernel", "--p", "1e-12", "--q", "0.5", "--i", "8", "--j", "0"], 1),
            (["tv", *worked, "--t-max", "3", "--series-tol", "1e-320"], 0),
            (["tv", "--p", "0.3", "--q", "0.30001", "--r", "0.39999", "--t-max", "20"], 0),
            (["kernel", "--p", "0.49", "--q", "0.4901", "--i", "2", "--j", "3", "--t-max", "20"],
             0),
            (["tv", "--p", "1e-8", "--q", "1e-4", "--t-max", "160", "--series-tol", "1e-320"], 1)]
    unique = {tuple(argv): 0 for argv in argvs}
    return list(unique.items()) + [(tuple(argv), code) for argv, code in edge]


@pytest.mark.parametrize("argv, code", sweep(), ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_document_bytes_are_json_dumps(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    if code:
        assert out == "" and err.startswith("kmmix: ")
    else:
        assert out == dumps(json.loads(out)) + "\n"


@pytest.mark.parametrize("argv", [argv for argv, code in sweep() if code == 0],
                         ids=" ".join)
def test_csv_bytes_are_the_document_columns(capsys, argv):
    # every column the JSON document holds, written as the CSV of the same job
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    code, csv, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert csv == oracles.csv_from_document(argv[0], json.loads(out))


def test_traced_jobs_match_untraced(capsys):
    """bench/tracing.py's Tracer, the per-layer run of the benchmark, reads
    target arguments by name (q_bracket_matrix's n_max and x among them):
    every traced job must exit 0 with the bytes of its untraced run, each
    counting target that runs having counted."""
    from kmmix import orthopoly, spectral
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    workloads = runpy.run_path(str(bench / "workloads.py"))
    tracing = runpy.run_path(str(bench / "tracing.py"))
    worked = workloads["WORKED"]
    jobs = workloads["route_probe"](101) + [["verify", *worked], ["tmix", *worked, "--eps", "1e-6"],
                                            ["analyze", *worked]]

    def run(argv):
        code = cli.main(list(argv))  # the module's binding, which the tracer wraps
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    untraced = [run(argv) for argv in jobs]
    # cold caches, so that the traced jobs build what they read
    for cache in (spectral.theta_nodes, spectral._plan, orthopoly._scale_table):
        cache.cache_clear()
    tracer = tracing["Tracer"]()
    rec = tracer.install()
    try:
        traced = [run(argv) for argv in jobs]
    finally:
        tracer.uninstall()
    assert all(code == 0 for code, _, _ in untraced)
    assert traced == untraced
    stats = rec.summary()
    counting = [t.span for t in tracing["TARGETS"]
                if t.count and t.span in stats and stats[t.span].calls]
    assert "orthopoly.q_bracket_matrix" in counting and "coupling.simulate" in counting
    assert all(stats[span].counts for span in counting)
    json.dumps({span: stats[span].counts for span in counting})  # the run record holds them

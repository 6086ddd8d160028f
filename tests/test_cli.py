import json

import numpy as np
import pytest

from kmmix import ChainParams, tv_lower, tv_upper
from kmmix.cli import main


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


@pytest.mark.parametrize("argv, flag", [
    (("tv", "--t-max", HUGE), "--t-max"),
    (("kernel", "--t-max", HUGE), "--t-max"),
    (("analyze", "--states", "100000000000"), "--states"),
    (("tv", "--t-max", "10000001"), "--t-max"),
    (("kernel", "--t-max", "10000001"), "--t-max"),
    (("analyze", "--states", "10000001"), "--states"),
])
def test_count_past_the_cap_exit_2(capsys, argv, flag):
    # refused before any time or state list is built: no traceback, no hang
    code, out, err = run_cli(capsys, argv[0], "--p", "1/11", "--q", "9/11", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"kmmix: {flag} must be at most 1e7")


@pytest.mark.parametrize("command", ["tv", "kernel", "analyze"])
def test_help_states_the_cap(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "at most 1e7" in capsys.readouterr().out


def test_cached_tables_do_not_leak_between_chains(capsys):
    # theta_nodes and the degree-scale table are cached per chain (and dtype):
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
    code, out, err = run_cli(capsys, "tv", "--p", "0.3", "--q", "0.32", "--r", "0.38",
                             "--t-max", "2", "--quad-nodes", "64")
    assert code == 1 and out == ""
    assert err.startswith("kmmix: tv_curve quadrature needs ")
    assert "past the node_count override of 64" in err


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
            lower, valid = tv_lower(chain, t)
            assert (row["tv_upper"], row["tv_lower"], row["lower_valid"]) == (
                tv_upper(chain, t), lower, valid), t

    def test_nan_series_tol_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "tv", "--p", "1/11", "--q", "9/11",
                                 "--t-max", "2", "--series-tol", "nan")
        assert code == 2 and out == ""
        assert err.startswith("kmmix: ") and "series_tol must be positive" in err


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

    @pytest.mark.parametrize("eps, expect", [("1e-300", 6551), ("1e-310", 6769)])
    def test_tiny_eps(self, capsys, eps, expect):
        code, out, _ = run_cli(capsys, "tmix", "--p", "1/11", "--q", "9/11", "--eps", eps)
        res = json.loads(out)["results"]
        assert code == 0
        assert res["t_mix_exact"] == res["t_mix_bound"] == expect

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
        bound = float(err.rsplit("achieved tail bound ", 1)[1].rstrip(")\n"))
        assert 0.0 < bound <= 1.0


class TestKernel:
    def test_uncertified_entry_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--p", "1/11", "--q", "9/11",
                                 "--i", "29", "--j", "0", "--t-max", "3")
        assert code == 1 and out == ""
        assert err.startswith("kmmix: ") and "cannot be certified" in err

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
                                       ("--horizon", "0", "--replicas", str(2 ** 32 + 1))])
    def test_overlapping_counter_blocks_exit_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "couple", "--p", "1/11", "--q", "9/11", *flags)
        assert code == 2 and out == ""
        assert err.startswith("kmmix: ") and "2^30" in err

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


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "analysis.json"
        code, out, _ = run_cli(capsys, "analyze", "--p", "1/11", "--q", "9/11",
                               "--output", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["results"]["m"] == pytest.approx(0.9, abs=1e-12)

"""Command-line interface: worked examples, determinism, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from conekit import load_spectrum
from conekit.cli import main
from conekit.verify import CheckResult, SuiteReport

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _parsed(text):
    """key=value lines -> dict."""
    out = {}
    for line in text.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


class TestThresholds:
    def test_critical_hardy_example(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--d", "4", "--c", "-1")
        assert code == 0
        got = _parsed(out)
        assert got["basis"] == "constant-c"
        assert float(got["p_lo"]) == pytest.approx(4.0 / 3.0, rel=1e-11)
        assert got["p_hi"] == "2"
        assert got["p_lo_exact"] == "4/3"
        assert got["p_hi_exact"] == "2"

    def test_subprocess_bytes_are_deterministic(self):
        cmd = [sys.executable, "-m", "conekit.cli", "thresholds", "--d", "4",
               "--c", "-1"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.startswith(b"basis=constant-c\np_lo=1.33333333333\np_hi=2\n")

    def test_mu0_direct(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--d", "3", "--mu0", "0.1")
        assert code == 0
        got = _parsed(out)
        assert got["basis"] == "general-V"
        assert float(got["p_lo"]) == pytest.approx(15.0 / 13.0, rel=1e-11)

    def test_zero_potential_uses_spectral_gap(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--d", "3", "--c", "0")
        assert code == 0
        got = _parsed(out)
        assert got["basis"] == "zero-V"
        assert got["p_lo"] == "1"
        assert got["p_hi"] == "inf"

    def test_spectrum_file_source(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        code, _, _ = run_cli(capsys, "spectrum", "--d", "3", "--c", "-0.24",
                             "--save", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "thresholds", "--spectrum-file", str(path))
        assert code == 0
        got = _parsed(out)
        assert got["basis"] == "constant-c"
        assert float(got["p_hi"]) == pytest.approx(15.0 / 7.0, rel=1e-11)


class TestKernel:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--d", "3", "--c", "0",
                               "--r", "0.2", "--rp", "1.0", "--gamma", "1.0")
        assert code == 0
        got = _parsed(out)
        ref = oracles.yukawa_kernel(0.2, 1.0, 1.0)
        assert float(got["value"]) == pytest.approx(ref, rel=1e-6)
        assert got["certified"] == "true"
        assert float(got["tail_bound"]) < 1e-8 * ref

    def test_lambda_flag(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--d", "3", "--c", "0",
                               "--r", "0.2", "--rp", "1.0", "--gamma", "1.0",
                               "--lambda", "2.5")
        assert code == 0
        ref = oracles.yukawa_kernel(0.2, 1.0, 1.0, lam=2.5)
        assert float(_parsed(out)["value"]) == pytest.approx(ref, rel=1e-6)

    def test_csv_sweep_schema(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--d", "3", "--c", "0",
                               "--r", "0.1,0.2,0.4", "--rp", "1.0",
                               "--gamma", "1.0", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# conekit-schema v1"
        assert lines[1] == "r,r_prime,gamma,lambda,value,tail_bound,modes_used,gauge"
        assert len(lines) == 5
        for line in lines[2:]:
            r, rp, gamma, lam, value = line.split(",")[:5]
            ref = oracles.yukawa_kernel(float(r), float(rp), float(gamma), float(lam))
            assert float(value) == pytest.approx(ref, rel=1e-6)

    def test_mismatched_sweep_lengths(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--d", "3", "--c", "0",
                               "--r", "0.1,0.2", "--rp", "1,2,3", "--gamma", "1")
        assert code == 1
        assert "length" in err

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["kernel", "--d", "3", "--c", "0", "--r", "0.2", "--rp", "1.0",
                "--gamma", "1.0"]
        _, stdout_text, _ = run_cli(capsys, *argv)
        path = tmp_path / "kernel.txt"
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == stdout_text


class TestRiesz:
    def test_far_right_report(self, capsys):
        code, out, _ = run_cli(capsys, "riesz", "--d", "3", "--c", "0",
                               "--r", "0.2", "--rp", "1.0", "--gamma", "1.0")
        assert code == 0
        got = _parsed(out)
        ref_r, ref_a = oracles.riesz_r3(0.2, 1.0, 1.0)
        assert float(got["d_r"]) == pytest.approx(ref_r, rel=1e-4)
        assert float(got["angular"]) == pytest.approx(ref_a, rel=1e-4)
        assert got["region"] == "far-right"
        assert float(got["ratio"]) > 0.0

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "riesz", "--d", "3", "--c", "0",
                               "--r", "0.2,0.5", "--rp", "1.0", "--gamma", "0.8",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# conekit-schema v1"
        assert lines[1] == ("region,r,r_prime,gamma,d_r_component,"
                            "angular_component,model_bound,ratio")
        first = lines[2].split(",")
        assert first[0] == "far-right" and len(first) == 8
        mid = lines[3].split(",")
        assert mid[0] == "mid" and mid[6] == "" and mid[7] == ""


class TestSpectrumCommand:
    def test_csv_listing(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "3", "--c", "0",
                               "--mu-cutoff", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# conekit-schema v1"
        assert lines[1] == "index,mu,multiplicity,pair_sup,grad_sup,label"
        assert lines[2].startswith("0,0.5,1,")

    def test_save_round_trips(self, capsys, tmp_path):
        path = tmp_path / "saved.json"
        code, _, _ = run_cli(capsys, "spectrum", "--d", "4", "--c", "0.5",
                             "--mu-cutoff", "6", "--save", str(path))
        assert code == 0
        spec = load_spectrum(path)
        assert spec.d == 4 and spec.v0_constant == 0.5

    def test_torus_source(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "3", "--torus", "1,1",
                               "--mu-cutoff", "3", "--format", "csv")
        assert code == 0
        rows = out.splitlines()[2:]
        assert rows[0].split(",")[1] == "0.5"
        assert rows[1].split(",")[2] == "4"


class TestVerifyCommand:
    def test_suite_passes_with_pass_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "bessel")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert "3/3 checks passed" in lines[-1]

    def test_failures_exit_two(self, capsys, monkeypatch):
        import conekit.cli as cli_mod
        fake = SuiteReport("euclid", (CheckResult("euclid.x", False, "boom", 0.0),))
        monkeypatch.setattr(cli_mod, "run_suite", lambda name, seed: fake)
        code, out, _ = run_cli(capsys, "verify", "--suite", "euclid")
        assert code == 2
        assert out.splitlines()[0].startswith("FAIL euclid.x")

    def test_unknown_suite_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 1
        assert "error:" in err


class TestProbeCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--d", "3", "--c", "-0.24",
                               "--p", "1.5", "--model", "t2", "--k-values", "2,4")
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "t2"
        assert payload["p"] == 1.5
        assert payload["k_values"] == [2, 4]
        assert len(payload["norms"]) == 2
        assert payload["verdict"] in ("stable", "growing", "inconclusive")
        assert payload["mu0"] == pytest.approx(0.1, rel=1e-9)


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 1

    def test_domain_error_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--d", "2", "--c", "0",
                               "--r", "1", "--rp", "1", "--gamma", "1")
        assert code == 1 and "error:" in err

    def test_positivity_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--d", "3", "--c", "-0.3")
        assert code == 1 and "error:" in err

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "spectrum")
        assert code == 1 and "--d" in err

    def test_bad_number_list(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--d", "3", "--c", "0",
                               "--r", "abc", "--rp", "1", "--gamma", "1")
        assert code == 1

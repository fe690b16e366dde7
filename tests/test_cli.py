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

    def test_value_past_float_range_prints_inf(self, capsys):
        # e^{-R}/(4 pi R) at R ~ 2.6e-310 is 1.70 * 2^1024.
        code, out, err = run_cli(capsys, "kernel", "--d", "3", "--r", "1e-310", "--rp", "3e-310",
                                 "--gamma", "1")
        assert code == 0 and err == ""
        got = _parsed(out)
        assert got["value"] == "inf" and got["certified"] == "true"
        assert math.isfinite(float(got["tail_bound"]))


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


# Spectrum files for the listings below: cosine coefficients on every mode
# (two entries at mu = 1.5 merge), none (a saved torus), and some.
_COEFFS_FILE = {"d": 3, "v0": "file", "modes": [
    {"mu": 1.5, "multiplicity": 2, "addition_coeffs": [0.1, 0.0, 0.05]},
    {"mu": 0.5, "multiplicity": 1, "addition_coeffs": [0.08]},
    {"mu": 1.5, "multiplicity": 1, "addition_coeffs": [0.0, 0.3]},
    {"mu": 2.5, "multiplicity": 3, "addition_coeffs": [0.0, -0.2]}]}
_MIXED_FILE = {"d": 4, "v0": "constant:0.5", "modes": [
    {"mu": 1.5, "multiplicity": 1, "addition_coeffs": [0.25]},
    {"mu": 2.0, "multiplicity": 4},
    {"mu": 3.0, "multiplicity": 2, "addition_coeffs": [0.0, 0.5]},
    {"mu": 3.5, "multiplicity": 6}]}
_NORMS_ONLY_FILE = {"d": 3, "v0": "constant:0.0", "modes": [
    {"mu": 0.5, "multiplicity": 1}, {"mu": 1.118033988749895, "multiplicity": 4},
    {"mu": 1.5, "multiplicity": 4}, {"mu": 2.0615528128088303, "multiplicity": 4},
    {"mu": 2.29128784747792, "multiplicity": 8}, {"mu": 2.8722813232690143, "multiplicity": 4}]}

_LISTINGS = {
    ("sphere", "text"): """\
d=3 cross_section=sphere(dim=2, radius=1) v0=constant:0.0 modes=4 mu0=0.5
  [  0] mu=0.5 mult=1 pair_sup=0.0795774715459 l=0
  [  1] mu=1.5 mult=3 pair_sup=0.238732414638 l=1
  [  2] mu=2.5 mult=5 pair_sup=0.39788735773 l=2
  [  3] mu=3.5 mult=7 pair_sup=0.557042300822 l=3
""",
    ("sphere", "csv"): """\
# conekit-schema v1
index,mu,multiplicity,pair_sup,grad_sup,label
0,0.5,1,0.0795774715459,0,l=0
1,1.5,3,0.238732414638,0.238732414638,l=1
2,2.5,5,0.39788735773,1.19366207319,l=2
3,3.5,7,0.557042300822,3.34225380493,l=3
""",
    ("torus", "text"): """\
d=3 cross_section=torus(radii=(1.0, 1.0)) v0=constant:0.0 modes=6 mu0=0.5
  [  0] mu=0.5 mult=1 pair_sup=0.0253302959106 lambda=0
  [  1] mu=1.11803398875 mult=4 pair_sup=0.101321183642 lambda=1
  [  2] mu=1.5 mult=4 pair_sup=0.101321183642 lambda=2
  [  3] mu=2.06155281281 mult=4 pair_sup=0.101321183642 lambda=4
  [  4] mu=2.29128784748 mult=8 pair_sup=0.202642367285 lambda=5
  [  5] mu=2.87228132327 mult=4 pair_sup=0.101321183642 lambda=8
""",
    ("torus", "csv"): """\
# conekit-schema v1
index,mu,multiplicity,pair_sup,grad_sup,label
0,0.5,1,0.0253302959106,0,lambda=0
1,1.11803398875,4,0.101321183642,0.101321183642,lambda=1
2,1.5,4,0.101321183642,0.143289792063,lambda=2
3,2.06155281281,4,0.101321183642,0.202642367285,lambda=4
4,2.29128784748,8,0.202642367285,0.45312210837,lambda=5
5,2.87228132327,4,0.101321183642,0.286579584125,lambda=8
""",
    ("coeffs", "text"): """\
d=3 cross_section=separation v0=file modes=3 mu0=0.5
  [  0] mu=0.5 mult=1 pair_sup=0.08
  [  1] mu=1.5 mult=3 pair_sup=0.45
  [  2] mu=2.5 mult=3 pair_sup=0.2
""",
    ("coeffs", "csv"): """\
# conekit-schema v1
index,mu,multiplicity,pair_sup,grad_sup,label
0,0.5,1,0.08,0,
1,1.5,3,0.45,0.4,
2,2.5,3,0.2,0.2,
""",
    ("norms-only", "text"): """\
d=3 cross_section=separation v0=constant:0.0 modes=6 mu0=0.5
  [  0] mu=0.5 mult=1
  [  1] mu=1.11803398875 mult=4
  [  2] mu=1.5 mult=4
  [  3] mu=2.06155281281 mult=4
  [  4] mu=2.29128784748 mult=8
  [  5] mu=2.87228132327 mult=4
""",
    ("norms-only", "csv"): """\
# conekit-schema v1
index,mu,multiplicity,pair_sup,grad_sup,label
0,0.5,1,,,
1,1.11803398875,4,,,
2,1.5,4,,,
3,2.06155281281,4,,,
4,2.29128784748,8,,,
5,2.87228132327,4,,,
""",
    ("mixed", "text"): """\
d=4 cross_section=separation v0=constant:0.5 modes=4 mu0=1.5
  [  0] mu=1.5 mult=1 pair_sup=0.25
  [  1] mu=2 mult=4
  [  2] mu=3 mult=2 pair_sup=0.5
  [  3] mu=3.5 mult=6
""",
    ("mixed", "csv"): """\
# conekit-schema v1
index,mu,multiplicity,pair_sup,grad_sup,label
0,1.5,1,0.25,0,
1,2,4,,,
2,3,2,0.5,0.5,
3,3.5,6,,,
""",
}


class TestSpectrumListingBytes:
    """``conekit spectrum`` output, byte for byte, for each kind of source."""

    @pytest.mark.parametrize("source, fmt", sorted(_LISTINGS))
    def test_listing(self, capsys, tmp_path, source, fmt):
        if source == "sphere":
            argv = ["--d", "3", "--mu-cutoff", "4"]
        elif source == "torus":
            argv = ["--d", "3", "--torus", "1,1", "--mu-cutoff", "3"]
        else:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"coeffs": _COEFFS_FILE, "norms-only": _NORMS_ONLY_FILE,
                                        "mixed": _MIXED_FILE}[source]))
            argv = ["--spectrum-file", str(path)]
        code, out, _ = run_cli(capsys, "spectrum", *argv, "--format", fmt)
        assert code == 0
        assert out == _LISTINGS[source, fmt]

    def test_saved_torus_is_the_norms_only_file(self, capsys, tmp_path):
        path = tmp_path / "torus.json"
        code, _, _ = run_cli(capsys, "spectrum", "--d", "3", "--torus", "1,1", "--mu-cutoff", "3",
                             "--save", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == _NORMS_ONLY_FILE


class TestVerifyCommand:
    def test_suite_passes_with_pass_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "bessel")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert "3/3 checks passed" in lines[-1]

    def test_every_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        lines = out.splitlines()
        assert code == 0 and all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "25/25 checks passed in suite 'all'"

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

    @pytest.mark.parametrize("cutoff", ["nan", "inf"])
    def test_non_finite_cutoff(self, capsys, cutoff):
        code, out, err = run_cli(capsys, "kernel", "--d", "3", "--r", "0.2", "--rp", "1",
                                 "--gamma", "1", "--mu-cutoff", cutoff)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "mu_cutoff" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("c", ["inf", "nan"])
    def test_non_finite_constant_potential(self, capsys, c):
        code, out, err = run_cli(capsys, "thresholds", "--d", "3", "--c", c)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "finite" in err and len(err.splitlines()) == 1

    def test_positivity_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--d", "3", "--c", "-0.3")
        assert code == 1 and "error:" in err

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "spectrum")
        assert code == 1 and "--d" in err

    def test_mu0_without_d(self, capsys):
        code, out, err = run_cli(capsys, "thresholds", "--mu0", "1.0")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--d" in err

    def test_separation_too_small_for_the_tau_rule(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--d", "3", "--r", "1", "--rp", "1", "--gamma", "1e-160")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "tau rule" in err and len(err.splitlines()) == 1

    def test_bad_number_list(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--d", "3", "--c", "0",
                               "--r", "abc", "--rp", "1", "--gamma", "1")
        assert code == 1

"""Command-line interface: worked examples, determinism, exit codes."""

import argparse
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conekit import (
    SUITES,
    ConePoint,
    ResolventRequest,
    cone_distance,
    load_spectrum,
    lp_norm_probe,
    resolvent_kernel,
    riesz_kernel,
    riesz_probe_kernel,
    run_suite,
    sphere_spectrum,
    threshold_interval,
    threshold_interval_zero_v,
)
from conekit.cli import _build_parser, main
from conekit.lpcheck import _riesz_models, offdiag_envelope
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


def _interval_lines(iv):
    """The lines ``thresholds`` prints for the interval ``iv``."""
    exact = [("p_lo_exact", iv.p_lo_exact), ("p_hi_exact", iv.p_hi_exact)]
    return [f"basis={iv.basis}", f"p_lo={iv.p_lo:.12g}", f"p_hi={iv.p_hi:.12g}",
            *(f"{name}={value}" for name, value in exact if value is not None)]


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

    @pytest.mark.parametrize("v0, basis", [("file", "general-V"), ("constant:0", "zero-V")])
    def test_spectrum_file_without_a_nonzero_constant(self, capsys, tmp_path, v0, basis):
        # A file's V0 of its own takes the general-V interval from mu0, a
        # zero constant the zero-V interval from mu1.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"d": 3, "v0": v0, "modes": [
            {"mu": 0.5, "multiplicity": 1}, {"mu": 1.7, "multiplicity": 3}]}))
        code, out, _ = run_cli(capsys, "thresholds", "--spectrum-file", str(path))
        assert code == 0
        spec = load_spectrum(path)
        iv = threshold_interval(3, spec.mu0) if basis == "general-V" else threshold_interval_zero_v(3, spec.mu1)
        assert iv.basis == basis
        assert out.splitlines() == _interval_lines(iv)

    @pytest.mark.parametrize("c", ["0", "0.5"])
    @pytest.mark.parametrize("source", [["--d", "3", "--radius", "-1"], ["--d", "3", "--torus", "1,nan"],
                                        ["--d", "4", "--torus", "1,1.3"]])
    def test_bad_cross_section_for_every_coupling(self, capsys, source, c):
        code, out, err = run_cli(capsys, "thresholds", *source, "--c", c)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("source", [["--d", "4"], ["--d", "4", "--radius", "2"], ["--d", "3", "--torus", "1,1"]])
    def test_critical_coupling_checks_the_cross_section_alone(self, capsys, source):
        # mu0 = 0 has an interval but no spectrum (sphere_spectrum refuses it).
        d = int(source[1])
        c = str(-((d - 2) / 2) ** 2)
        code, out, _ = run_cli(capsys, "thresholds", *source, "--c", c)
        assert code == 0
        assert _parsed(out)["basis"] == "constant-c" and _parsed(out)["p_hi"] == "2"


# (command line, the options it names as unread); FILE is a saved R^3 table.
_UNREAD = [
    (["thresholds", "--d", "3", "--c", "0.5", "--mu-cutoff", "nan"], ["--mu-cutoff"]),
    (["thresholds", "--d", "3", "--mu0", "0.1", "--radius", "-1", "--torus", "1,nan"], ["--radius", "--torus"]),
    (["thresholds", "--d", "3", "--mu0", "0.1", "--c", "0"], ["--c"]),
    (["thresholds", "--d", "3", "--mu0", "0.1", "--spectrum-file", "FILE"], ["--spectrum-file"]),
    (["thresholds", "--d", "3", "--c", "0.5", "--torus", "1,1.3", "--radius", "2"], ["--radius"]),
    (["spectrum", "--spectrum-file", "FILE", "--d", "7", "--c", "5", "--radius", "-1", "--mu-cutoff", "nan",
      "--torus", "1,nan"], ["--d", "--c", "--radius", "--torus", "--mu-cutoff"]),
    (["kernel", "--spectrum-file", "FILE", "--d", "9", "--c", "-100", "--r", "0.2", "--rp", "1", "--gamma", "1"],
     ["--d", "--c"]),
    (["thresholds", "--spectrum-file", "FILE", "--c", "0"], ["--c"]),
    (["spectrum", "--d", "3", "--torus", "1,1.3", "--radius", "-1"], ["--radius"]),
    (["riesz", "--d", "3", "--torus", "1,1.3", "--radius", "1", "--r", "0.2", "--rp", "1", "--gamma", "0.3"],
     ["--radius"]),
]


class TestSourcesRefuseUnreadOptions:
    # A source reads only its own options: a file none of the cone's, a torus
    # no radius, --mu0 only --d, and c != 0 with no file no table depth.
    # Each refusal names the option it would have ignored.
    @pytest.mark.parametrize("argv, ignored", _UNREAD, ids=[" ".join(argv) for argv, _ in _UNREAD])
    def test_refused(self, capsys, tmp_path, argv, ignored):
        path = tmp_path / "spec.json"
        assert run_cli(capsys, "spectrum", "--d", "3", "--save", str(path))[0] == 0
        code, out, err = run_cli(capsys, *(str(path) if arg == "FILE" else arg for arg in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert re.findall(r"--[a-z0-9-]+", err.split(" does not read ")[1]) == ignored

    def test_unset_coupling_is_the_library_default(self, capsys):
        # --c is unset, not 0, when not given; the spectrum is the library's c = 0 one.
        assert run_cli(capsys, "spectrum", "--d", "3") == run_cli(capsys, "spectrum", "--d", "3", "--c", "0")
        assert run_cli(capsys, "thresholds", "--d", "3") == run_cli(capsys, "thresholds", "--d", "3", "--c", "0")


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

    @pytest.mark.parametrize("command", ["kernel", "riesz"])
    def test_within_a_hair_of_the_diagonal(self, capsys, command):
        # 1 - s = 1e-7, past where the tail sum once raised ArithmeticError:
        # the value comes back flagged, with a finite bound.
        code, out, err = run_cli(capsys, command, "--d", "3", "--r", "0.9999999", "--rp", "1", "--gamma", "1")
        assert code == 0 and err == ""
        got = _parsed(out)
        bound = got["tail_bound" if command == "kernel" else "quad_error_est"]
        assert got["certified"] == "false" and math.isfinite(float(bound)), out

    def test_b_half_gauge(self, capsys):
        # The riemannian value times (r r')^{d/2-1}.  At these radii the
        # riemannian value is past float range and the b-half one is not.
        code, out, err = run_cli(capsys, "kernel", "--d", "3", "--r", "1e-310", "--rp", "3e-310",
                                 "--gamma", "1", "--gauge", "b-half")
        assert code == 0 and err == ""
        got = _parsed(out)
        r, rp = 1e-310, 3e-310
        R = r * cone_distance(1.0, rp / r, 1.0)
        want = math.sqrt(r) / R * math.sqrt(rp) * math.exp(-R) / (4.0 * math.pi)
        assert float(got["value"]) == pytest.approx(want, rel=1e-9)
        assert (got["gauge"], got["certified"]) == ("b-half", "true")


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

    def test_far_left_report(self, capsys):
        # r >= 4 r': the far-left model, alpha = d/2 + 1 + mu0.
        code, out, _ = run_cli(capsys, "riesz", "--d", "3", "--c", "0",
                               "--r", "4", "--rp", "1", "--gamma", "1")
        assert code == 0
        spec = sphere_spectrum(3)
        y, yp = spec.cross_section.points_at_separation(1.0)
        kv = riesz_kernel(spec, ConePoint(4.0, y), ConePoint(1.0, yp))
        model = offdiag_envelope(3, spec.mu0, "far-left", 4.0, 1.0)
        assert _parsed(out) == {
            "d_r": f"{kv.d_r:.12g}", "angular": f"{kv.angular:.12g}", "magnitude": f"{kv.magnitude:.12g}",
            "quad_error_est": f"{kv.quad_error_est:.12g}", "certified": "true", "tail_kind": "rigorous",
            "modes_used": str(kv.modes_used), "region": "far-left", "model_bound": f"{model:.12g}",
            "ratio": f"{kv.magnitude / model:.12g}",
        }


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
_MIXED_FILE = {"d": 4, "v0": "constant:1.25", "modes": [
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
d=4 cross_section=separation v0=constant:1.25 modes=4 mu0=1.5
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
        assert "4/4 checks passed" in lines[-1]

    def test_every_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        lines = out.splitlines()
        assert code == 0 and all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "26/26 checks passed in suite 'all'"

    def test_failures_exit_two(self, capsys, monkeypatch):
        # The command looks run_suite up when it runs, and passes no seed it was not given.
        fake = SuiteReport("euclid", (CheckResult("euclid.x", False, "boom", 0.0),))
        monkeypatch.setattr("conekit.verify.run_suite", lambda name: fake)
        code, out, _ = run_cli(capsys, "verify", "--suite", "euclid")
        assert code == 2
        assert out.splitlines()[0].startswith("FAIL euclid.x")

    def test_unknown_suite_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 1 and out == ""
        assert err.startswith("error: ")


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

    def test_riesz_model(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--d", "3", "--c", "-0.24", "--p", "1.5",
                               "--model", "riesz", "--k-values", "1,2", "--points-per-octave", "2")
        assert code == 0
        res = lp_norm_probe(riesz_probe_kernel(sphere_spectrum(3, c=-0.24)), 3, 1.5,
                            k_values=(1, 2), points_per_octave=2)
        payload = json.loads(out)
        assert payload["model"] == "riesz" and payload["k_values"] == [1, 2]
        assert payload["norms"] == [float(f"{x:.12g}") for x in res.norms]
        assert payload["iterations"] == list(res.iterations)
        assert payload["verdict"] == res.verdict


_POINT = ["--r", "0.2", "--rp", "1", "--gamma", "1"]


def _kernel_report(spec, **options):
    """The key=value pairs ``conekit kernel`` prints at _POINT: the library's value with ``options``."""
    y, yp = spec.cross_section.points_at_separation(1.0)
    kv = resolvent_kernel(ResolventRequest(spec, ConePoint(0.2, y), ConePoint(1.0, yp), **options))
    return {"value": f"{kv.float_value():.12g}", "tail_bound": f"{kv.float_tail_bound():.12g}",
            "modes_used": str(kv.modes_used), "certified": "true" if kv.certified else "false",
            "tail_kind": kv.tail_kind, "gauge": "riemannian"}


def _probe_report(kernel, **options):
    """The norms and iterations ``conekit probe --d 3 --c -0.24 --p 1.5`` prints for ``kernel``."""
    res = lp_norm_probe(kernel, 3, 1.5, **options)
    return {"k_values": list(res.k_values), "norms": [float(f"{x:.12g}") for x in res.norms],
            "iterations": list(res.iterations)}


def _probed(out):
    payload = json.loads(out)
    return {key: payload[key] for key in ("k_values", "norms", "iterations")}


class TestForwardedOptions:
    """An option the CLI only passes on: set, it prints the library's result
    for that value; unset, the result of the call without it.  Each value
    changes the result, so the option does reach the library."""

    def _cli(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return out

    def test_kernel_rel_tol(self, capsys):
        spec = sphere_spectrum(3)
        unset, given = _kernel_report(spec), _kernel_report(spec, rel_tol=1e-3)
        assert unset != given
        assert _parsed(self._cli(capsys, "kernel", "--d", "3", *_POINT)) == unset
        assert _parsed(self._cli(capsys, "kernel", "--d", "3", *_POINT, "--rel-tol", "1e-3")) == given

    def test_radius(self, capsys):
        unset, given = _kernel_report(sphere_spectrum(3)), _kernel_report(sphere_spectrum(3, radius=1.5))
        assert unset != given
        assert _parsed(self._cli(capsys, "kernel", "--d", "3", *_POINT, "--radius", "1.5")) == given

    def test_mu_cutoff(self, capsys):
        def listing(out):
            return [row.split(",")[1] for row in out.splitlines()[2:]]

        unset, given = ([f"{mu:.12g}" for mu in spec.table.mu.tolist()]
                        for spec in (sphere_spectrum(3), sphere_spectrum(3, mu_cutoff=5.0)))
        assert unset != given
        assert listing(self._cli(capsys, "spectrum", "--d", "3", "--format", "csv")) == unset
        assert listing(self._cli(capsys, "spectrum", "--d", "3", "--format", "csv", "--mu-cutoff", "5")) == given

    def test_riesz_rel_tol(self, capsys):
        spec = sphere_spectrum(3)
        y, yp = spec.cross_section.points_at_separation(1.0)

        def report(**options):
            kv = riesz_kernel(spec, ConePoint(4.0, y), ConePoint(1.0, yp), **options)
            return {"d_r": f"{kv.d_r:.12g}", "angular": f"{kv.angular:.12g}",
                    "quad_error_est": f"{kv.quad_error_est:.12g}", "modes_used": str(kv.modes_used)}

        def printed(*argv):
            got = _parsed(self._cli(capsys, "riesz", "--d", "3", "--r", "4", "--rp", "1", "--gamma", "1", *argv))
            return {key: got[key] for key in ("d_r", "angular", "quad_error_est", "modes_used")}

        unset, given = report(), report(rel_tol=1e-3)
        assert unset != given
        assert printed() == unset
        assert printed("--rel-tol", "1e-3") == given

    @pytest.mark.parametrize("option, value, options", [
        ("--separation", "0.4", {"separation": 0.4}), ("--rel-tol", "1e-2", {"rel_tol": 1e-2})])
    def test_riesz_probe(self, capsys, option, value, options):
        spec = sphere_spectrum(3, c=-0.24)
        grid = {"k_values": (1, 2), "points_per_octave": 2}
        unset = _probe_report(riesz_probe_kernel(spec), **grid)
        given = _probe_report(riesz_probe_kernel(spec, **options), **grid)
        assert unset != given
        argv = ["probe", "--d", "3", "--c", "-0.24", "--p", "1.5", "--model", "riesz",
                "--k-values", "1,2", "--points-per-octave", "2"]
        assert _probed(self._cli(capsys, *argv)) == unset
        assert _probed(self._cli(capsys, *argv, option, value)) == given

    @pytest.mark.parametrize("option, value, options", [
        ("--k-values", "2,4", {"k_values": (2, 4)}), ("--points-per-octave", "2", {"points_per_octave": 2})])
    def test_probe_grid(self, capsys, option, value, options):
        t2 = _riesz_models(3, sphere_spectrum(3, c=-0.24).mu0)[0].kernel
        unset, given = _probe_report(t2), _probe_report(t2, **options)
        assert unset != given
        argv = ["probe", "--d", "3", "--c", "-0.24", "--p", "1.5"]
        assert _probed(self._cli(capsys, *argv)) == unset
        assert _probed(self._cli(capsys, *argv, option, value)) == given

    def test_verify_seed(self, capsys):
        def report(**options):
            return [(r.passed, r.name, r.detail) for r in run_suite("bessel", **options).results]

        def printed(*argv):
            lines = self._cli(capsys, "verify", "--suite", "bessel", *argv).splitlines()[:-1]
            return [(status == "PASS", name, detail) for status, name, _, detail in
                    (re.fullmatch(r"(\w+) (\S+) (\[\S+\]) (.*)", line).groups() for line in lines)]

        unset, given = report(), report(seed=7)
        assert unset != given
        assert printed() == unset
        assert printed("--seed", "7") == given


def _option(command, dest):
    """The argparse action of subcommand ``command``'s option ``dest``."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def _default(func, name):
    return inspect.signature(func).parameters[name].default


_REQUEST_FIELD_VALUES = {field.name: field.default for field in dataclasses.fields(ResolventRequest)}

# A command line for each command that only passes options on.
_FORWARDING_RUNS = {
    "kernel": ["kernel", "--d", "3", *_POINT],
    "riesz": ["riesz", "--d", "3", "--r", "4", "--rp", "1", "--gamma", "1"],
    "probe": ["probe", "--d", "3", "--c", "-0.24", "--p", "1.5", "--model", "riesz", "--k-values", "1,2"],
}


class TestOptionsRepeatTheLibrary:
    # The CLI keeps no copy of a library default: an option it only passes
    # on has no default of its own, and unset it prints what the command
    # prints given the library's default ``want``, read from the library.
    # The gauge is the CLI's own option (the library returns the riemannian
    # kernel, and b-half is its one rescale), and run_suite's error is the
    # one list of suite names.
    @pytest.mark.parametrize("command, dest, attr, want", [
        ("kernel", "rel_tol", "default", _REQUEST_FIELD_VALUES["rel_tol"]),
        ("kernel", "gauge", "default", "riemannian"),
        ("kernel", "gauge", "choices", ("riemannian", "b-half")),
        ("riesz", "rel_tol", "default", _default(riesz_kernel, "rel_tol")),
        ("verify", "suite", "choices", ("all", *SUITES)),
        ("probe", "separation", "default", _default(riesz_probe_kernel, "separation")),
        ("probe", "rel_tol", "default", _default(riesz_probe_kernel, "rel_tol")),
        ("probe", "points_per_octave", "default", _default(lp_norm_probe, "points_per_octave")),
    ])
    def test_option(self, capsys, command, dest, attr, want):
        if dest == "gauge":
            assert getattr(_option(command, dest), attr) == want
        elif dest == "suite":
            assert _option(command, dest).choices is None
            code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
            assert code == 1 and all(repr(name) in err for name in want)
        else:
            assert _option(command, dest).default is argparse.SUPPRESS
            argv = _FORWARDING_RUNS[command]
            assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--" + dest.replace("_", "-"), str(want))

    def test_probe_k_values(self, capsys):
        assert _option("probe", "k_values").default is argparse.SUPPRESS
        argv = ["probe", "--d", "3", "--c", "-0.24", "--p", "1.5"]
        given = ",".join(map(str, _default(lp_norm_probe, "k_values")))
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--k-values", given)


def test_kernel_and_spectrum_commands_load_no_other_layer():
    # A command imports the layers it uses when it runs: a resolvent value
    # and a sphere listing need neither the Riesz, L^p and verify layers
    # nor the spectrum-file format and its json.
    code = "\n".join([
        "import sys",
        "from conekit import cli",
        "assert cli.main(['kernel', '--d', '3', '--r', '0.2', '--rp', '1', '--gamma', '1']) == 0",
        "assert cli.main(['spectrum', '--d', '3']) == 0",
        "layers = ('conekit.lpcheck', 'conekit.riesz', 'conekit.verify', 'conekit.specfile', 'json')",
        "loaded = [name for name in layers if name in sys.modules]",
        "assert not loaded, loaded",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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

    @pytest.mark.parametrize("source, named", [
        (["--c", "1e20"], "c = 1e+20 on sphere(dim=2, radius=1)"),
        (["--c", "1e40"], "c = 1e+40 on sphere(dim=2, radius=1)"),
        (["--c", "1e60"], "c = 1e+60 on sphere(dim=2, radius=1)"),
        (["--c", "1e300"], "c = 1e+300 on sphere(dim=2, radius=1)"),
        (["--radius", "1e150"], "c = 0.0 on sphere(dim=2, radius=1e+150)"),
        (["--torus", "1,1.3", "--c", "1e20"], "c = 1e+20 on torus(radii=(1.0, 1.3))"),
        (["--torus", "1,1.3", "--c", "1e40"], "c = 1e+40 on torus(radii=(1.0, 1.3))"),
        (["--radius", "1e300"], "the 2-sphere of radius 1e+300"),
        (["--radius", "1e-160"], "the 2-sphere of radius 1e-160"),
        (["--torus", "1e-200,1e-200"], "the torus of radii (1e-200, 1e-200)"),
    ])
    def test_out_of_range_coupling_or_cross_section(self, capsys, source, named):
        # Each was a traceback, a memory request or an error naming no input.
        code, out, err = run_cli(capsys, "kernel", "--d", "3", *source, "--r", "0.5", "--rp", "1", "--gamma", "0.3")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {named}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, named", [
        (["spectrum", "--d", "3", "--torus", ""], "torus radii must be finite and > 0, got ()"),
        (["kernel", "--spectrum-file", "", "--d", "3", "--r", "0.2", "--rp", "1", "--gamma", "1"],
         "--spectrum-file does not read --d"),
        (["spectrum", "--d", "3", "--save", ""], "[Errno 2] No such file or directory: ''"),
        (["thresholds", "--d", "3", "--out", ""], "[Errno 2] No such file or directory: ''"),
    ], ids=["torus", "spectrum-file", "save", "out"])
    def test_empty_option_value_is_refused(self, capsys, argv, named):
        # An empty value is the option given, not unset: each was read as
        # unset and printed the sphere, evaluated on it, saved nothing or
        # wrote to stdout, exiting 0.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {named}") and len(err.splitlines()) == 1

    def test_largest_coupling_with_two_lowest_modes_apart_evaluates(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--d", "3", "--c", "1e16", "--r", "0.5", "--rp", "1", "--gamma", "0.3")
        assert code == 0 and _parsed(out)["tail_kind"] == "rigorous"

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

    def test_thresholds_without_a_source(self, capsys):
        code, out, err = run_cli(capsys, "thresholds")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--spectrum-file" in err

    def test_separation_too_small_for_the_tau_rule(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--d", "3", "--r", "1", "--rp", "1", "--gamma", "1e-160")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "tau rule" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("argv", [
        ["riesz", "--d", "3", "--r", "", "--rp", "", "--gamma", ""],
        ["kernel", "--d", "3", "--r", "", "--rp", "", "--gamma", "", "--lambda", ""],
    ], ids=["riesz", "kernel"])
    def test_sweep_without_numbers(self, capsys, argv, fmt):
        # Each was a traceback (text) or a header with no rows, exiting 0 (csv).
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith("error: sweep lists need at least one number each") and len(err.splitlines()) == 1

    def test_bad_number_list(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--d", "3", "--c", "0",
                               "--r", "abc", "--rp", "1", "--gamma", "1")
        assert code == 1

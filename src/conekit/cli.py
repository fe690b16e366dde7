"""Command-line interface.

Subcommands:

* ``spectrum``   - build or load a cross-section mode table; print or save it.
* ``thresholds`` - exact L^p boundedness interval of the Riesz transform.
* ``kernel``     - resolvent kernel values (single point or zipped sweep).
* ``riesz``      - Riesz transform kernel values with model-bound ratios.
* ``verify``     - run a named verification suite (PASS/FAIL per check).
* ``probe``      - numerical L^p operator-norm probe across nested grids.

Numeric output is deterministic: floats print with 12 significant digits
and CSV bodies follow the ``# conekit-schema v1`` header.  Exit codes:
0 success, 1 configuration or domain error, 2 verification failure.
Sweeps run in input order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .config import DEFAULTS
from .errors import ConekitError
from .geometry import ConePoint
from .lpcheck import _riesz_models, lp_norm_probe, riesz_probe_kernel
from .resolvent import ResolventRequest, resolvent_kernel
from .riesz import (
    offdiag_envelope,
    riesz_kernel,
    threshold_interval,
    threshold_interval_constant,
    threshold_interval_zero_v,
)
from .spectrum import (
    load_spectrum,
    save_spectrum,
    sphere_spectrum,
    torus_spectrum,
)
from .verify import SUITES, run_suite

SCHEMA_HEADER = "# conekit-schema v1"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _numbers(text: str, kind=float):
    """A comma-separated list of ``kind`` (float or int)."""
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise _UsageError(f"expected a comma-separated list of {what}, got {text!r}") from exc


def _broadcast(columns):
    """Zip-broadcast sweep columns: scalars repeat to the longest length."""
    n = max(len(c) for c in columns)
    out = []
    for c in columns:
        if len(c) == n:
            out.append(c)
        elif len(c) == 1:
            out.append(c * n)
        else:
            raise _UsageError(
                f"sweep lists must have equal length or length 1 (got lengths "
                f"{[len(c) for c in columns]})"
            )
    return list(zip(*out))


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _add_source_args(sub, need_point=False):
    sub.add_argument("--d", type=int, help="cone dimension (>= 3)")
    sub.add_argument("--c", type=float, default=0.0,
                     help="constant potential V0 = c (default 0)")
    sub.add_argument("--radius", type=float, default=1.0,
                     help="sphere cross-section radius (default 1)")
    sub.add_argument("--torus", type=str, default=None,
                     help="torus cross-section radii, comma-separated")
    sub.add_argument("--mu-cutoff", type=float, default=None,
                     help="mode-table depth override")
    sub.add_argument("--spectrum-file", type=str, default=None,
                     help="load the cross-section spectrum from a JSON file")
    if need_point:
        sub.add_argument("--r", type=str, required=True, help="first radius (or comma list)")
        sub.add_argument("--rp", type=str, required=True, help="second radius (or comma list)")
        sub.add_argument("--gamma", type=str, required=True,
                         help="cross-sectional separation (or comma list)")


def _spectrum_from(args):
    if args.spectrum_file:
        return load_spectrum(args.spectrum_file)
    if args.d is None:
        raise _UsageError("either --spectrum-file or --d is required")
    if args.torus:
        return torus_spectrum(args.d, _numbers(args.torus), c=args.c,
                              mu_cutoff=args.mu_cutoff)
    return sphere_spectrum(args.d, radius=args.radius, c=args.c,
                           mu_cutoff=args.mu_cutoff)


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    spec = _spectrum_from(args)
    if args.save:
        save_spectrum(spec, args.save)
    table = spec.table
    rows = enumerate(zip(table.mu.tolist(), table.mult.tolist(), table.pair_sup.tolist(),
                         table.grad_sup.tolist(), table.labels()))
    sup = lambda v: "" if math.isnan(v) else _fmt(v)  # NaN: a file mode without coefficients
    if args.format == "csv":
        lines = [SCHEMA_HEADER, "index,mu,multiplicity,pair_sup,grad_sup,label"]
        for j, (mu, mult, pair_sup, grad_sup, label) in rows:
            lines.append(f"{j},{_fmt(mu)},{int(mult)},{sup(pair_sup)},{sup(grad_sup)},{label}")
    else:
        lines = [spec.descriptor()]
        for j, (mu, mult, pair_sup, _, label) in rows:
            lines.append(
                f"  [{j:3d}] mu={_fmt(mu)} mult={int(mult)}"
                + (f" pair_sup={_fmt(pair_sup)}" if not math.isnan(pair_sup) else "")
                + (f" {label}" if label else "")
            )
    _emit(args, "\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------

def _cmd_thresholds(args) -> int:
    if args.mu0 is not None:
        if args.d is None:
            raise _UsageError("--mu0 needs --d")
        iv = threshold_interval(args.d, args.mu0)
    elif args.spectrum_file:
        spec = load_spectrum(args.spectrum_file)
        c = spec.v0_constant
        if c is None:
            iv = threshold_interval(spec.d, spec.mu0)
        elif c == 0.0:
            iv = threshold_interval_zero_v(spec.d, spec.mu1)
        else:
            iv = threshold_interval_constant(spec.d, c)
    else:
        if args.d is None:
            raise _UsageError("--d is required (with --c or --mu0), or use --spectrum-file")
        if args.c == 0.0:
            spec = _spectrum_from(args)
            iv = threshold_interval_zero_v(spec.d, spec.mu1)
        else:
            iv = threshold_interval_constant(args.d, args.c)
    lines = [
        f"basis={iv.basis}",
        f"p_lo={_fmt(iv.p_lo)}",
        f"p_hi={_fmt(iv.p_hi)}",
    ]
    if iv.p_lo_exact is not None:
        lines.append(f"p_lo_exact={iv.p_lo_exact}")
    if iv.p_hi_exact is not None:
        lines.append(f"p_hi_exact={iv.p_hi_exact}")
    _emit(args, "\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------

def _cmd_kernel(args) -> int:
    spec = _spectrum_from(args)
    cs = spec.cross_section
    rows = _broadcast([_numbers(args.r), _numbers(args.rp), _numbers(args.gamma),
                       _numbers(args.lam_list)])

    def one(row):
        r, rp, gamma, lam = row
        y, yp = cs.points_at_separation(gamma)
        kv = resolvent_kernel(
            ResolventRequest(spec, ConePoint(r, y), ConePoint(rp, yp), lam=lam,
                             rel_tol=args.rel_tol, density_gauge=args.gauge)
        )
        return row, kv

    results = [one(row) for row in rows]
    if args.format == "csv" or len(rows) > 1:
        lines = [SCHEMA_HEADER, "r,r_prime,gamma,lambda,value,tail_bound,modes_used,gauge"]
        for (r, rp, gamma, lam), kv in results:
            lines.append(
                f"{_fmt(r)},{_fmt(rp)},{_fmt(gamma)},{_fmt(lam)},"
                f"{_fmt(kv.float_value())},{_fmt(kv.float_tail_bound())},"
                f"{kv.modes_used},{kv.gauge}"
            )
    else:
        (_, kv), = results
        lines = [
            f"value={_fmt(kv.float_value())}",
            f"tail_bound={_fmt(kv.float_tail_bound())}",
            f"modes_used={kv.modes_used}",
            f"certified={_fmt(kv.certified)}",
            f"tail_kind={kv.tail_kind}",
            f"gauge={kv.gauge}",
        ]
    _emit(args, "\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# riesz
# ----------------------------------------------------------------------

def _riesz_region(r, rp):
    if r <= 0.25 * rp:
        return "far-right"
    if rp <= 0.25 * r:
        return "far-left"
    return "mid"


def _cmd_riesz(args) -> int:
    spec = _spectrum_from(args)
    cs = spec.cross_section
    rows = _broadcast([_numbers(args.r), _numbers(args.rp), _numbers(args.gamma)])

    def one(row):
        r, rp, gamma = row
        y, yp = cs.points_at_separation(gamma)
        kv = riesz_kernel(spec, ConePoint(r, y), ConePoint(rp, yp), rel_tol=args.rel_tol)
        region = _riesz_region(r, rp)
        model = None if region == "mid" else offdiag_envelope(spec.d, spec.mu0, region, r, rp)
        return row, kv, region, model

    results = [one(row) for row in rows]
    if args.format == "csv" or len(rows) > 1:
        lines = [SCHEMA_HEADER,
                 "region,r,r_prime,gamma,d_r_component,angular_component,model_bound,ratio"]
        for (r, rp, gamma), kv, region, model in results:
            mcol = _fmt(model) if model is not None else ""
            rcol = _fmt(kv.magnitude / model) if model is not None else ""
            lines.append(
                f"{region},{_fmt(r)},{_fmt(rp)},{_fmt(gamma)},"
                f"{_fmt(kv.d_r)},{_fmt(kv.angular)},{mcol},{rcol}"
            )
    else:
        (row, kv, region, model), = results
        lines = [
            f"d_r={_fmt(kv.d_r)}",
            f"angular={_fmt(kv.angular)}",
            f"magnitude={_fmt(kv.magnitude)}",
            f"quad_error_est={_fmt(kv.quad_error_est)}",
            f"certified={_fmt(kv.certified)}",
            f"tail_kind={kv.tail_kind}",
            f"modes_used={kv.modes_used}",
            f"region={region}",
        ]
        if model is not None:
            lines.append(f"model_bound={_fmt(model)}")
            lines.append(f"ratio={_fmt(kv.magnitude / model)}")
    _emit(args, "\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    rep = run_suite(args.suite, seed=args.seed)
    lines = []
    for r in rep.results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name} [{r.elapsed:.2f}s] {r.detail}")
    n_pass = sum(r.passed for r in rep.results)
    lines.append(f"{n_pass}/{len(rep.results)} checks passed in suite '{rep.suite}'")
    _emit(args, "\n".join(lines))
    return 0 if rep.passed else 2


# ----------------------------------------------------------------------
# probe
# ----------------------------------------------------------------------

def _cmd_probe(args) -> int:
    spec = _spectrum_from(args)
    d, mu0 = spec.d, spec.mu0
    if args.model == "riesz":
        kernel = riesz_probe_kernel(spec, separation=args.separation, rel_tol=args.rel_tol)
    else:
        t2, t3 = _riesz_models(d, mu0)  # the far-right and far-left models
        kernel = (t2 if args.model == "t2" else t3).kernel
    res = lp_norm_probe(kernel, d, args.p, k_values=_numbers(args.k_values, int),
                        points_per_octave=args.points_per_octave)
    payload = {
        "model": args.model,
        "d": d,
        "mu0": float(f"{mu0:.12g}"),
        "p": float(f"{res.p:.12g}"),
        "k_values": list(res.k_values),
        "norms": [float(f"{x:.12g}") for x in res.norms],
        "verdict": res.verdict,
        "iterations": list(res.iterations),
    }
    _emit(args, json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="conekit",
                description="Resolvent and Riesz-transform kernels on metric cones.")
    p.add_argument("--version", action="version", version=f"conekit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    # Every subcommand writes its output to --out, or to stdout without it.
    out = _Parser(add_help=False)
    out.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("spectrum", help="build or load a cross-section mode table", parents=[out])
    _add_source_args(sp)
    sp.add_argument("--save", type=str, default=None, help="also save the table as JSON")
    sp.add_argument("--format", choices=("text", "csv"), default="text")
    sp.set_defaults(handler=_cmd_spectrum)

    th = sub.add_parser("thresholds", help="exact L^p boundedness interval", parents=[out])
    _add_source_args(th)
    th.add_argument("--mu0", type=float, default=None,
                    help="bottom exponent directly (general-V basis)")
    th.set_defaults(handler=_cmd_thresholds)

    ke = sub.add_parser("kernel", help="resolvent kernel values", parents=[out])
    _add_source_args(ke, need_point=True)
    ke.add_argument("--lambda", dest="lam_list", type=str, default="1",
                    help="spectral parameter (or comma list)")
    ke.add_argument("--rel-tol", type=float, default=DEFAULTS.kernel_rel_tol)
    ke.add_argument("--gauge", choices=("riemannian", "b-half"), default="riemannian")
    ke.add_argument("--format", choices=("text", "csv"), default="text")
    ke.set_defaults(handler=_cmd_kernel)

    ri = sub.add_parser("riesz", help="Riesz transform kernel values", parents=[out])
    _add_source_args(ri, need_point=True)
    ri.add_argument("--rel-tol", type=float, default=DEFAULTS.riesz_rel_tol)
    ri.add_argument("--format", choices=("text", "csv"), default="text")
    ri.set_defaults(handler=_cmd_riesz)

    ve = sub.add_parser("verify", help="run a verification suite", parents=[out])
    ve.add_argument("--suite", choices=("all", *SUITES), default="all")
    ve.add_argument("--seed", type=int, default=1234)
    ve.set_defaults(handler=_cmd_verify)

    pr = sub.add_parser("probe", help="numerical L^p norm probe", parents=[out])
    _add_source_args(pr)
    pr.add_argument("--p", type=float, required=True)
    pr.add_argument("--model", choices=("t2", "t3", "riesz"), default="t2")
    pr.add_argument("--k-values", type=str, default="4,10,16")
    pr.add_argument("--points-per-octave", type=int, default=4)
    pr.add_argument("--separation", type=float, default=0.7)
    pr.add_argument("--rel-tol", type=float, default=1e-4)
    pr.set_defaults(handler=_cmd_probe)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, ConekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

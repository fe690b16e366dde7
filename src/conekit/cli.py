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
Sweeps run in input order.  An option a command only passes on to the
library takes the library's default when unset.  Each command imports
the layers it uses when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import __version__
from .errors import ConekitError
from .geometry import ConePoint
from .resolvent import ResolventRequest, _b_half, resolvent_kernel
from .spectrum import _cross_section, sphere_spectrum, torus_spectrum

SCHEMA_HEADER = "# conekit-schema v1"


def _fmt(x) -> str:
    if x is None:  # an empty CSV field
        return ""
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


def _given(args, *names) -> dict:
    """The options among ``names`` that the user set, to pass on as keywords."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


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


def _print_sweep(args, columns, header: str, evaluate) -> int:
    """Evaluate the broadcast rows of ``columns`` in order and print them.

    ``evaluate(row)`` returns the row's CSV fields and its key=value pairs.
    The rows print as CSV under ``--format csv`` or when there is more than
    one, else as the one row's key=value lines.
    """
    results = [evaluate(row) for row in _broadcast([_numbers(c) for c in columns])]
    if args.format == "csv" or len(results) > 1:
        _emit(args, "\n".join([SCHEMA_HEADER, header] + [",".join(map(_fmt, fields)) for fields, _ in results]))
    else:
        (_, pairs), = results
        _emit(args, _key_values(pairs))
    return 0


def _key_values(pairs: dict) -> str:
    """key=value lines, leaving out a pair whose value is None."""
    return "\n".join(f"{key}={_fmt(value)}" for key, value in pairs.items() if value is not None)


def _emit(args, text: str) -> None:
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text + "\n")


def _add_source_args(sub, need_point=False):
    sub.add_argument("--d", type=int, help="cone dimension (>= 3)")
    sub.add_argument("--c", type=float, default=0.0,
                     help="constant potential V0 = c (default 0)")
    sub.add_argument("--radius", type=float, default=argparse.SUPPRESS,
                     help="sphere cross-section radius")
    sub.add_argument("--torus", type=str, default=None,
                     help="torus cross-section radii, comma-separated")
    sub.add_argument("--mu-cutoff", type=float, default=argparse.SUPPRESS,
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
        from .specfile import load_spectrum

        return load_spectrum(args.spectrum_file)
    if args.d is None:
        raise _UsageError("either --spectrum-file or --d is required")
    if args.torus:
        return torus_spectrum(args.d, _numbers(args.torus), c=args.c, **_given(args, "mu_cutoff"))
    return sphere_spectrum(args.d, c=args.c, **_given(args, "radius", "mu_cutoff"))


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    spec = _spectrum_from(args)
    if args.save:
        from .specfile import save_spectrum

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
    from .lpcheck import threshold_interval, threshold_interval_constant, threshold_interval_zero_v

    if args.mu0 is not None:
        if args.d is None:
            raise _UsageError("--mu0 needs --d")
        iv = threshold_interval(args.d, args.mu0)
    elif args.spectrum_file or args.c == 0.0:
        spec = _spectrum_from(args)
        c = spec.v0_constant
        if c is None:
            iv = threshold_interval(spec.d, spec.mu0)
        elif c == 0.0:
            iv = threshold_interval_zero_v(spec.d, spec.mu1)
        else:
            iv = threshold_interval_constant(spec.d, c)
    else:  # c != 0 needs the cross-section alone: the critical coupling has an interval but no spectrum
        iv = threshold_interval_constant(args.d, args.c)
        _cross_section(args.d, _numbers(args.torus) if args.torus else None, **_given(args, "radius"))
    _emit(args, _key_values({"basis": iv.basis, "p_lo": iv.p_lo, "p_hi": iv.p_hi,
                             "p_lo_exact": iv.p_lo_exact, "p_hi_exact": iv.p_hi_exact}))
    return 0


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------

def _cmd_kernel(args) -> int:
    spec = _spectrum_from(args)
    cs = spec.cross_section

    def one(row):
        r, rp, gamma, lam = row
        y, yp = cs.points_at_separation(gamma)
        kv = resolvent_kernel(ResolventRequest(spec, ConePoint(r, y), ConePoint(rp, yp), lam=lam,
                                               **_given(args, "rel_tol")))
        if args.gauge == "b-half":
            kv = _b_half(kv, spec.d, r, rp)
        value, tail = kv.float_value(), kv.float_tail_bound()
        return [*row, value, tail, kv.modes_used, args.gauge], {
            "value": value, "tail_bound": tail, "modes_used": kv.modes_used,
            "certified": kv.certified, "tail_kind": kv.tail_kind, "gauge": args.gauge,
        }

    return _print_sweep(args, [args.r, args.rp, args.gamma, args.lam_list],
                        "r,r_prime,gamma,lambda,value,tail_bound,modes_used,gauge", one)


# ----------------------------------------------------------------------
# riesz
# ----------------------------------------------------------------------

def _cmd_riesz(args) -> int:
    from .lpcheck import _offdiag_region, offdiag_envelope
    from .riesz import riesz_kernel

    spec = _spectrum_from(args)
    cs = spec.cross_section

    def one(row):
        r, rp, gamma = row
        y, yp = cs.points_at_separation(gamma)
        kv = riesz_kernel(spec, ConePoint(r, y), ConePoint(rp, yp), **_given(args, "rel_tol"))
        region = _offdiag_region(r, rp)
        model = None if region == "mid" else offdiag_envelope(spec.d, spec.mu0, region, r, rp)
        ratio = None if model is None else kv.magnitude / model
        return [region, *row, kv.d_r, kv.angular, model, ratio], {
            "d_r": kv.d_r, "angular": kv.angular, "magnitude": kv.magnitude,
            "quad_error_est": kv.quad_error_est, "certified": kv.certified, "tail_kind": kv.tail_kind,
            "modes_used": kv.modes_used, "region": region, "model_bound": model, "ratio": ratio,
        }

    return _print_sweep(args, [args.r, args.rp, args.gamma],
                        "region,r,r_prime,gamma,d_r_component,angular_component,model_bound,ratio", one)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .verify import run_suite

    rep = run_suite(args.suite, **_given(args, "seed"))
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
    import json

    from .lpcheck import _riesz_models, lp_norm_probe, riesz_probe_kernel

    spec = _spectrum_from(args)
    d, mu0 = spec.d, spec.mu0
    if args.model == "riesz":
        kernel = riesz_probe_kernel(spec, **_given(args, "separation", "rel_tol"))
    else:
        t2, t3 = _riesz_models(d, mu0)  # the far-right and far-left models
        kernel = (t2 if args.model == "t2" else t3).kernel
    res = lp_norm_probe(kernel, d, args.p, **_given(args, "k_values", "points_per_octave"))
    digits = lambda x: float(_fmt(x))  # a float rounded to the 12 digits every float prints with
    payload = {"model": args.model, "d": d, "mu0": digits(mu0), "p": digits(res.p), "k_values": list(res.k_values),
               "norms": [digits(x) for x in res.norms], "verdict": res.verdict, "iterations": list(res.iterations)}
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
    ke.add_argument("--rel-tol", type=float, default=argparse.SUPPRESS)
    ke.add_argument("--gauge", choices=("riemannian", "b-half"), default="riemannian")
    ke.add_argument("--format", choices=("text", "csv"), default="text")
    ke.set_defaults(handler=_cmd_kernel)

    ri = sub.add_parser("riesz", help="Riesz transform kernel values", parents=[out])
    _add_source_args(ri, need_point=True)
    ri.add_argument("--rel-tol", type=float, default=argparse.SUPPRESS)
    ri.add_argument("--format", choices=("text", "csv"), default="text")
    ri.set_defaults(handler=_cmd_riesz)

    ve = sub.add_parser("verify", help="run a verification suite", parents=[out])
    ve.add_argument("--suite", default="all",
                    help="a check suite, or all (the default); README's \"Command line\" lists the suites, "
                         "and so does the error for an unknown name")
    ve.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    ve.set_defaults(handler=_cmd_verify)

    pr = sub.add_parser("probe", help="numerical L^p norm probe", parents=[out])
    _add_source_args(pr)
    pr.add_argument("--p", type=float, required=True)
    pr.add_argument("--model", choices=("t2", "t3", "riesz"), default="t2")
    pr.add_argument("--k-values", type=lambda text: _numbers(text, int), default=argparse.SUPPRESS)
    pr.add_argument("--points-per-octave", type=int, default=argparse.SUPPRESS)
    pr.add_argument("--separation", type=float, default=argparse.SUPPRESS)
    pr.add_argument("--rel-tol", type=float, default=argparse.SUPPRESS)
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

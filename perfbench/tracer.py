"""Spans around conekit's layer entry points, patched in from outside.

Each entry point is replaced where the layer above looks it up (a module
global or a class attribute) by a wrapper that records a span: id, parent
id, layer name, start, end and a few attributes read off the arguments
and the result.  Spans stay in memory until the run ends.  An entry
point that no longer exists is listed in ``missing`` and counts zero.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# Span names: "bessel", "geometry", "resolvent", "riesz", "lpcheck",
# "lpcheck.kernel" (the probe's kernel callable) and "spectrum".


def _resolvent_attrs(args, kwargs, out):
    request = args[0] if args else kwargs.get("request")
    value = getattr(out, "d_r", out)  # GradientValue or KernelValue
    cs = getattr(request.spectrum, "cross_section", None)
    if "Torus" in type(cs).__name__:
        band = "torus"
    elif value.certified:
        band = "certified"
    else:
        band = value.tail_kind  # "rigorous" or "cauchy"
    return {"modes": value.modes_used, "band": band}


def _probe_attrs(args, kwargs, out):
    return {"iters": sum(out.iterations)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, t0, t1, attrs]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, attrs_of=None):
        """Return ``fn`` wrapped so that every call records one span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if attrs_of is not None:
                rec[5] = attrs_of(args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr, name, attrs_of=None):
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, attrs_of))
        self._undo.append((owner, attr, fn))

    def _wrap_probe(self, fn):
        """lp_norm_probe, with its kernel callable traced as well."""
        tracer = self

        @functools.wraps(fn)
        def probe(kernel, *args, **kwargs):
            return fn(tracer.wrap("lpcheck.kernel", kernel), *args, **kwargs)

        return probe

    def install(self, conekit_modules: dict) -> None:
        """Patch every entry point; ``conekit_modules`` maps short names to modules."""
        m = conekit_modules
        for attr in ("bessel_i", "bessel_k", "bessel_i_with_dr", "bessel_k_with_dr"):
            self.patch(m["resolvent"], attr, "bessel")
        geometry = m["geometry"]
        for cls in geometry.CrossSection.__subclasses__():
            if "distance" in cls.__dict__:
                self.patch(cls, "distance", "geometry")
        for site in ("resolvent", "riesz", "verify"):
            for attr in ("resolvent_kernel", "resolvent_gradient"):
                if site == "resolvent" or hasattr(m[site], attr):
                    self.patch(m[site], attr, "resolvent", _resolvent_attrs)
        for site in ("riesz", "lpcheck", "verify"):
            self.patch(m[site], "riesz_kernel", "riesz")
        fn = getattr(m["lpcheck"], "lp_norm_probe", None)
        if fn is None:
            self.missing.append("conekit.lpcheck.lp_norm_probe")
        else:
            setattr(m["lpcheck"], "lp_norm_probe", self.wrap("lpcheck", self._wrap_probe(fn), _probe_attrs))
            self._undo.append((m["lpcheck"], "lp_norm_probe", fn))
        for site in ("spectrum", "verify"):
            for attr in ("sphere_spectrum", "torus_spectrum"):
                if site == "spectrum" or hasattr(m[site], attr):
                    self.patch(m[site], attr, "spectrum")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "t0": t0, "t1": t1, "attrs": attrs}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[4] - s[3] for s in spans]
    index = {s[0]: i for i, s in enumerate(spans)}
    for s in spans:
        if s[1] >= 0:
            own[index[s[1]]] -= s[4] - s[3]
    return own


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if not n:
        return 0.0
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def layer_metrics(spans) -> dict:
    """Per-layer counts and times (ms, us) from a list of spans."""
    own = self_times(spans)
    name_of = {s[0]: s[2] for s in spans}
    count: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for s, t in zip(spans, own):
        count[s[2]] = count.get(s[2], 0) + 1
        self_ms[s[2]] = self_ms.get(s[2], 0.0) + 1e3 * t
    modes = 0
    bands: dict[str, list] = {"certified": [], "rigorous": [], "cauchy": [], "torus": []}
    integrand = 0
    iters = 0
    for s in spans:
        if s[5] is None:  # the call raised
            continue
        if s[2] == "resolvent":
            modes += s[5]["modes"]
            bands.setdefault(s[5]["band"], []).append(1e3 * (s[4] - s[3]))
            integrand += name_of.get(s[1]) == "riesz"
        elif s[2] == "lpcheck":
            iters += s[5]["iters"]

    def per(total, n, scale=1.0):
        return scale * total / n if n else 0.0

    out = {
        "bessel.calls": count.get("bessel", 0),
        "bessel.self_ms": self_ms.get("bessel", 0.0),
        "bessel.us_per_call": per(self_ms.get("bessel", 0.0), count.get("bessel", 0), 1e3),
        "geometry.distance_calls": count.get("geometry", 0),
        "resolvent.calls": count.get("resolvent", 0),
        "resolvent.self_ms": self_ms.get("resolvent", 0.0),
        "resolvent.modes_summed": modes,
        "resolvent.us_per_mode": per(self_ms.get("resolvent", 0.0), modes, 1e3),
    }
    for band in ("certified", "rigorous", "cauchy", "torus"):
        out[f"resolvent.{band}.ms_p50"] = median(bands[band])
    out.update({
        "riesz.calls": count.get("riesz", 0),
        "riesz.self_ms": self_ms.get("riesz", 0.0),
        "riesz.integrand_evals": integrand,
        "riesz.evals_per_value": per(integrand, count.get("riesz", 0)),
        "lpcheck.self_ms": self_ms.get("lpcheck", 0.0) + self_ms.get("lpcheck.kernel", 0.0),
        "lpcheck.kernel_evals": count.get("lpcheck.kernel", 0),
        "lpcheck.power_iters": iters,
        "spectrum.build_ms": self_ms.get("spectrum", 0.0),
    })
    return out

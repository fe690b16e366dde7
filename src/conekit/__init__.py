"""conekit: resolvent and Riesz-transform kernels of Schrodinger operators
with inverse-square potentials on metric cones, with certified truncation
errors and exact Lp-boundedness thresholds.

The operator is H = Laplacian + V0(y)/r^2 on the cone (0, inf) x Y.  Every
kernel value off r = r' carries a rigorous truncation bound (every spectrum
with pair functions has a tail profile), and a value at r = r' a quadrature
error estimate; L^p thresholds are computed in closed form and
cross-checked by Schur tests and numerical norm probes.
"""

import importlib
import types

from .errors import (
    ConekitError,
    DomainError,
    InsufficientSpectrumError,
    NormsOnlyError,
    PositivityError,
    SpectrumFormatError,
    UnsupportedError,
)
from .geometry import (
    ConePoint,
    CrossSection,
    SeparationCrossSection,
    SphereCrossSection,
    TorusCrossSection,
    cone_distance,
)
from .bessel import BesselEval, bessel_i, bessel_k
from .spectrum import CrossSectionSpectrum, leading_modes, sphere_spectrum, torus_spectrum
from .resolvent import GradientValue, KernelValue, ResolventRequest, resolvent_gradient, resolvent_kernel

# The Riesz kernel, the L^p side, the check suites with their probes and the
# spectrum-file format load on first use of one of their names (PEP 562), so
# that a resolvent value imports none of them.
_LAZY = {
    **dict.fromkeys(("RieszKernelValue", "riesz_kernel"), "riesz"),
    **dict.fromkeys(("HomogeneousKernelSpec", "L2Bound", "NormProbeResult", "OffdiagReport", "PInterval",
                     "l2_bound_constant", "lp_norm_probe", "offdiag_bound_check", "riesz_model_intervals",
                     "riesz_probe_kernel", "schur_norm", "threshold_interval", "threshold_interval_constant",
                     "threshold_interval_zero_v"), "lpcheck"),
    **dict.fromkeys(("SUITES", "CheckResult", "SuiteReport", "run_suite", "BOUNDARY_FACES",
                     "ZfCompatibilityReport", "boundary_order_probe", "indicial_kernel",
                     "zf_compatibility_check"), "verify"),
    **dict.fromkeys(("load_spectrum", "save_spectrum"), "specfile"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

# The public names are the ones bound above and the lazy ones, each written once.
__all__ = sorted({*(name for name, value in globals().items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)), *_LAZY})

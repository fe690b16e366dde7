"""conekit: resolvent and Riesz-transform kernels of Schrodinger operators
with inverse-square potentials on metric cones, with certified truncation
errors and exact Lp-boundedness thresholds.

The operator is H = Laplacian + V0(y)/r^2 on the cone (0, inf) x Y.  Every
kernel value off r = r' carries a rigorous truncation bound (every spectrum
with pair functions has a tail profile), and a value at r = r' a quadrature
error estimate; L^p thresholds are computed in closed form and
cross-checked by Schur tests and numerical norm probes.
"""

from .config import DEFAULTS, Defaults
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
from .bessel import (
    BesselEval,
    bessel_i,
    bessel_i_with_dr,
    bessel_k,
    bessel_k_with_dr,
)
from .spectrum import (
    CrossSectionSpectrum,
    leading_modes,
    load_spectrum,
    save_spectrum,
    sphere_spectrum,
    torus_spectrum,
)
from .resolvent import (
    BOUNDARY_FACES,
    GradientValue,
    KernelValue,
    ResolventRequest,
    ZfCompatibilityReport,
    boundary_order_probe,
    indicial_kernel,
    resolvent_gradient,
    resolvent_kernel,
    zf_compatibility_check,
)
from .riesz import (
    L2Bound,
    OffdiagReport,
    PInterval,
    RieszKernelValue,
    l2_bound_constant,
    offdiag_bound_check,
    riesz_kernel,
    threshold_interval,
    threshold_interval_constant,
    threshold_interval_zero_v,
)
from .lpcheck import (
    HomogeneousKernelSpec,
    NormProbeResult,
    lp_norm_probe,
    riesz_model_intervals,
    riesz_probe_kernel,
    schur_norm,
)
from .verify import SUITES, CheckResult, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_FACES",
    "BesselEval",
    "CheckResult",
    "ConePoint",
    "ConekitError",
    "CrossSection",
    "CrossSectionSpectrum",
    "DEFAULTS",
    "Defaults",
    "DomainError",
    "GradientValue",
    "HomogeneousKernelSpec",
    "InsufficientSpectrumError",
    "KernelValue",
    "L2Bound",
    "NormProbeResult",
    "NormsOnlyError",
    "OffdiagReport",
    "PInterval",
    "PositivityError",
    "ResolventRequest",
    "RieszKernelValue",
    "SUITES",
    "SeparationCrossSection",
    "SphereCrossSection",
    "SpectrumFormatError",
    "SuiteReport",
    "TorusCrossSection",
    "UnsupportedError",
    "ZfCompatibilityReport",
    "bessel_i",
    "bessel_i_with_dr",
    "bessel_k",
    "bessel_k_with_dr",
    "boundary_order_probe",
    "cone_distance",
    "indicial_kernel",
    "l2_bound_constant",
    "leading_modes",
    "load_spectrum",
    "lp_norm_probe",
    "offdiag_bound_check",
    "resolvent_gradient",
    "resolvent_kernel",
    "riesz_kernel",
    "riesz_model_intervals",
    "riesz_probe_kernel",
    "run_suite",
    "save_spectrum",
    "schur_norm",
    "sphere_spectrum",
    "threshold_interval",
    "threshold_interval_constant",
    "threshold_interval_zero_v",
    "torus_spectrum",
    "zf_compatibility_check",
]

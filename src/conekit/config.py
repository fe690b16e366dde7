"""Central numeric defaults.

All tolerances and cutover points that more than one module relies on live
here, so tuning happens in exactly one place.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    # --- Bessel engine -------------------------------------------------
    # Where scipy's kve overflows, K comes from its small-argument leading
    # term below this order and from Olver's uniform asymptotics from it on.
    olver_nu_min: float = 30.0
    # Scaled values are folded into a plain float when |log2 value| <= this.
    fold_exp2: int = 600

    # --- Resolvent series ----------------------------------------------
    # Default relative tolerance for kernel values.
    kernel_rel_tol: float = 1e-8
    # Heuristic stop for spectra without a tail profile (at s < 1): this
    # many consecutive terms below the target.
    heuristic_run: int = 3

    # --- Mode-table sizing ----------------------------------------------
    # The base table's mu_cutoff defaults to max(mu_cutoff_floor,
    # mu0 + mu_cutoff_margin).  Sphere and torus tables grow past it on
    # demand, in chunks (see conekit.resolvent).
    mu_cutoff_floor: float = 40.0
    mu_cutoff_margin: float = 30.0

    # --- Riesz kernel ----------------------------------------------------
    riesz_rel_tol: float = 1e-6

    # --- Lp probes --------------------------------------------------------
    probe_tol: float = 1e-6
    probe_iter_cap: int = 200
    probe_growth_ratio: float = 4.0
    probe_stable_ratio: float = 1.5


DEFAULTS = Defaults()

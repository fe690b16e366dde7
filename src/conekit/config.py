"""Central numeric defaults.

All tolerances and cutover points that more than one module relies on live
here, so tuning happens in exactly one place.
"""

from dataclasses import dataclass


# The default base table of a cone with mu0 <= 10 holds the orders below
# this (mu_cutoff_floor); the Bessel engine leaves all of them, up to
# x = 20, to its series and integral (olver_nu_min): one pass per kind.
_BASE_ORDERS = 40.0


@dataclass(frozen=True)
class Defaults:
    # --- Bessel engine -------------------------------------------------
    # From this order on, I (past (x/2)^2 = nu + 1) and K (above x = 1e-10)
    # come from Olver's uniform expansions; below it, I from its power
    # series and K from its integral, up to x = 20 (see conekit.bessel).
    # Olver's 20 terms reach rounding from order 15 on; at 40 the default
    # base table needs no Olver pass, which beat 15 end to end.
    olver_nu_min: float = _BASE_ORDERS
    # Scaled values are folded into a plain float when |log2 value| <= this.
    fold_exp2: int = 600

    # --- Resolvent series ----------------------------------------------
    # Default relative tolerance for kernel values.
    kernel_rel_tol: float = 1e-8

    # --- Mode-table sizing ----------------------------------------------
    # The base table's mu_cutoff defaults to max(mu_cutoff_floor,
    # mu0 + mu_cutoff_margin).  Sphere and torus tables grow past it on
    # demand, in chunks (see conekit.resolvent).
    mu_cutoff_floor: float = _BASE_ORDERS
    mu_cutoff_margin: float = 30.0

    # --- Riesz kernel ----------------------------------------------------
    riesz_rel_tol: float = 1e-6

    # --- Lp probes --------------------------------------------------------
    probe_tol: float = 1e-6
    probe_iter_cap: int = 200
    probe_growth_ratio: float = 4.0
    probe_stable_ratio: float = 1.5


DEFAULTS = Defaults()

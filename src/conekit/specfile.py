"""The spectrum-file format: JSON mode tables for abstract cross-sections.

A file is ``{"d": int, "v0": str, "modes": [{"mu", "multiplicity",
"addition_coeffs"?}]}``.  The addition_coeffs c_k define
pair(gamma) = sum_k c_k T_k(cos gamma) = sum_k c_k cos(k gamma) in the
scalar separation coordinate gamma.  A file is the whole spectrum: its
table's tail is exactly zero (:class:`conekit.spectrum.CompleteTail`).
A ``v0`` of ``"constant:c"``, optionally followed by ``|`` and more (as
:func:`conekit.spectrum.leading_modes` writes), is the constant potential
c, and the bottom mode must then be mu0 = sqrt(c + (d-2)^2/4).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import PositivityError, SpectrumFormatError
from .geometry import SeparationCrossSection, SphereCrossSection
from .spectrum import CompleteTail, CrossSectionSpectrum, ModeArrays, _check_positivity

__all__ = ["load_spectrum", "save_spectrum"]


def _file_table(entries) -> ModeArrays:
    """ModeArrays of file modes (mu, multiplicity, cosine coefficients or None).

    With coefficients on every mode the pairs are
    pair_j(gamma) = sum_k c_jk cos(k gamma); otherwise the table holds
    norms only, and a mode without coefficients has NaN sup bounds.
    """
    tag = np.empty(len(entries), dtype=object)
    pair_sup, grad_sup = np.full(len(entries), np.nan), np.full(len(entries), np.nan)
    for j, (_, _, coeffs) in enumerate(entries):
        if coeffs is not None:
            arr = np.asarray(coeffs, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise SpectrumFormatError("addition_coeffs must be a nonempty list of finite numbers")
            pair_sup[j] = np.abs(arr).sum()
            grad_sup[j] = (np.abs(arr) * np.arange(arr.size)).sum()
            tag[j] = tuple(arr.tolist())
    pairs = None
    if not np.isnan(pair_sup).any():
        coeffs = np.zeros((len(tag), max(map(len, tag))))
        for j, row in enumerate(tag):
            coeffs[j, :len(row)] = row
        ks = np.arange(coeffs.shape[1], dtype=float)

        def pairs(y, yp, gamma, lo, hi, state, with_grad=True):
            rows = coeffs[lo:hi]
            return rows @ np.cos(ks * gamma), -(rows @ (ks * np.sin(ks * gamma))) if with_grad else None, None

    mu, mult = (np.array([entry[i] for entry in entries], dtype=float) for i in (0, 1))
    return ModeArrays(mu, mult, pair_sup, grad_sup, tag, "", pairs)


def load_spectrum(path) -> CrossSectionSpectrum:
    """Read a spectrum file (see the module docstring).

    Entries are sorted by mu; entries with equal mu (1e-12 relative) are
    merged.  Files are complete by definition: the table is the whole
    spectrum, so the tail beyond it is exactly zero.  Modes without
    addition coefficients make the spectrum norms-only.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpectrumFormatError(f"cannot read spectrum file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpectrumFormatError("spectrum file must hold a JSON object")
    try:
        d = raw["d"]
        mode_list = raw["modes"]
    except KeyError as exc:
        raise SpectrumFormatError(f"spectrum file missing key {exc}") from exc
    if not isinstance(d, int) or d < 3:
        raise SpectrumFormatError(f"d must be an integer >= 3, got {d!r}")
    if not isinstance(mode_list, list) or not mode_list:
        raise SpectrumFormatError("modes must be a nonempty list")
    v0 = raw.get("v0", "file")
    if not isinstance(v0, str):
        raise SpectrumFormatError("v0 must be a string")
    v0_constant = None
    if v0.startswith("constant:"):
        try:  # the constant runs up to a "|" (as in "constant:c|leading:k")
            v0_constant = float(v0[len("constant:"):].split("|", 1)[0])
        except ValueError as exc:
            raise SpectrumFormatError(f"bad constant V0 descriptor {v0!r}") from exc
        if not math.isfinite(v0_constant):
            raise SpectrumFormatError(f"constant V0 must be finite, got {v0!r}")

    entries = []
    for i, item in enumerate(mode_list):
        if not isinstance(item, dict):
            raise SpectrumFormatError(f"modes[{i}] must be an object")
        try:
            mu_val, mult = item["mu"], item["multiplicity"]
        except KeyError as exc:
            raise SpectrumFormatError(f"modes[{i}] malformed: missing {exc}") from exc
        if type(mu_val) not in (int, float):  # by type: JSON true is a bool, which isinstance counts as an int
            raise SpectrumFormatError(f"modes[{i}] mu must be a number, got {mu_val!r}")
        mu_val = float(mu_val)
        if not (math.isfinite(mu_val) and mu_val > 0.0):
            raise PositivityError(f"modes[{i}] has mu = {mu_val!r} <= 0")
        if type(mult) is not int or mult < 1:
            raise SpectrumFormatError(f"modes[{i}] multiplicity must be a positive integer")
        coeffs = item.get("addition_coeffs")
        if coeffs is not None and not (isinstance(coeffs, list) and coeffs
                                       and all(type(v) in (int, float) for v in coeffs)):
            raise SpectrumFormatError(f"modes[{i}] addition_coeffs must be a nonempty list of finite numbers")
        entries.append((mu_val, mult, coeffs))
    entries.sort(key=lambda t: t[0])

    merged = []
    for mu_val, mult, coeffs in entries:
        if merged and abs(mu_val - merged[-1][0]) <= 1e-12 * (1.0 + mu_val):
            prev_mu, prev_mult, prev_coeffs = merged[-1]
            if (prev_coeffs is None) != (coeffs is None):
                raise SpectrumFormatError(
                    "cannot merge equal-mu modes where only one has addition_coeffs"
                )
            if coeffs is not None:
                n = max(len(prev_coeffs), len(coeffs))
                summed = [0.0] * n
                for lst in (prev_coeffs, coeffs):
                    for k, v in enumerate(lst):
                        summed[k] += float(v)
                coeffs = summed
            merged[-1] = (prev_mu, prev_mult + mult, coeffs)
        else:
            merged.append((mu_val, mult, list(coeffs) if coeffs is not None else None))

    if v0_constant is not None:
        # On a closed cross-section V0 = c makes the constants the bottom
        # mode, mu0^2 = c + (d-2)^2/4.
        mu0 = math.sqrt(_check_positivity(d, v0_constant))
        if abs(merged[0][0] - mu0) > 1e-12 * mu0:
            raise SpectrumFormatError(
                f"constant V0 {v0!r} gives mu0 = {mu0!r}, but the bottom mode has mu = {merged[0][0]!r}"
            )
    table = _file_table(merged)
    return CrossSectionSpectrum(
        d=d,
        table=table,
        v0_descriptor=v0,
        cross_section=SeparationCrossSection(),
        v0_constant=v0_constant,
        tail_profile=CompleteTail() if table.pairs is not None else None,
    )


def save_spectrum(spectrum: CrossSectionSpectrum, path) -> None:
    """Write a spectrum to the JSON file format.

    A unit sphere's modes are saved with their cosine coefficients, in
    closed form (degree l has l + 1); modes loaded from a file write
    their coefficients back unchanged.  Pair functions that are not
    cosine series in the separation (tori, spheres of radius != 1) are
    saved norms-only.
    """
    table = spectrum.table
    out_modes = []
    for mu, mult, coeffs in zip(table.mu.tolist(), table.mult.tolist(), _separation_coeffs(spectrum)):
        entry = {"mu": mu, "multiplicity": int(mult)}
        if coeffs is not None:
            entry["addition_coeffs"] = coeffs
        out_modes.append(entry)
    payload = {"d": spectrum.d, "v0": spectrum.v0_descriptor, "modes": out_modes}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _separation_coeffs(spectrum: CrossSectionSpectrum) -> list:
    """Each mode's cosine coefficients of pair(gamma) where exact (a file's own, or a unit sphere's), else None."""
    table, cs = spectrum.table, spectrum.cross_section
    # The file's separation coordinate gamma feeds cos(gamma) directly; for
    # radius != 1 the pair depends on cos(gamma/a), which is not a
    # polynomial in cos(gamma), so such spheres are saved norms-only.
    if not (isinstance(cs, SphereCrossSection) and cs.radius == 1.0):
        return [list(tag) if isinstance(tag, tuple) else None for tag in table.tag.tolist()]
    # pair_l = pair_sup_l C_l^nu(cos gamma) / C_l^nu(1), nu = (d-2)/2, and C_l^nu(cos gamma) =
    # sum_k g_k g_{l-k} cos((l-2k) gamma), g_k = (nu)_k / k! (DLMF 18.5.11): positive weights w_m
    # of cos(m gamma) that sum to C_l^nu(1), so the coefficients are pair_sup_l w / sum(w).
    nu, size = (spectrum.d - 2) / 2.0, table.mu.size
    g = np.cumprod(np.concatenate([[1.0], (nu + np.arange(size - 1.0)) / np.arange(1.0, size)]))
    ws = (np.bincount(np.abs(l - 2 * np.arange(l + 1)), weights=g[:l + 1] * g[l::-1]) for l in range(size))
    return [(sup * w / w.sum()).tolist() for sup, w in zip(table.pair_sup.tolist(), ws)]

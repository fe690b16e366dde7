"""The euclid suite judges every value that carries an estimate by one honesty rule."""

import dataclasses

import pytest

from conekit import verify
from conekit.resolvent import KernelValue
from conekit.spectrum import TABLE_CEILING

# Seeds at which honestly flagged values once failed the suite's bespoke pass
# conditions: uncertified values whose rounding kept rel_tol out of reach.
_FLAGGED_SEEDS = (0, 4, 11, 26, 34, 49, 51, 65, 80, 89, 97, 108, 109, 141, 162, 174, 181, 191)


@pytest.mark.parametrize("seed", _FLAGGED_SEEDS)
def test_honestly_flagged_values_pass(seed):
    failed = [(r.name, r.detail) for r in verify.run_suite("euclid", seed).results if not r.passed]
    assert not failed


def _fields(kv):
    """(value field, estimate field, size) of a kernel or Riesz value; rel_tol is relative to the size."""
    if isinstance(kv, KernelValue):
        return "value", "tail_bound", abs(kv.value)
    return "d_r", "quad_error_est", kv.magnitude


def _past_estimate(kv, rel_tol):
    """Every value moved by twice its own estimate."""
    value, bound, _ = _fields(kv)
    return dataclasses.replace(kv, **{value: getattr(kv, value) + 2.0 * getattr(kv, bound)})


def _past_rel_tol(kv, rel_tol):
    """Every certified value moved by twice rel_tol, its estimate widened to cover the move."""
    if not kv.certified:
        return kv
    value, bound, size = _fields(kv)
    shift = 2.0 * rel_tol * size
    return dataclasses.replace(kv, **{value: getattr(kv, value) + shift, bound: getattr(kv, bound) + shift})


def _at_ceiling(kv, rel_tol):
    """Every value off r = r' uncertified after all 2**16 degrees, its estimate kept."""
    return kv if kv.tail_kind == "quadrature" else dataclasses.replace(kv, certified=False, modes_used=TABLE_CEILING)


_OFF_DIAGONAL = {"euclid.resolvent-yukawa", "euclid.resolvent-rigorous", "euclid.riesz-closed-form"}


@pytest.mark.parametrize("mutation, broken", [
    (_past_estimate, _OFF_DIAGONAL | {"euclid.diagonal"}),
    (_past_rel_tol, _OFF_DIAGONAL),
    (_at_ceiling, _OFF_DIAGONAL),
])
def test_mutations_break_the_rule(monkeypatch, mutation, broken):
    kernel, riesz = verify.resolvent_kernel, verify.riesz_kernel
    monkeypatch.setattr(verify, "resolvent_kernel", lambda req: mutation(kernel(req), req.rel_tol))
    monkeypatch.setattr(verify, "riesz_kernel",
                        lambda spec, z, zp, rel_tol: mutation(riesz(spec, z, zp, rel_tol), rel_tol))
    failed = [r for r in verify.run_suite("euclid").results if not r.passed]
    assert {r.name for r in failed} == broken
    assert not any(r.detail.startswith("raised") for r in failed), failed  # by the rule, not by a crash

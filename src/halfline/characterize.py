"""Characterization of scattering data.

Decides whether given data can come from a real potential with finite first
moment, by checking the four necessary-and-sufficient conditions:

  1. symmetry/unitarity: S(-k) = conj S(k) = 1/S(k) on the real axis and
     S(k) -> 1 at the ends of the grid;
  2. discrete data: kappa_j > 0, s_j > 0, strictly increasing;
  3. integrability: F_s and x F' in L1 of the half-line, tested by
     nested-window growth on [0, x_max] (a numerical proxy: "finite L1
     norm" is undecidable from samples, so bounded growth between the half
     window and the full window stands in for convergence);
  4. index: the winding number of S is a non-positive integer equal to
     -2J (generic) or -2J - 1 (zero-energy resonance, S(0) = -1).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DataError, PhaseUnwrapError
from .model import ConditionEntry, MarchenkoInput, ScatteringData, ValidationReport
from .numkit import winding_number

__all__ = [
    "check_symmetry_unitarity",
    "check_discrete",
    "check_integrability",
    "check_index",
    "full_report",
]

TAIL_TOL = 0.05  # |S - 1| allowed at the grid ends
INTEGRABILITY_WINDOW = 0.05  # half-to-full window growth allowed of the L1 integrals
INDEX_CONFIDENCE = 0.1  # distance of the winding number from an integer allowed
F_X_MAX, F_DX = 40.0, 0.01  # the half-line grid [0, F_X_MAX] on which full_report builds F
TAPER_FRAC = 0.2  # share of each end of the momentum window under full_report's taper of 1 - S


def check_symmetry_unitarity(sd: ScatteringData, tol: float = 1e-6) -> ConditionEntry:
    """Unitarity |S| = 1 and conjugate symmetry S(-k) = conj S(k), each to
    tol, and S -> 1 at the grid ends to TAIL_TOL."""
    if tol <= 0:
        raise DataError("tol must be positive")
    s = sd.s_values
    uni = float(np.max(np.abs(np.abs(s) - 1.0)))
    sym = float(np.max(np.abs(s[::-1] - np.conj(s))))
    tail = float(max(abs(s[0] - 1.0), abs(s[-1] - 1.0)))
    measured = max(uni / tol, sym / tol, tail / TAIL_TOL)
    passed = uni <= tol and sym <= tol and tail <= TAIL_TOL
    return ConditionEntry(
        name="symmetry_unitarity",
        passed=passed,
        measured=measured,
        tolerance=1.0,
        note=f"|S|-1: {uni:.2e}, symmetry: {sym:.2e}, tail: {tail:.2e}",
    )


def check_discrete(sd: ScatteringData) -> ConditionEntry:
    """kappa_j > 0, s_j > 0, kappas strictly increasing."""
    kappas = sd.kappas
    ss = sd.norming
    ok = bool(np.all(kappas > 0) and np.all(ss > 0)) if kappas.size else True
    if ok and kappas.size > 1:
        ok = bool(np.all(np.diff(kappas) > 0))
    worst = float(min(np.min(kappas, initial=np.inf), np.min(ss, initial=np.inf)))
    return ConditionEntry(
        name="discrete_data",
        passed=ok,
        measured=worst if np.isfinite(worst) else 0.0,
        tolerance=0.0,
        note=f"J = {kappas.size}",
    )


def _window_growth(values: np.ndarray, dx: float) -> tuple[float, float]:
    """Integral of |values| over the full window [0, x_max] of a radial
    grid, and its growth relative to the half window [0, x_max/2]."""
    a = np.abs(values)
    i_half = float(np.trapezoid(a[: (a.size - 1) // 2 + 1], dx=dx))
    i_full = float(np.trapezoid(a, dx=dx))
    if i_full < 1e-12:
        return i_full, 0.0
    return i_full, (i_full - i_half) / max(i_half, 1e-12)


def check_integrability(F: MarchenkoInput) -> ConditionEntry:
    """F_s and x F' in L1(R+), by nested-window growth on F's grid [0, x_max].

    I1 integrates |F_s| and I2 integrates x |F'| over [0, x_max/2] and
    [0, x_max].  Pass iff both integrals are finite and the half-to-full
    growth stays below INTEGRABILITY_WINDOW.  I1 reads F_s alone: the
    bound-state part F_d, whose s_j can be large, would mask its growth.
    """
    i1, g1 = _window_growth(F.fs_values, F.xgrid.dx)
    i2, g2 = _window_growth(F.xgrid.nodes * F.fprime, F.xgrid.dx)
    finite = np.isfinite(i1) and np.isfinite(i2)
    growth = max(g1, g2)
    passed = bool(finite and growth <= INTEGRABILITY_WINDOW)
    return ConditionEntry(
        name="integrability",
        passed=passed,
        measured=growth,
        tolerance=INTEGRABILITY_WINDOW,
        note=f"I1 = {i1:.4g} (growth {g1:.2%}), I2 = {i2:.4g} (growth {g2:.2%})",
    )


def check_index(sd: ScatteringData) -> ConditionEntry:
    """Winding index of S: non-positive integer, equal to -2J or -2J - 1,
    with the parity matching the S(0) sign flag."""
    try:
        idx, resid = winding_number(sd.s_values)
    except PhaseUnwrapError as exc:
        return ConditionEntry(
            name="index",
            passed=False,
            measured=float("nan"),
            tolerance=INDEX_CONFIDENCE,
            note=f"inconclusive: {exc}",
        )
    j = sd.j_count
    expected = -2 * j if sd.s_at_zero_sign == 1 else -2 * j - 1
    consistent = idx <= 0 and resid <= INDEX_CONFIDENCE and idx == expected
    return ConditionEntry(
        name="index",
        passed=bool(consistent),
        measured=float(idx),
        tolerance=float(expected),
        note=f"index {idx} (residual {resid:.3f}), J = {j}, S(0) sign {sd.s_at_zero_sign:+d}",
    )


def _taper_window(n: int) -> np.ndarray:
    """Unit window with cosine roll-off over the outer TAPER_FRAC of each
    end, exactly 0 at both end samples."""
    w = np.ones(n)
    m = int(round(TAPER_FRAC * n))
    if m < 2:
        return w
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    w[:m] = ramp
    w[-m:] = ramp[::-1]
    return w


def full_report(sd: ScatteringData) -> ValidationReport:
    """Aggregate all four conditions, at their default tolerances, into a
    ValidationReport: `halfline validate`'s report and invert_full's gate.

    F is built internally by build_F on the fixed half-line grid
    [0, F_X_MAX] at F_DX for the integrability check, from 1 - S under a
    Hann endpoint taper (_taper_window), which keeps truncation ringing out
    of the nested-window growth.  The verdict passes iff every entry
    passes.
    """
    from .marchenko import build_F

    # the window is 0 at both grid ends, so build_F's tail terms add exactly zero
    tapered = 1.0 - (1.0 - sd.s_values) * _taper_window(sd.kgrid.n)
    F = build_F(replace(sd, s_values=tapered), F_X_MAX, F_DX)
    entries = (check_symmetry_unitarity(sd), check_discrete(sd), check_integrability(F), check_index(sd))
    return ValidationReport(entries=entries, j_count=sd.j_count, s_zero_sign=sd.s_at_zero_sign)

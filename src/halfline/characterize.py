"""Characterization of scattering data.

Decides whether given data can come from a real potential with finite first
moment, by checking the four necessary-and-sufficient conditions:

  1. symmetry/unitarity: S(-k) = conj S(k) = 1/S(k) on the real axis and
     S(k) -> 1 at the ends of the grid;
  2. discrete data: kappa_j > 0, s_j > 0, strictly increasing;
  3. integrability: F_s in L1 of the whole line and x F' in L1 of the
     half-line, tested by nested-window growth (a numerical proxy: "finite
     L1 norm" is undecidable from samples, so bounded growth between the
     half window and the full window stands in for convergence);
  4. index: the winding number of S is a non-positive integer equal to
     -2J (generic) or -2J - 1 (zero-energy resonance, S(0) = -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhaseUnwrapError
from .model import ConditionEntry, MarchenkoInput, ScatteringData, ValidationReport
from .numkit import winding_number

__all__ = [
    "ConditionThresholds",
    "check_symmetry_unitarity",
    "check_discrete",
    "check_integrability",
    "check_index",
    "full_report",
]


@dataclass(frozen=True)
class ConditionThresholds:
    """Tolerances for the four characterization conditions."""

    unitarity_tol: float = 1e-6
    symmetry_tol: float = 1e-6
    tail_tol: float = 0.05
    integrability_window: float = 0.05
    index_confidence: float = 0.1

    def __post_init__(self):
        for name in ("unitarity_tol", "symmetry_tol", "tail_tol", "integrability_window", "index_confidence"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def check_symmetry_unitarity(sd: ScatteringData, thresholds: ConditionThresholds | None = None) -> ConditionEntry:
    """Unitarity |S| = 1, conjugate symmetry S(-k) = conj S(k), and S -> 1
    at the grid ends."""
    t = thresholds or ConditionThresholds()
    s = sd.s_values
    uni = float(np.max(np.abs(np.abs(s) - 1.0)))
    sym = float(np.max(np.abs(s[::-1] - np.conj(s))))
    tail = float(max(abs(s[0] - 1.0), abs(s[-1] - 1.0)))
    measured = max(uni / t.unitarity_tol, sym / t.symmetry_tol, tail / t.tail_tol)
    passed = uni <= t.unitarity_tol and sym <= t.symmetry_tol and tail <= t.tail_tol
    return ConditionEntry(
        name="symmetry_unitarity",
        passed=passed,
        measured=measured,
        tolerance=1.0,
        note=f"|S|-1: {uni:.2e}, symmetry: {sym:.2e}, tail: {tail:.2e}",
    )


def check_discrete(sd: ScatteringData, thresholds: ConditionThresholds | None = None) -> ConditionEntry:
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


def _window_growth(
    x: np.ndarray,
    values: np.ndarray,
    half: tuple[float, float],
    full: tuple[float, float],
) -> tuple[float, float, float]:
    """Integrals of |values| over the half and full windows; relative growth."""
    dx = x[1] - x[0]
    m_half = (x >= half[0]) & (x <= half[1])
    m_full = (x >= full[0]) & (x <= full[1])
    i_half = float(np.trapezoid(np.abs(values[m_half]), dx=dx))
    i_full = float(np.trapezoid(np.abs(values[m_full]), dx=dx))
    if i_full < 1e-12:
        return i_half, i_full, 0.0
    return i_half, i_full, (i_full - i_half) / max(i_half, 1e-12)


def check_integrability(F: MarchenkoInput, thresholds: ConditionThresholds | None = None) -> ConditionEntry:
    """F_s in L1(R) and x F' in L1(R+), by nested-window growth.

    I1 integrates |F_s| over the half and full sample windows; I2 does the
    same for x |F'| on [0, x_hi/2] and [0, x_hi].  Pass iff both integrals
    are finite and the half-to-full growth stays below the configured
    fraction.
    """
    t = thresholds or ConditionThresholds()
    x = F.xgrid.nodes
    lo, hi = F.xgrid.lo, F.xgrid.hi
    i1_half, i1, g1 = _window_growth(x, F.fs_values, (lo / 2, hi / 2), (lo, hi))
    xf = np.where(x >= 0, x, 0.0) * F.fprime
    i2_half, i2, g2 = _window_growth(x, xf, (0.0, hi / 2), (0.0, hi))
    finite = np.isfinite(i1) and np.isfinite(i2)
    growth = max(g1, g2)
    passed = bool(finite and growth <= t.integrability_window)
    return ConditionEntry(
        name="integrability",
        passed=passed,
        measured=growth,
        tolerance=t.integrability_window,
        note=f"I1 = {i1:.4g} (growth {g1:.2%}), I2 = {i2:.4g} (growth {g2:.2%})",
    )


def check_index(sd: ScatteringData, thresholds: ConditionThresholds | None = None) -> ConditionEntry:
    """Winding index of S: non-positive integer, equal to -2J or -2J - 1,
    with the parity matching the S(0) sign flag."""
    t = thresholds or ConditionThresholds()
    try:
        idx, resid = winding_number(sd.s_values)
    except PhaseUnwrapError as exc:
        return ConditionEntry(
            name="index",
            passed=False,
            measured=float("nan"),
            tolerance=t.index_confidence,
            note=f"inconclusive: {exc}",
        )
    j = sd.j_count
    expected = -2 * j if sd.s_at_zero_sign == 1 else -2 * j - 1
    consistent = idx <= 0 and resid <= t.index_confidence and idx == expected
    return ConditionEntry(
        name="index",
        passed=bool(consistent),
        measured=float(idx),
        tolerance=float(expected),
        note=f"index {idx} (residual {resid:.3f}), J = {j}, S(0) sign {sd.s_at_zero_sign:+d}",
    )


def full_report(sd: ScatteringData, x_hi: float = 40.0, dx: float = 0.01) -> ValidationReport:
    """Aggregate all four conditions, at the default ConditionThresholds,
    into a ValidationReport.

    F is built internally on [-20, x_hi] (build_F's default taper) for the
    integrability check.  The verdict passes iff every entry passes.
    """
    from .marchenko import build_F

    t = ConditionThresholds()
    entries = [
        check_symmetry_unitarity(sd, t),
        check_discrete(sd, t),
    ]
    F = build_F(sd, -20.0, x_hi, dx, imag_tol=1e-6)
    entries.append(check_integrability(F, t))
    idx_entry = check_index(sd, t)
    entries.append(idx_entry)
    index = int(idx_entry.measured) if np.isfinite(idx_entry.measured) else None
    return ValidationReport(
        entries=tuple(entries),
        index=index,
        j_count=sd.j_count,
        s_zero_sign=sd.s_at_zero_sign,
    )

"""Scalar Riemann problem: reconstruct the Jost function f(k) from S(k) and
the bound-state locations.

The boundary relation f(k) = S(-k) f(-k) on the real axis, with f analytic
in the upper half-plane, f(infinity) = 1, and prescribed simple zeros
i*kappa_j, is solved by peeling off a Blaschke product W carrying the zeros:

    phi_+(k) = f(k)/W(k),   phi_+(k) = g(k) phi_-(k),
    g(k) = S(-k) W(-k)/W(k),

where W = w = prod (k - i kappa_j)/(k + i kappa_j) in the generic case
(index of S equal to -2J) and W = w0 = w * k/(k + i kappa_shift) in the
zero-energy-resonance case (index -2J - 1, f(0) = 0), with kappa_shift one
above the largest kappa_j (1 when J = 0).  In both cases W(-k)/W(k) is
pole-free and unimodular on the axis (the k factors of w0 cancel in the
ratio, leaving an extra (k + i kappa_shift)/(k - i kappa_shift) Blaschke
factor), g has winding number zero, and |g| = 1, so log g is purely
imaginary.  phi_+ is then the exponential of the Cauchy transform of
log g, with the principal-value boundary formula on the axis, and
f = W phi_+.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characterize import check_index
from .errors import DataError, IndexMismatchError
from .model import ScatteringData
from .numkit import pv_cauchy_grid, quadrature_weights, unwrap_phase

__all__ = [
    "RiemannSolution",
    "blaschke",
    "blaschke_shifted",
    "solve_riemann",
    "verify_factorization",
]


def blaschke(kappas, k):
    """Blaschke product w(k) = prod_j (k - i kappa_j)/(k + i kappa_j).

    Unimodular on the real axis with w(-k) = 1/w(k); carries the prescribed
    upper-half-plane zeros i kappa_j.
    """
    k = np.asarray(k, dtype=complex)
    out = np.ones_like(k)
    for kap in np.atleast_1d(np.asarray(kappas, dtype=float)):
        denom = k + 1j * kap
        if np.any(np.abs(denom) < 1e-14):
            raise DataError(f"evaluation at the pole k = -i*{kap}")
        out = out * (k - 1j * kap) / denom
    return out if out.ndim else complex(out)


def blaschke_shifted(kappas, kappa_shift: float, k):
    """w0(k) = w(k) * k/(k + i kappa_shift); vanishes at k = 0, which builds
    the zero-energy resonance into the factorization.  kappa_shift must be
    positive and distinct from every kappa_j."""
    k = np.asarray(k, dtype=complex)
    out = _shifted(blaschke(kappas, k), kappas, kappa_shift, k)
    return out if np.ndim(out) else complex(out)


def _shifted(w, kappas, kappa_shift: float, k: np.ndarray):
    """blaschke_shifted from w = blaschke(kappas, k)."""
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    if kappa_shift <= 0:
        raise DataError("kappa_shift must be positive")
    if kappas.size and np.min(np.abs(kappas - kappa_shift)) < 1e-9:
        raise DataError("kappa_shift collides with a bound-state kappa")
    return w * k / (k + 1j * kappa_shift)


def _kappa_shift(sd: ScatteringData) -> float:
    """0 in the generic case; in the resonance case one above the largest
    kappa_j (1 when J = 0)."""
    return 0.0 if sd.s_at_zero_sign == 1 else 1.0 + float(max(sd.kappas, default=0.0))


@dataclass(frozen=True)
class RiemannSolution:
    """Jost boundary values f0 on sd.kgrid, reconstructed from the data sd
    solved (S and the kappa list), with the index of S and log g."""

    sd: ScatteringData
    f0: np.ndarray
    index: int
    log_g: np.ndarray

    @property
    def case(self) -> str:
        return "generic" if self.sd.s_at_zero_sign == 1 else "resonance"

    @property
    def kappa_shift(self) -> float:
        return _kappa_shift(self.sd)

    def continue_upper(self, z) -> np.ndarray:
        """Analytic continuation f(z) for Im z > 0 via the (non-singular)
        Cauchy integral of log g."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(z.imag <= 0):
            raise DataError("continuation requires Im z > 0")
        t, kappas = self.sd.kgrid.nodes, self.sd.kappas
        w = quadrature_weights(t.size, self.sd.kgrid.dk)
        cauchy = ((w * self.log_g)[None, :] / (t[None, :] - z[:, None])).sum(axis=1)
        phi = np.exp(cauchy / (2j * np.pi))
        if self.case == "resonance":
            W = blaschke_shifted(kappas, self.kappa_shift, z)
        else:
            W = blaschke(kappas, z)
        return W * phi


def solve_riemann(sd: ScatteringData) -> RiemannSolution:
    """Solve the boundary factorization f(k) = S(-k) f(-k) for f.

    Raises IndexMismatchError, with the entry's note, on data failing
    characterize.check_index; the S(0) sign flag then picks the generic or
    the resonance case.  Forms the reduced jump g = S(-k) W(-k)/W(k) from
    one evaluation of the Blaschke product, takes the continuous (purely
    imaginary) logarithm anchored at -k_max with |g| renormalized to 1,
    verifies from it that ind g = 0, evaluates the
    principal-value Cauchy transform at every node with the analytic
    O(1/t) tail of log g added, and returns
    f = W exp[(1/2pi) pv + i arg g / 2].
    """
    k = sd.kgrid.nodes
    s = sd.s_values
    if np.any(np.abs(s) == 0.0):
        raise DataError("S has a zero sample")
    entry = check_index(sd)
    if not entry.passed:
        raise IndexMismatchError(f"S fails the index condition: {entry.note}")
    w = blaschke(sd.kappas, k)
    ratio = np.conj(w) / w  # w(-k) = conj w(k) = 1/w(k) on the axis
    W = w
    if sd.s_at_zero_sign == -1:
        shift = _kappa_shift(sd)
        W = _shifted(w, sd.kappas, shift, k)
        # w0(-k)/w0(k) = (1/w^2) (k + i shift)/(k - i shift): no zero at 0
        ratio = ratio * (k + 1j * shift) / (k - 1j * shift)
    g = s[::-1] * ratio  # S(-k) at node k is the reflected sample
    g = g / np.abs(g)  # enforce unimodularity before taking the log
    theta = unwrap_phase(g)
    g_idx = round(float(theta[-1] - theta[0]) / (2 * np.pi))
    if g_idx != 0:
        raise IndexMismatchError(f"reduced jump has winding {g_idx}, expected 0")
    log_g = 1j * theta
    tail_coeff = 0.5 * float(theta[-1] * k[-1] + theta[0] * k[0])
    pv = pv_cauchy_grid(theta, k, tail_coeff=tail_coeff)
    # phi_plus is named: inlined, numpy may multiply into the temporary with
    # the operands swapped, which moves the last bit of f0
    phi_plus = np.exp(pv / (2 * np.pi) + 0.5j * theta)
    f0 = W * phi_plus
    return RiemannSolution(sd=sd, f0=f0, index=int(entry.measured), log_g=log_g)


def verify_factorization(sol: RiemannSolution) -> dict:
    """Diagnostics for a computed factorization, against the data sol.sd
    it was solved from.

    Reports the boundary-relation residual max |S(k) f(k) - f(-k)|, the
    reality residual max |f(-k) - conj f(k)|, |f(i kappa_j)| by upper
    half-plane continuation (zero to rounding, since the Blaschke factor
    vanishes there), |f(0)| in the resonance case, and the deviation of
    f at the grid ends from its unit limit.
    """
    f, sd = sol.f0, sol.sd
    s = sd.s_values
    interior = slice(1, -1)
    boundary = float(np.max(np.abs((s * f - f[::-1])[interior])))
    reality = float(np.max(np.abs((f[::-1] - np.conj(f))[interior])))
    out = {
        "boundary_residual": boundary,
        "reality_residual": reality,
        "f_inf_residual": float(max(abs(f[0] - 1), abs(f[-1] - 1))),
        "index": sol.index,
        "case": sol.case,
    }
    kappas = sd.kappas
    if kappas.size:
        fz = sol.continue_upper(1j * kappas)
        out["f_at_zeros"] = np.abs(fz).tolist()
        out["max_zero_residual"] = float(np.max(np.abs(fz)))
    if sol.case == "resonance" and sd.kgrid.zero_index is not None:
        out["f_at_origin"] = float(np.abs(f[sd.kgrid.zero_index]))
    return out

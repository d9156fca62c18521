"""Scalar Riemann problem: reconstruct the Jost function f(k) from S(k) and
the bound-state locations.

The boundary relation f(k) = S(-k) f(-k) on the real axis, with f analytic
in the upper half-plane, f(infinity) = 1, and prescribed simple zeros
i*kappa_j (kappa_j > 0), is solved by peeling off a Blaschke product W
carrying the zeros:

    phi_+(k) = f(k)/W(k),   phi_+(k) = g(k) phi_-(k),
    g(k) = S(-k) W(-k)/W(k),

where W = w = prod (k - i kappa_j)/(k + i kappa_j) in the generic case
(index of S equal to -2J) and W = w * k/(k + i shift) in the
zero-energy-resonance case (index -2J - 1, f(0) = 0), with shift one above
the largest kappa_j (1 when J = 0).  In both cases W(-k)/W(k) is pole-free
and unimodular on the axis (the k factors cancel in the ratio, leaving an
extra (k + i shift)/(k - i shift) Blaschke factor), g has winding number
zero, and |g| = 1, so log g is purely imaginary.  phi_+ is then the
exponential of the Cauchy transform of log g, with the principal-value
boundary formula on the axis, and f = W phi_+.  f is formed on k >= 0 and
filled on k < 0 by the reality relation f(-k) = conj f(k), as
forward.jost_boundary fills it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characterize import check_index
from .errors import DataError, IndexMismatchError
from .model import ScatteringData
from .numkit import pv_cauchy_grid, unwrap_phase

__all__ = [
    "RiemannSolution",
    "blaschke",
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


@dataclass(frozen=True)
class RiemannSolution:
    """Jost boundary values f0 on sd.kgrid, reconstructed from the data sd
    solved (S and the kappa list), with the index of S."""

    sd: ScatteringData
    f0: np.ndarray
    index: int

    @property
    def case(self) -> str:
        return "generic" if self.sd.s_at_zero_sign == 1 else "resonance"


def solve_riemann(sd: ScatteringData) -> RiemannSolution:
    """Solve the boundary factorization f(k) = S(-k) f(-k) for f.

    Raises DataError unless every kappa_j > 0 (the zeros must lie in the
    upper half-plane), and IndexMismatchError, with the entry's note, on
    data failing characterize.check_index; the S(0) sign flag then picks
    the generic or the resonance case.  Forms the reduced jump
    g = S(-k) W(-k)/W(k) from one evaluation of the Blaschke product,
    takes the continuous (purely imaginary) logarithm anchored at -k_max
    with |g| renormalized to 1, verifies from it that ind g = 0, and
    evaluates the principal-value Cauchy transform at every node with the
    analytic O(1/t) tail of log g added.  f = W exp[(1/2pi) pv + i arg g / 2]
    is formed on k >= 0 and mirrored, f(-k) = conj f(k).
    """
    k = sd.kgrid.nodes
    s = sd.s_values
    if np.any(np.abs(s) == 0.0):
        raise DataError("S has a zero sample")
    if not np.all(sd.kappas > 0):
        raise DataError(f"bound-state kappas must be positive, got {sd.kappas}")
    entry = check_index(sd)
    if not entry.passed:
        raise IndexMismatchError(f"S fails the index condition: {entry.note}")
    W = blaschke(sd.kappas, k)
    ratio = np.conj(W) / W  # w(-k) = conj w(k) = 1/w(k) on the axis
    if sd.s_at_zero_sign == -1:
        # W = w k/(k + i shift) vanishes at 0; its ratio
        # W(-k)/W(k) = (1/w^2) (k + i shift)/(k - i shift) does not
        shift = 1.0 + float(max(sd.kappas, default=0.0))
        W = W * k / (k + 1j * shift)
        ratio = ratio * (k + 1j * shift) / (k - 1j * shift)
    g = s[::-1] * ratio  # S(-k) at node k is the reflected sample
    g = g / np.abs(g)  # enforce unimodularity before taking the log
    theta = unwrap_phase(g)
    g_idx = round(float(theta[-1] - theta[0]) / (2 * np.pi))
    if g_idx != 0:
        raise IndexMismatchError(f"reduced jump has winding {g_idx}, expected 0")
    tail_coeff = 0.5 * float(theta[-1] * k[-1] + theta[0] * k[0])
    pv = pv_cauchy_grid(theta, k, tail_coeff=tail_coeff)
    up = sd.kgrid.upper
    # phi_plus is named: inlined, numpy may multiply into the temporary with
    # the operands swapped, which moves the last bit of f0
    phi_plus = np.exp(pv[up] / (2 * np.pi) + 0.5j * theta[up])
    f0 = sd.kgrid.mirror(W[up] * phi_plus, np.conj)
    return RiemannSolution(sd=sd, f0=f0, index=int(entry.measured))


def verify_factorization(sol: RiemannSolution) -> dict:
    """Diagnostics for a computed factorization, against the data sol.sd
    it was solved from: the boundary-relation residual
    max |S(k) f(k) - f(-k)| over the interior nodes, the deviation of f at
    the grid ends from its unit limit, the index and the case.  The zeros
    f(i kappa_j) = 0, f(0) = 0 in the resonance case and f(-k) = conj f(k)
    hold by construction and are not reported.
    """
    f, s = sol.f0, sol.sd.s_values
    return {
        "boundary_residual": float(np.max(np.abs((s * f - f[::-1])[1:-1]))),
        "f_inf_residual": float(max(abs(f[0] - 1), abs(f[-1] - 1))),
        "index": sol.index,
        "case": sol.case,
    }

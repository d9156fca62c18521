"""Shared fixtures: reference potentials and cached forward solutions."""

from __future__ import annotations

import numpy as np
import pytest

from halfline import marchenko as mk
from halfline.errors import DataError, SolverError
from halfline.forward import forward
from halfline.model import BoundState, MarchenkoInput, MomentumGrid, RadialGrid, ScatteringData
from halfline.numkit import quadrature_weights
from halfline.potentials import sech2_potential, square_well_potential, zero_potential


@pytest.fixture(scope="session")
def xgrid_default() -> RadialGrid:
    return RadialGrid.make(40.0, 0.01)


@pytest.fixture(scope="session")
def kgrid_fourier() -> MomentumGrid:
    return MomentumGrid.make(200.0, 0.01)


@pytest.fixture(scope="session")
def kgrid_coarse() -> MomentumGrid:
    return MomentumGrid.make(200.0, 0.05)


@pytest.fixture(scope="session")
def q_zero(xgrid_default):
    return zero_potential(xgrid_default)


@pytest.fixture(scope="session")
def q_sech2(xgrid_default):
    return sech2_potential(xgrid_default)


@pytest.fixture(scope="session")
def q_well(xgrid_default):
    return square_well_potential(xgrid_default)


@pytest.fixture(scope="session")
def fw_sech2(q_sech2, kgrid_fourier):
    return forward(q_sech2, kgrid_fourier)


@pytest.fixture(scope="session")
def fw_well(q_well, kgrid_fourier):
    return forward(q_well, kgrid_fourier)


@pytest.fixture(scope="session")
def fw_zero(q_zero, kgrid_fourier):
    return forward(q_zero, kgrid_fourier)


def sech2_jost_exact(x: np.ndarray, k: complex) -> np.ndarray:
    """Closed-form Jost solution for q = -2/cosh^2 x."""
    return np.exp(1j * k * x) * (k + 1j * np.tanh(x)) / (k + 1j)


def square_well_jost_oracle(k: complex, depth: float = 4.0, width: float = 1.0) -> tuple[complex, complex]:
    """Closed-form (f(0,k), f'(0,k)) for the square well by plane-wave
    matching at the edge: inside omega = sqrt(k^2 + depth),

        f(0,k)  = e^{ik w} [cos(omega w) - i (k/omega) sin(omega w)]
        f'(0,k) = e^{ik w} [i k cos(omega w) + omega sin(omega w)].
    """
    om = np.sqrt(complex(k) ** 2 + depth)
    w = width
    phase = np.exp(1j * complex(k) * w)
    f0 = phase * (np.cos(om * w) - 1j * (complex(k) / om) * np.sin(om * w))
    fp0 = phase * (1j * complex(k) * np.cos(om * w) + om * np.sin(om * w))
    return complex(f0), complex(fp0)


def reflectionless_data(kgrid: MomentumGrid, states) -> ScatteringData:
    """Admissible data with the bound states (kappa_j, s_j) and the Jost
    function w = prod_j (k - i kappa_j)/(k + i kappa_j): S = conj(w)/w."""
    k = kgrid.nodes
    w = np.prod([(k - 1j * kappa) / (k + 1j * kappa) for kappa, _ in states], axis=0)
    return ScatteringData(kgrid=kgrid, s_values=np.conj(w) / w, bound_states=tuple(BoundState(*b) for b in states))


def well_kappa_oracle(depth: float = 4.0, width: float = 1.0, iters: int = 200) -> float:
    """Bound-state location for the square well by high-resolution bisection
    of omega*cot(omega*width) = -kappa with omega = sqrt(depth - kappa^2)."""

    def g(kappa: float) -> float:
        om = np.sqrt(depth - kappa**2)
        return om / np.tan(om * width) + kappa

    lo, hi = 1e-6, np.sqrt(depth) - 1e-9
    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if glo * g(mid) <= 0:
            hi = mid
        else:
            lo, glo = mid, g(mid)
    return 0.5 * (lo + hi)


def find_root_scalar(g, a: float, b: float, tol: float = 1e-10, max_iter: int = 200, fa=None, fb=None) -> float:
    """Reference scalar safeguarded secant: the iterates the batched
    numkit.find_roots must reproduce bracket by bracket.  fa and fb are
    g(a) and g(b), computed here when not given; like find_roots, a caller
    whose scan holds them passes them."""
    fa = g(a) if fa is None else fa
    fb = g(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    assert fa * fb < 0
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    lo, hi, flo, fhi = a, b, fa, fb
    for _ in range(max_iter):
        x_new = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev) if f_cur != f_prev else 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        f_new = g(x_new)
        if abs(f_new) <= tol:
            return x_new
        if flo * f_new < 0:
            hi, fhi = x_new, f_new
        else:
            lo, flo = x_new, f_new
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        if hi - lo <= 4 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0):
            return 0.5 * (lo + hi)
    raise AssertionError("reference root finder did not converge")


def marchenko_row(F: MarchenkoInput, x: float, y_max: float | None = None, rule: str = "simpson") -> np.ndarray:
    """Reference: row A(x, y) of the transformation kernel on y = x, x+dx,
    ..., y_max by one dense Nystrom solve, the row that
    marchenko.solve_kernel must reproduce.

    F must be sampled down to 2x and is looked up by index; samples beyond
    the F window are taken as zero.  y_max defaults to the end of the F
    window.  A one-node row is -F(2x)/(1 + dx F(2x)).  Raises SolverError
    for a zero or non-finite one-node pivot, a failed dense solve, or a
    relative residual above marchenko.RESIDUAL_TOL.
    """
    dx = F.xgrid.dx
    if y_max is None:
        y_max = F.xgrid.hi
    m = int(round((y_max - x) / dx)) + 1
    base = int(round((2 * x - F.xgrid.lo) / dx))
    if base < 0:
        raise DataError("F window does not reach down to 2x")
    idx = base + np.arange(2 * (m - 1) + 1)
    f = F.f_values
    Fwin = np.where(idx < f.size, f[np.minimum(idx, f.size - 1)], 0.0)
    rhs = -Fwin[:m]
    if m == 1:
        pivot = 1.0 + dx * Fwin[0]
        if pivot == 0.0 or not np.isfinite(pivot):
            raise SolverError(f"Marchenko row at x = {x:.4f} is singular: pivot {pivot}")
        return rhs / pivot
    w = quadrature_weights(m, dx, rule)
    mat = np.eye(m) + Fwin[np.add.outer(np.arange(m), np.arange(m))] * w[None, :]
    try:
        a = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Marchenko row at x = {x:.4f} is singular: {exc}")
    scale = float(np.linalg.norm(rhs))
    if scale > 0:
        resid = float(np.linalg.norm(mat @ a - rhs)) / scale
        if not np.isfinite(resid) or resid > mk.RESIDUAL_TOL:
            raise SolverError(f"Marchenko row at x = {x:.4f}: data violate unique solvability (residual {resid:.2e})")
    return a

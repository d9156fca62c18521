"""Shared fixtures: reference potentials and cached forward solutions."""

from __future__ import annotations

import numpy as np
import pytest

from halfline.forward import forward
from halfline.model import BoundState, MomentumGrid, RadialGrid, ScatteringData
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


def find_root_scalar(g, a: float, b: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Reference scalar safeguarded secant: the iterates the batched
    numkit.find_roots must reproduce bracket by bracket."""
    fa, fb = g(a), g(b)
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

"""Closed-form square-well oracle, written without any library code.

The well is q(x) = -depth on [0, width) and 0 beyond.  For Im k >= 0 the
Jost solution is e^{ikx} for x >= width; matching value and slope at the
edge gives f(0, k) in closed form, the bound states are the zeros i*kappa_j
of f(0, .) on the positive imaginary axis, and the norming constants are
s_j = 1 / int_0^inf f(x, i kappa_j)^2 dx, integrated exactly.
"""

from __future__ import annotations

import numpy as np


def potential(x: np.ndarray, depth: float, width: float = 1.0) -> np.ndarray:
    """Samples of the well; a node on the edge takes the midpoint -depth/2."""
    x = np.asarray(x, dtype=float)
    q = np.where(x < width, -depth, 0.0)
    q[np.abs(x - width) < 1e-9 * max(width, 1.0)] = -0.5 * depth
    return q


def jost_f0(k, depth: float, width: float = 1.0) -> np.ndarray:
    """f(0, k) by plane-wave matching: inside the well omega = sqrt(k^2 + depth),

        f(0, k) = e^{ik w} [cos(omega w) - i (k / omega) sin(omega w)].
    """
    k = np.asarray(k, dtype=complex)
    om = np.sqrt(k * k + depth)
    return np.exp(1j * k * width) * (np.cos(om * width) - 1j * (k / om) * np.sin(om * width))


def s_matrix(k: np.ndarray, depth: float, width: float = 1.0) -> np.ndarray:
    """S(k) = f(-k) / f(k) = conj f(k) / f(k) on real momenta."""
    f = jost_f0(k, depth, width)
    return np.conj(f) / f


def _g(kappa: float, depth: float, width: float) -> float:
    """e^{kappa w} f(0, i kappa) = cos(omega w) + kappa sin(omega w) / omega,
    omega = sqrt(depth - kappa^2); finite and positive at kappa = sqrt(depth)."""
    om = np.sqrt(max(depth - kappa * kappa, 0.0))
    sinc = np.sin(om * width) / om if om > 0 else width
    return float(np.cos(om * width) + kappa * sinc)


def bound_states(depth: float, width: float = 1.0, scan: int = 20000) -> list[tuple[float, float]]:
    """(kappa_j, s_j) in increasing kappa: each kappa by bracketing sign
    changes of f(0, i kappa) on (0, sqrt(depth)) and bisecting to rounding,
    each s_j from the exact norm of the bound state."""
    top = float(np.sqrt(depth))
    grid = np.linspace(1e-9, top, scan + 1)
    vals = [_g(k, depth, width) for k in grid]
    out = []
    for i in range(scan):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0:
            a, b, ga = grid[i], grid[i + 1], vals[i]
            while b - a > 4 * np.finfo(float).eps * b:
                m = 0.5 * (a + b)
                gm = _g(m, depth, width)
                if gm == 0.0:
                    a = b = m
                elif (gm < 0) == (ga < 0):
                    a, ga = m, gm
                else:
                    b = m
            kap = 0.5 * (a + b)
            out.append((kap, 1.0 / norm_squared(kap, depth, width)))
    return out


def norm_squared(kappa: float, depth: float, width: float = 1.0) -> float:
    """int_0^inf f(x, i kappa)^2 dx for the bound state at i kappa.

    Outside f = e^{-kappa x}; inside, with u = w - x and c = kappa / omega,
    f = e^{-kappa w} [cos(omega u) + c sin(omega u)].
    """
    w = width
    om = np.sqrt(depth - kappa * kappa)
    c = kappa / om
    s2, c2 = np.sin(2 * om * w), np.cos(2 * om * w)
    inside = (0.5 * w + s2 / (4 * om)) + c * c * (0.5 * w - s2 / (4 * om)) + c * (1 - c2) / (2 * om)
    return float(np.exp(-2 * kappa * w) * (1.0 / (2 * kappa) + inside))

"""Reference potentials used throughout the tests and CLI examples."""

from __future__ import annotations

import numpy as np

from .model import Potential, RadialGrid

__all__ = ["zero_potential", "sech2_potential", "square_well_potential"]


def zero_potential(grid: RadialGrid) -> Potential:
    return Potential(grid=grid, values=np.zeros(grid.n))


def sech2_potential(grid: RadialGrid, depth: float = 2.0) -> Potential:
    """q(x) = -depth / cosh^2 x.  depth = 2 is the classic transparent-type
    profile with Jost function k/(k+i) and a zero-energy resonance."""
    return Potential(grid=grid, values=-depth / np.cosh(grid.nodes) ** 2)


def square_well_potential(grid: RadialGrid, depth: float = 4.0, width: float = 1.0) -> Potential:
    """q(x) = -depth on [0, width), 0 beyond.  When the well edge falls on a
    grid node the sample there takes the midpoint value -depth/2, which keeps
    composite quadrature across the jump second-order accurate."""
    x = grid.nodes
    v = np.where(x < width, -depth, 0.0)
    edge = np.abs(x - width) < 1e-9 * max(width, 1.0)
    v[edge] = -depth / 2.0
    return Potential(grid=grid, values=v)


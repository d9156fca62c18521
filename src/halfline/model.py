"""Domain types for half-line scattering: grids, potentials, scattering data,
Jost boundary data, transformation kernels, and the validation report.

All types are immutable value objects: arrays are copied on construction and
marked read-only, so instances can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import DataError, GridError
from .numkit import differentiate

__all__ = [
    "UniformGrid",
    "RadialGrid",
    "MomentumGrid",
    "Potential",
    "BoundState",
    "ScatteringData",
    "JostField",
    "TransformationKernel",
    "MarchenkoInput",
    "ConditionEntry",
    "ValidationReport",
    "l11_moment",
]

_REL_TOL = 1e-9


def _frozen(a: np.ndarray, dtype=None) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _check_uniform(nodes: np.ndarray) -> float:
    if nodes.ndim != 1 or nodes.size < 2:
        raise GridError("grid needs at least two nodes")
    if not np.all(np.isfinite(nodes)):
        raise GridError("grid nodes must be finite")
    d = np.diff(nodes)
    if np.any(d <= 0):
        raise GridError("grid nodes must be strictly increasing")
    dx = float(nodes[1] - nodes[0])
    if np.max(np.abs(d - dx)) > _REL_TOL * max(abs(dx), 1.0):
        raise GridError("grid spacing must be uniform")
    return dx


@dataclass(frozen=True)
class UniformGrid:
    """Uniformly spaced 1-d sample grid on [lo, hi].

    The subclasses add one check on the nodes each (_check), their own
    make, and the names of their ends and spacing.
    """

    nodes: np.ndarray
    dx: float = field(init=False)

    def __post_init__(self):
        nodes = _frozen(self.nodes, dtype=float)
        dx = _check_uniform(nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dx", dx)
        self._check()

    def _check(self) -> None:
        """Subclass hook: refuse nodes that do not fit the grid kind."""

    @classmethod
    def make(cls, lo: float, hi: float, dx: float) -> "UniformGrid":
        n = int(round((hi - lo) / dx)) + 1
        return cls(lo + dx * np.arange(n))

    @property
    def lo(self) -> float:
        return float(self.nodes[0])

    @property
    def hi(self) -> float:
        return float(self.nodes[-1])

    @property
    def n(self) -> int:
        return int(self.nodes.size)


class RadialGrid(UniformGrid):
    """Uniform radial grid on [0, x_max]."""

    def _check(self) -> None:
        if abs(self.nodes[0]) > _REL_TOL:
            raise GridError("radial grid must start at x = 0")

    @classmethod
    def make(cls, x_max: float, dx: float) -> "RadialGrid":
        n = int(round(x_max / dx)) + 1
        return cls(dx * np.arange(n))

    @property
    def x_max(self) -> float:
        return self.hi


class MomentumGrid(UniformGrid):
    """Uniform momentum grid, symmetric about k = 0, with spacing dk.

    A node at k = 0 is allowed but flagged (zero_index), since S(0) needs the
    sign convention S(0) = +1 when f(0) != 0 and S(0) = -1 when f(0) = 0
    rather than a 0/0 division.
    """

    zero_index: int | None

    def _check(self) -> None:
        nodes = self.nodes
        if np.max(np.abs(nodes + nodes[::-1])) > _REL_TOL * max(abs(nodes[-1]), 1.0):
            raise GridError("momentum grid must be symmetric about 0")
        zi = np.argmin(np.abs(nodes))
        object.__setattr__(self, "zero_index", int(zi) if abs(nodes[zi]) < _REL_TOL * self.dx else None)

    @classmethod
    def make(cls, k_max: float, dk: float) -> "MomentumGrid":
        half = int(round(k_max / dk))
        return cls(dk * np.arange(-half, half + 1))

    @property
    def k_max(self) -> float:
        return self.hi

    @property
    def dk(self) -> float:
        return self.dx


@dataclass(frozen=True)
class Potential:
    """Real sampled potential q(x) on a radial grid.

    The admissibility class requires a finite first moment, integral of
    x|q(x)| dx; use l11_moment to evaluate it.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise DataError("potential samples must match the grid")
        if not np.all(np.isfinite(values)):
            raise DataError("potential samples must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, order=True)
class BoundState:
    """One bound state: location kappa of the zero i*kappa of the Jost
    function, with its norming constant s.

    Admissible data have kappa > 0 and s > 0; construction only requires
    finite values so that tampered or unvetted inputs remain representable
    for the characterization checks, which report violations instead of
    throwing.
    """

    kappa: float
    s: float

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and np.isfinite(self.s)):
            raise DataError(f"bound-state entries must be finite, got ({self.kappa}, {self.s})")


@dataclass(frozen=True)
class ScatteringData:
    """Scattering data: S(k) samples, bound states, and the S(0) sign flag.

    Bound states are kept sorted by strictly increasing kappa; ties are
    rejected because zeros of the Jost function are simple.
    """

    kgrid: MomentumGrid
    s_values: np.ndarray
    bound_states: tuple[BoundState, ...] = ()
    s_at_zero_sign: int = 1

    def __post_init__(self):
        sv = _frozen(self.s_values, dtype=complex)
        if sv.shape != self.kgrid.nodes.shape:
            raise DataError("S samples must match the momentum grid")
        if not np.all(np.isfinite(sv)):
            raise DataError("S samples must be finite")
        object.__setattr__(self, "s_values", sv)
        bs = tuple(self.bound_states)
        object.__setattr__(self, "bound_states", bs)
        kappas = [b.kappa for b in bs]
        if any(k2 <= k1 for k1, k2 in zip(kappas, kappas[1:])):
            raise DataError("bound-state kappas must be strictly increasing")
        if self.s_at_zero_sign not in (1, -1):
            raise DataError("s_at_zero_sign must be +1 or -1")

    @property
    def kappas(self) -> np.ndarray:
        return np.array([b.kappa for b in self.bound_states])

    @property
    def norming(self) -> np.ndarray:
        return np.array([b.s for b in self.bound_states])

    @property
    def j_count(self) -> int:
        return len(self.bound_states)


@dataclass(frozen=True)
class JostField:
    """Jost boundary data on a momentum grid: f(k) = f(0,k) and the
    derivatives f'(0,k) of the Jost solution on xgrid."""

    xgrid: RadialGrid
    kgrid: MomentumGrid
    f0: np.ndarray
    fprime0: np.ndarray

    def __post_init__(self):
        f0 = _frozen(self.f0, dtype=complex)
        fp = _frozen(self.fprime0, dtype=complex)
        if f0.shape != self.kgrid.nodes.shape or fp.shape != self.kgrid.nodes.shape:
            raise DataError("boundary samples must match the momentum grid")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "fprime0", fp)


@dataclass(frozen=True)
class TransformationKernel:
    """Triangular transformation kernel A(x,y), zero for y < x, with its
    diagonal A(x,x) stored separately."""

    xgrid: RadialGrid
    ygrid: RadialGrid
    values: np.ndarray
    diagonal: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values, dtype=float)
        diag = _frozen(self.diagonal, dtype=float)
        if vals.shape != (self.xgrid.n, self.ygrid.n):
            raise DataError("kernel values must be (n_x, n_y)")
        if diag.shape != self.xgrid.nodes.shape:
            raise DataError("kernel diagonal must match the x grid")
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(diag))):
            raise DataError("kernel samples must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "diagonal", diag)

    def row(self, i: int) -> np.ndarray:
        """A(x_i, y) on the y grid (zero for y < x_i)."""
        return self.values[i]


@dataclass(frozen=True)
class MarchenkoInput:
    """Samples of the Marchenko input F = F_s + F_d on a uniform grid (which
    may extend to negative x for data extraction), and its derivative."""

    xgrid: UniformGrid
    f_values: np.ndarray
    fs_values: np.ndarray
    fd_values: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("f_values", "fs_values", "fd_values"):
            a = _frozen(getattr(self, name), dtype=float)
            if a.shape != self.xgrid.nodes.shape:
                raise DataError(f"{name} must match the grid")
            if not np.all(np.isfinite(a)):
                raise DataError(f"{name} samples must be finite")
            arrays[name] = a
        if np.max(np.abs(arrays["f_values"] - arrays["fs_values"] - arrays["fd_values"])) > 1e-9 * (
            1.0 + np.max(np.abs(arrays["f_values"]))
        ):
            raise DataError("F must equal F_s + F_d pointwise")
        for name, a in arrays.items():
            object.__setattr__(self, name, a)

    @property
    def fprime(self) -> np.ndarray:
        """dF/dx by second-order finite differences."""
        return differentiate(self.f_values, self.xgrid.dx)


@dataclass(frozen=True)
class ConditionEntry:
    """Outcome of a single characterization condition."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "note": self.note,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Aggregated characterization verdict for a scattering data set."""

    entries: tuple[ConditionEntry, ...]
    index: int | None
    j_count: int
    s_zero_sign: int

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[str]:
        return [e.name for e in self.entries if not e.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "index": self.index,
            "j_count": self.j_count,
            "s_zero_sign": self.s_zero_sign,
            "entries": [e.to_dict() for e in self.entries],
        }


def l11_moment(q: Potential) -> float:
    """First moment integral of x |q(x)| over the radial grid (trapezoid).

    Finiteness of this moment is the admissibility condition on the
    potential class underlying the whole forward/inverse theory.
    """
    x = q.grid.nodes
    return float(np.trapezoid(x * np.abs(q.values), dx=q.grid.dx))

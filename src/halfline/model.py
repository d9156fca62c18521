"""Domain types for half-line scattering: grids, potentials, scattering data,
transformation kernels, and the validation report.

All types are immutable value objects: arrays are copied on construction and
marked read-only, so instances can be shared freely.  Each fact has one
owner: a grid owns its spacing, a kernel stores only its nonzero block,
F = F_s + F_d is summed once, at construction, and a validation report
reads its index from its index entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import DataError, GridError
from .numkit import _check_uniform, differentiate

__all__ = [
    "UniformGrid",
    "RadialGrid",
    "MomentumGrid",
    "Potential",
    "BoundState",
    "ScatteringData",
    "TransformationKernel",
    "MarchenkoInput",
    "ConditionEntry",
    "ValidationReport",
]

_REL_TOL = 1e-9


def _offsets(span: float, dx: float, symmetric: bool = False) -> np.ndarray:
    """Node offsets in steps of dx over span, for the grids' make: 0 .. m,
    or -m .. m when symmetric, with m = round(span / dx).  GridError unless
    dx is positive and finite and numpy can allocate the nodes."""
    if not (np.isfinite(dx) and dx > 0):
        raise GridError(f"grid spacing must be positive and finite, got {dx}")
    try:
        m = int(round(span / dx))
        return np.arange(-m if symmetric else 0, m + 1)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise GridError(f"cannot build a grid of spacing {dx} on a span of {span}: {exc}") from exc


def _frozen(a: np.ndarray, dtype=None) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


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
        return cls(lo + dx * _offsets(hi - lo, dx))

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
        return cls(dx * _offsets(x_max, dx))

    @property
    def x_max(self) -> float:
        return self.hi


class MomentumGrid(UniformGrid):
    """Uniform momentum grid, symmetric about k = 0, with spacing dk.

    A node at k = 0 is allowed but flagged (zero_index), since S(0) needs the
    sign convention S(0) = +1 when f(0) != 0 and S(0) = -1 when f(0) = 0
    rather than a 0/0 division.  A node within 1e-9 dk of 0 counts as k = 0.
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
        return cls(dk * _offsets(k_max, dk, symmetric=True))

    @property
    def k_max(self) -> float:
        return self.hi

    @property
    def dk(self) -> float:
        return self.dx

    @property
    def upper(self) -> slice:
        """Positions of the upper half k >= 0: the centre node of an odd grid
        (its k = 0 node, whatever its rounding) and everything above it."""
        return slice(self.n // 2, None)

    def mirror(self, values: np.ndarray, flip) -> np.ndarray:
        """Whole-grid array from values on the upper nodes: node -k, at the
        reflected position, takes flip(value at k), e.g. np.conj for
        f(-k) = conj f(k) or np.negative for an odd function."""
        return np.concatenate([flip(values[::-1][: self.n // 2]), values])


@dataclass(frozen=True)
class Potential:
    """Real sampled potential q(x) on a radial grid.

    The admissibility class requires a finite first moment, integral of
    x|q(x)| dx, which every q sampled on a finite grid has.
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
class TransformationKernel:
    """Triangular transformation kernel A(x,y) on grid x grid, zero for
    y < x, stored as its leading nb x nb block (nb <= n): A is 0 outside it.

    For a compactly supported q, A vanishes for x + y >= 2 (end of the
    support), so the block is a small corner of the grid; a kernel without
    exact zeros is one full n x n block.  The constructor checks the block's
    shape and finiteness; it keeps a float block that is read-only and owns
    its memory, as the library's two producers hand it over, and copies any
    other, so a caller's writable array or view stays the caller's own.
    diagonal, row(i) and values are read-only arrays on the whole grid, zero
    outside the block.
    """

    grid: RadialGrid
    block: np.ndarray

    def __post_init__(self):
        blk = self.block
        if not (isinstance(blk, np.ndarray) and blk.dtype == float and blk.flags.owndata and not blk.flags.writeable):
            blk = _frozen(blk, dtype=float)
        if blk.ndim != 2 or blk.shape[0] != blk.shape[1] or blk.shape[0] > self.grid.n:
            raise DataError("kernel block must be square and at most (n, n) on the grid")
        if not np.all(np.isfinite(blk)):
            raise DataError("kernel samples must be finite")
        object.__setattr__(self, "block", blk)

    def _padded(self, head: np.ndarray) -> np.ndarray:
        """head followed by zeros up to length n, read-only."""
        out = np.zeros(self.grid.n)
        out[: head.size] = head
        out.flags.writeable = False
        return out

    @property
    def diagonal(self) -> np.ndarray:
        """A(x,x) on the grid, from which q = -2 dA(x,x)/dx."""
        return self._padded(self.block.diagonal())

    def row(self, i: int) -> np.ndarray:
        """A(x_i, y) on the grid (zero for y < x_i)."""
        i = range(self.grid.n)[i]  # negative i counts from the grid's end
        return self._padded(self.block[i] if i < self.block.shape[0] else np.empty(0))

    @property
    def values(self) -> np.ndarray:
        """The dense n x n A, read-only; built on each call, for checks and
        inspection only (the library's consumers read the block)."""
        n, nb = self.grid.n, self.block.shape[0]
        out = np.zeros((n, n))
        out[:nb, :nb] = self.block
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class MarchenkoInput:
    """Samples of F_s and F_d on a radial grid [0, x_max]; the Marchenko
    input F = F_s + F_d is summed once here, and its derivative is fprime.
    F lives on the half-line: any other grid raises GridError.  The
    Marchenko rows take the sample at x = 0 as the right limit F(0+)."""

    xgrid: RadialGrid
    fs_values: np.ndarray
    fd_values: np.ndarray
    f_values: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.xgrid, RadialGrid):
            raise GridError("F needs a radial grid on [0, x_max]")
        fs = _frozen(self.fs_values, dtype=float)
        fd = _frozen(self.fd_values, dtype=float)
        if fs.shape != self.xgrid.nodes.shape or fd.shape != self.xgrid.nodes.shape:
            raise DataError("F_s and F_d samples must match the grid")
        with np.errstate(over="ignore"):  # an overflow is refused just below
            f = _frozen(fs + fd)
        # finite iff F_s and F_d both are and their sum does not overflow
        if not np.all(np.isfinite(f)):
            raise DataError("f_values samples must be finite")
        object.__setattr__(self, "fs_values", fs)
        object.__setattr__(self, "fd_values", fd)
        object.__setattr__(self, "f_values", f)

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
    j_count: int
    s_zero_sign: int

    @property
    def index(self) -> int | None:
        """The winding index the "index" entry measured; None when that
        entry is inconclusive (measured nan) or absent."""
        measured = next((e.measured for e in self.entries if e.name == "index"), float("nan"))
        return int(measured) if np.isfinite(measured) else None

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

"""Shared fixtures: reference potentials and cached forward solutions."""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from halfline import marchenko as mk
from halfline.errors import DataError, SolverError
from halfline.forward import forward
from halfline.model import BoundState, MarchenkoInput, MomentumGrid, Potential, RadialGrid, ScatteringData
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


def displaced_well(a: float) -> Potential:
    """Depth-4, width-1 well on [a, a + 1] on x in [0, 40] at dx 0.01; a node
    on an edge inside the half-line takes the midpoint value -2.  a = 0 is
    the README's well, square_well_potential on the same grid."""
    g = RadialGrid.make(40.0, 0.01)
    x = g.nodes
    v = np.where((x >= a) & (x < a + 1), -4.0, 0.0)
    for edge in (a, a + 1) if a > 0 else (a + 1,):
        v[np.abs(x - edge) < 1e-9] = -2.0
    return Potential(grid=g, values=v)


@functools.cache
def displaced_data(a: float) -> ScatteringData:
    return forward(displaced_well(a)).sd


def sech2_jost_exact(x: np.ndarray, k: complex) -> np.ndarray:
    """Closed-form Jost solution for q = -2/cosh^2 x."""
    return np.exp(1j * k * x) * (k + 1j * np.tanh(x)) / (k + 1j)


def reflectionless_data(kgrid: MomentumGrid, states) -> ScatteringData:
    """Admissible data with the bound states (kappa_j, s_j) and the Jost
    function w = prod_j (k - i kappa_j)/(k + i kappa_j): S = conj(w)/w."""
    k = kgrid.nodes
    w = np.prod([(k - 1j * kappa) / (k + 1j * kappa) for kappa, _ in states], axis=0)
    return ScatteringData(kgrid=kgrid, s_values=np.conj(w) / w, bound_states=tuple(BoundState(*b) for b in states))


def _segment(m: float, L: float) -> tuple[float, float, float]:
    """(c, so, st) such that [[c, so], [st, c]] maps (u, u') across a piece
    of length L on which u'' = m u: cosh(mu L), sinh(mu L)/mu and
    mu sinh(mu L) for mu^2 = m > 0, their trigonometric forms for m < 0, and
    (1, L, 0) at m = 0.  The map's determinant is 1, so its inverse is
    [[c, -so], [-st, c]]."""
    if m > 0:
        mu = math.sqrt(m)
        return math.cosh(mu * L), math.sinh(mu * L) / mu, mu * math.sinh(mu * L)
    if m < 0:
        p = math.sqrt(-m)
        return math.cos(p * L), math.sin(p * L) / p, -p * math.sin(p * L)
    return 1.0, L, 0.0


def _segment_square_integral(a: float, b: float, m: float, L: float) -> float:
    """int_0^L u^2 dt for u'' = m u, u(0) = a, u'(0) = b, in closed form:
    u = a C + b S with C = cosh(mu t) and S = sinh(mu t)/mu (cos and sin/p
    for m < 0), int C^2 = (L + c so)/2, int C S = so^2/2 and int S^2 =
    (c so - L)/(2m), the last by its power series where |m| L^2 is small.
    Where u grows (a and b of one sign, m > 0) no term cancels."""
    c, so, _ = _segment(m, L)
    if abs(m) * L * L < 0.25:
        iss = sum(2.0 ** (2 * n - 1) * m ** (n - 1) * L ** (2 * n + 1) / (math.factorial(2 * n) * (2 * n + 1)) for n in range(1, 12))
    else:
        iss = (c * so - L) / (2.0 * m)
    return a * a * (L + c * so) / 2.0 + a * b * so * so + b * b * iss


class PiecewiseOracle:
    """Exact scattering quantities of a piecewise-constant potential, the
    continuum problem that the library's sampled wells discretize: q = v_i
    on [x_i, x_{i+1}) for edges 0 = x_0 < x_1 < ... < x_m, and q = 0 from
    x_m on.  Several wells at any positions and depths.

    - jost(k): (f(0, k), f'(0, k)) at real k, by the pieces' transfer
      matrices from f = e^{ikx} at x_m.
    - kappas(): the bound states, increasing.  The Sturm count (the zeros
      on (0, inf) of the regular solution phi, phi(0) = 0, phi'(0) = 1,
      number the kappa_j above kappa) brackets each one alone, and it is the
      zero of the matching Wronskian W = f phi' - f' phi at an edge x_c of
      phi marched right from 0 and the Jost solution f = e^{-kappa x}
      marched left from x_m.
    - norming(): s_j = 1 / int_0^inf f^2, f normalized to e^{-kappa x} past
      x_m, from the closed-form integrals of each piece: f's on [x_c, inf),
      and (f/phi)(x_c)^2 times phi's on [0, x_c).

    x_c is the edge where each march stands at its largest amplitude so far
    (_match): the peak of the state, toward which both marches grow.  So
    neither march is formed by cancellation, as f(0, i kappa) from the
    right is left of a well away from the wall, and no piece's integral
    cancels.  The library's wells take the midpoint value at an edge node,
    so they differ from this continuum problem at O(dx^2).
    """

    def __init__(self, edges, values):
        edges = [float(e) for e in edges]
        assert edges[0] == 0.0 and all(b > a for a, b in zip(edges, edges[1:])) and len(values) == len(edges) - 1
        self.pieces = [(b - a, float(v)) for a, b, v in zip(edges, edges[1:], values)]
        self.x_end = edges[-1]
        self.depth = -min(values)

    def jost(self, k: float) -> tuple[complex, complex]:
        k = float(k)
        u = complex(np.exp(1j * k * self.x_end))
        du = 1j * k * u
        for L, v in reversed(self.pieces):
            c, so, st = _segment(v - k * k, L)
            u, du = c * u - so * du, c * du - st * u
        return u, du

    def _marches(self, kappa: float):
        """phi marched right and f marched left, each (u, u') at every
        edge, and the Sturm count: the zeros of phi on (0, inf)."""
        n = len(self.pieces)
        phi, f = np.empty((n + 1, 2)), np.empty((n + 1, 2))
        phi[0] = 0.0, 1.0
        zeros = 0
        for i, (L, v) in enumerate(self.pieces):
            m = v + kappa * kappa
            c, so, st = _segment(m, L)
            u, du = phi[i]
            phi[i + 1] = c * u + so * du, st * u + c * du
            if m < 0:  # phi = r sin(theta), phi'/p = r cos(theta), theta' = p
                p = math.sqrt(-m)
                theta = math.atan2(u, du / p)
                zeros += math.floor((theta + p * L) / math.pi) - math.floor(theta / math.pi)
            else:  # a hyperbolic or linear piece holds at most one zero
                zeros += u * phi[i + 1, 0] < 0
        u, du = phi[n]
        zeros += u * (u + du / kappa) < 0  # the tail's e^{+-kappa x} mix changes sign at most once
        f[n] = math.exp(-kappa * self.x_end), -kappa * math.exp(-kappa * self.x_end)
        for i in range(n - 1, -1, -1):
            L, v = self.pieces[i]
            c, so, st = _segment(v + kappa * kappa, L)
            u, du = f[i + 1]
            f[i] = c * u - so * du, c * du - st * u
        return phi, f, zeros

    def _match(self, kappa: float) -> int:
        """The matching edge: where phi's and f's amplitudes, relative to
        their largest so far in marching order, are jointly largest."""
        phi, f, _ = self._marches(kappa)
        amp_phi, amp_f = np.hypot(phi[:, 0], phi[:, 1] / kappa), np.hypot(f[:, 0], f[:, 1] / kappa)
        grown_phi = amp_phi / np.maximum.accumulate(amp_phi)
        grown_f = amp_f / np.maximum.accumulate(amp_f[::-1])[::-1]
        return int(np.argmax(np.minimum(grown_phi, grown_f)))

    def _wronskian(self, kappa: float, c: int) -> float:
        phi, f, _ = self._marches(kappa)
        return f[c, 0] * phi[c, 1] - f[c, 1] * phi[c, 0]

    def _count(self, kappa: float) -> int:
        return self._marches(kappa)[2]

    def kappas(self) -> tuple[float, ...]:
        if self.depth <= 0:
            return ()
        k_lo, k_hi = 1e-8 * math.sqrt(self.depth), math.sqrt(self.depth)
        j = self._count(k_lo)
        out = []
        for i in range(j):  # kappa_i: where the count drops from j - i to j - i - 1
            lo, hi = k_lo, k_hi
            for _ in range(200):
                if self._count(lo) == j - i and self._count(hi) == j - i - 1:
                    break
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if self._count(mid) >= j - i else (lo, mid)
            else:
                raise AssertionError("Sturm bisection did not isolate a state")
            # W is the same function at every edge; match at the root's own edge
            kappa = brentq(self._wronskian, lo, hi, args=(self._match(0.5 * (lo + hi)),), xtol=1e-15)
            out.append(brentq(self._wronskian, lo, hi, args=(self._match(kappa),), xtol=1e-15))
        return tuple(out)

    def norming(self) -> tuple[float, ...]:
        out = []
        for kappa in self.kappas():
            c = self._match(kappa)
            phi, f, _ = self._marches(kappa)
            i_phi = sum(_segment_square_integral(*phi[i], v + kappa * kappa, L) for i, (L, v) in enumerate(self.pieces[:c]))
            i_f = f[-1, 0] ** 2 / (2.0 * kappa)  # int_{x_m}^inf e^{-2 kappa x}
            for i, (L, v) in enumerate(self.pieces[c:], start=c):  # from each piece's right end, leftward
                i_f += _segment_square_integral(f[i + 1, 0], -f[i + 1, 1], v + kappa * kappa, L)
            ratio = (f[c] @ phi[c]) / (phi[c] @ phi[c])  # f = ratio phi on [0, x_c]
            out.append(float(1.0 / (i_f + ratio * ratio * i_phi)))
        return tuple(out)


def well_oracle(a: float = 0.0, depth: float = 4.0, width: float = 1.0) -> PiecewiseOracle:
    """The oracle of the well -depth on [a, a + width), the continuum form
    of displaced_well(a) and, at a = 0, of the README's well."""
    if a == 0.0:
        return PiecewiseOracle([0.0, width], [-depth])
    return PiecewiseOracle([0.0, a, a + width], [0.0, -depth])


def vanishing_fprime_well() -> Potential:
    """The depth-65.81 well on [5, 5.25) on x in [0, 10] at dx 0.05, with no
    midpoint edges: its one bound state, kappa = 5.582375, has
    f'(0, i kappa) = 0.0 exactly in the library's march."""
    g = RadialGrid.make(10.0, 0.05)
    return Potential(grid=g, values=np.where((g.nodes >= 5.0) & (g.nodes < 5.25), -65.81, 0.0))


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


def write_csv_reference(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Reference: the CSV artifact writer cli._write_csv must reproduce byte
    for byte; every value formatted by repr, one row per sample, the bytes
    csv.writer writes for these rows."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        rows = zip(*(c.tolist() for c in columns))
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def write_json_reference(path: Path, doc: dict) -> None:
    """Reference: the JSON artifact writer cli._write_json must reproduce
    byte for byte, json.dumps(doc, indent=1, sort_keys=True) and a newline
    with numpy scalars as floats; a top-level (finite) numpy array is
    joined from the reprs of all its entries."""
    entries = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, np.ndarray):
            body = "[\n  " + ",\n  ".join(map(repr, value.tolist())) + "\n ]" if value.size else "[]"
        else:
            body = json.dumps(value, indent=1, sort_keys=True, default=float).replace("\n", "\n ")
        entries.append(f" {json.dumps(key)}: {body}")
    path.write_text("{\n" + ",\n".join(entries) + "\n}\n")


def kernel_fill_by_diagonals(K: np.ndarray, nb: int) -> np.ndarray:
    """Reference: the nb x nb block of A(x, y) from the Goursat array K
    (rows xi, columns eta; at least nb rows, m = (nb - 1) // 2 + 1 columns),
    one diagonal of the block at a time, the fill that
    forward.kernel_from_potential must reproduce bit for bit.

    Even offsets d read K[i + d/2, d/2]; odd offsets the mean of a cell's
    four corners, the upper columns clamped to m - 1.
    """
    m = K.shape[1]
    KT = np.ascontiguousarray(K[:nb].T)
    A = np.zeros((nb, nb))
    for d in range(nb):
        r, span = d // 2, nb - d
        if d % 2 == 0:
            vals = KT[r, r : r + span]
        else:
            lo, hi = KT[r], KT[min(r + 1, m - 1)]
            vals = 0.25 * (lo[r : r + span] + lo[r + 1 : r + 1 + span] + hi[r : r + span] + hi[r + 1 : r + 1 + span])
        A.reshape(-1)[d :: nb + 1][:span] = vals
    return A

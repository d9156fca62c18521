"""Inverse scattering pipeline and its reverse arrows.

Forward composition (the three inversion steps):

    scattering data  =>  F = F_s + F_d  =>  A(x,y)  =>  q = -2 dA(x,x)/dx

with F_s(x) = (1/2pi) int (1 - S(k)) e^{ikx} dk and
F_d(x) = sum_j s_j e^{-kappa_j x}, and A(x, .) the solution of the Marchenko
equation A(x,y) + F(x+y) + int_x^inf A(x,s) F(s+y) ds = 0 for y >= x.

Reverse arrows: f_from_kernel recovers F from the x = 0 kernel row by a
backward Volterra solve of the same equation; extract_data_from_F strips
bound-state exponentials off the x -> -inf asymptotics of F and Fourier
transforms the remainder back to 1 - S(k); data_from_kernel reconstructs
the full scattering data from A alone.

Each kernel row is one dense Nystrom solve by solve_marchenko (Simpson
rule), and invert_full runs them one row after another; F beyond the sample
window is treated as zero (its tail mass is the reported error scale), and
rows are truncated where the remaining |F| mass falls below Y_TAIL_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SolverError, StageError, StrippingError
from .forward import RESONANCE_TOL, _kappa_scan
from .model import (
    BoundState,
    MarchenkoInput,
    MomentumGrid,
    Potential,
    RadialGrid,
    ScatteringData,
    TransformationKernel,
    UniformGrid,
)
from .numkit import (
    _oscillatory_sum,
    differentiate,
    find_roots,
    fourier_kernel_to_space,
    fourier_space_to_kernel,
    integrate,
    quadrature_weights,
    solve_volterra_backward,
)

__all__ = [
    "InversionConfig",
    "InversionResult",
    "build_F",
    "solve_marchenko",
    "recover_potential",
    "invert",
    "invert_full",
    "f_from_kernel",
    "extract_data_from_F",
    "data_from_kernel",
]

RESIDUAL_TOL = 1e-10  # relative residual above which a kernel row is refused
Y_TAIL_TOL = 1e-8  # |F| tail mass below which a kernel row is truncated
# bound-state stripping in extract_data_from_F: fit and polish windows as
# fractions of the x < 0 samples, the state cap, the resolvable separation
STRIP_WINDOW_FRAC = 0.25
STRIP_REFINE_FRAC = 0.6
STRIP_MAX_STATES = 12
STRIP_KAPPA_SEP = 1e-2


@dataclass(frozen=True)
class InversionConfig:
    """Spatial grid of the inversion pipeline, and whether to skip its
    characterization gate.

    The kernel is computed on [0, x_max] with spacing dx; the momentum grid
    is the scattering data's own.  F is built on [0, 2*x_max] since the
    Marchenko kernel samples F(s + y) with s, y <= x_max, with the analytic
    1/k tail correction and no endpoint taper: the correction suppresses
    Gibbs ringing that would otherwise dominate the recovered q after
    differentiation.  Kernel rows use the Simpson rule, and q = -2 dA/dx
    the five-point derivative, since differentiation amplifies noise.
    """

    x_max: float = 40.0
    dx: float = 0.05
    force: bool = False


def build_F(
    sd: ScatteringData,
    x_lo: float,
    x_hi: float,
    dx: float,
    tail_correction: bool = False,
    imag_tol: float = 1e-8,
) -> MarchenkoInput:
    """Marchenko input on [x_lo, x_hi]: F_d from the bound states, F_s by the
    oscillatory Fourier quadrature of 1 - S (one chirp-z transform)."""
    grid = UniformGrid.make(x_lo, x_hi, dx)
    h = 1.0 - sd.s_values
    fs, resid = fourier_kernel_to_space(h, sd.kgrid, grid.nodes, tail_correction=tail_correction)
    scale = max(1.0, float(np.max(np.abs(fs))))
    if np.max(resid) > imag_tol * scale:
        raise DataError(
            f"Fourier symmetry violation: imaginary residual {np.max(resid):.2e} "
            "(S(-k) != conj S(k) on this grid)"
        )
    if sd.bound_states:
        fd = np.sum(sd.norming[None, :] * np.exp(-np.outer(grid.nodes, sd.kappas)), axis=1)
    else:
        fd = np.zeros(grid.n)
    return MarchenkoInput(xgrid=grid, f_values=fs + fd, fs_values=fs, fd_values=fd)


def solve_marchenko(
    F: MarchenkoInput,
    x: float,
    y_max: float | None = None,
    rule: str = "simpson",
) -> np.ndarray:
    """Row A(x, y) of the transformation kernel on y = x, x+dx, ..., y_max.

    F must be sampled down to 2x and is looked up by index (x, y_max and the
    F origin must be commensurate with its spacing); samples beyond the F
    window are taken as zero, so the error scales with the neglected tail
    mass of F.  y_max defaults to the end of the F window.  Raises
    SolverError when the row's system is singular: a zero or non-finite
    one-node pivot, a failed dense solve, or a relative residual above
    RESIDUAL_TOL (data that violate unique solvability).
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
    kmat = Fwin[np.add.outer(np.arange(m), np.arange(m))]
    mat = np.eye(m) + kmat * w[None, :]
    try:
        a = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Marchenko row at x = {x:.4f} is singular: {exc}")
    scale = float(np.linalg.norm(rhs))
    if scale > 0:
        resid = float(np.linalg.norm(mat @ a - rhs)) / scale
        if not np.isfinite(resid) or resid > RESIDUAL_TOL:
            cond = float(np.linalg.cond(mat))
            raise SolverError(
                f"Marchenko row at x = {x:.4f}: data violate unique solvability "
                f"(residual {resid:.2e}, cond {cond:.2e})",
                condition=cond,
            )
    return a


def recover_potential(kernel: TransformationKernel) -> Potential:
    """Potential from the kernel diagonal: q = -2 dA(x,x)/dx (five-point
    differences)."""
    q = -2.0 * differentiate(kernel.diagonal, kernel.xgrid.dx, stencil=5)
    return Potential(grid=kernel.xgrid, values=q)


@dataclass(frozen=True)
class InversionResult:
    """Full output of the inversion pipeline with diagnostics."""

    potential: Potential
    kernel: TransformationKernel
    marchenko_input: MarchenkoInput
    report: object | None
    neglected_tail_mass: float


def invert_full(sd: ScatteringData, config: InversionConfig | None = None) -> InversionResult:
    """Scattering data to potential, keeping the intermediate artifacts.

    Stages: characterization gate (unless config.force), build_F on
    [0, 2*x_max], one Marchenko solve per kernel row, diagonal
    differentiation.  Raises StageError tagged with the failing stage.
    """
    cfg = config or InversionConfig()
    report = None
    if not cfg.force:
        from .characterize import full_report

        try:
            report = full_report(sd, x_hi=2 * cfg.x_max, dx=min(cfg.dx, 0.02))
        except Exception as exc:
            raise StageError("characterize", exc)
        if not report.passed:
            raise StageError(
                "characterize",
                DataError("scattering data fail characterization: " + ", ".join(report.failures())),
            )
    try:
        F = build_F(sd, 0.0, 2 * cfg.x_max, cfg.dx, tail_correction=True)
    except StageError:
        raise
    except Exception as exc:
        raise StageError("build_F", exc)

    xg = RadialGrid.make(cfg.x_max, cfg.dx)
    n = xg.n
    dx = cfg.dx
    # signed tail integral of F from node j to the window end; oscillatory
    # ringing in a Fourier-built F self-cancels here, a one-signed physical
    # tail does not, so this tracks the error of zeroing F beyond the cut
    tail = np.zeros(F.xgrid.n)
    tail[:-1] = (0.5 * dx * (F.f_values[1:] + F.f_values[:-1]))[::-1].cumsum()[::-1]
    tail_env = np.maximum.accumulate(np.abs(tail)[::-1])[::-1]
    below = np.nonzero(tail_env <= Y_TAIL_TOL)[0]
    p_cut = F.xgrid.nodes[below[0]] if below.size else F.xgrid.hi
    neglected = float(tail_env[below[0]]) if below.size else float(tail_env[-1])

    values = np.zeros((n, n))
    try:
        for i, x in enumerate(xg.nodes):
            y_hi = min(xg.x_max, max(x + 2 * dx, p_cut - x))
            steps = min(int(round((y_hi - x) / dx)), n - 1 - i)
            row = solve_marchenko(F, x, x + steps * dx)
            values[i, i : i + row.size] = row
    except SolverError as exc:
        raise StageError("solve_marchenko", exc)
    kernel = TransformationKernel(
        xgrid=xg, ygrid=xg, values=values, diagonal=values.diagonal().copy()
    )
    try:
        q = recover_potential(kernel)
    except Exception as exc:
        raise StageError("recover_potential", exc)
    return InversionResult(
        potential=q,
        kernel=kernel,
        marchenko_input=F,
        report=report,
        neglected_tail_mass=neglected,
    )


def invert(sd: ScatteringData, config: InversionConfig | None = None) -> Potential:
    """Three-step inversion: data => F => A => q."""
    return invert_full(sd, config).potential


def f_from_kernel(
    kernel: TransformationKernel, rule: str = "simpson", support_tol: float = 1e-6
) -> MarchenkoInput:
    """Recover F on [0, y_max] from the x = 0 kernel row.

    The Marchenko equation at x = 0, rewritten with p = y and t = s + y, is
    a backward Volterra equation for F with the triangular kernel A(0, t-p):

        F(p) + int_p^inf A(0, t - p) F(t) dt = -A(0, p).

    When bound states are present, e^{-kappa_j p} solves the homogeneous
    equation on the half-line (f(i kappa_j) = 0), so marching far beyond the
    kernel's support amplifies noise like e^{kappa (y_max - p)}.  The march
    is therefore restricted to the row's numerical support (|A(0,y)| above
    support_tol relative to its peak, plus a one-unit margin); beyond it F
    is taken as zero, which matches the decayed true values there.
    """
    row = kernel.row(0)
    nodes = kernel.ygrid.nodes
    dx = kernel.ygrid.dx
    f = np.zeros(nodes.size)
    peak = float(np.max(np.abs(row)))
    if peak > 0.0:
        alive = np.nonzero(np.abs(row) > support_tol * peak)[0]
        cut = min(nodes.size - 1, int(alive[-1]) + int(round(1.0 / dx)))
        f[: cut + 1] = solve_volterra_backward(row[: cut + 1], row[: cut + 1], dx, rule=rule)
    return MarchenkoInput(xgrid=UniformGrid(nodes), f_values=f, fs_values=f, fd_values=np.zeros_like(f))


def _fit_exponential(x: np.ndarray, F: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit of ln F ~ ln s - kappa x; returns (kappa, s, resid)."""
    if np.any(F <= 0):
        raise StrippingError("window values must be positive for a log-linear fit")
    lnF = np.log(F)
    A = np.vstack([np.ones_like(x), -x]).T
    coef, *_ = np.linalg.lstsq(A, lnF, rcond=None)
    lns, kappa = coef
    resid = float(np.sqrt(np.mean((A @ coef - lnF) ** 2)))
    return float(kappa), float(np.exp(lns)), resid


def _refine_exponentials(
    x: np.ndarray, F: np.ndarray, kappas: list, ss: list, iters: int = 60
) -> tuple[list, list]:
    """Joint Gauss-Newton polish of F ~ sum_j s_j e^{-kappa_j x}."""
    p = np.array(list(kappas) + list(ss), dtype=float)
    J = len(kappas)
    for _ in range(iters):
        E = np.exp(-np.outer(x, p[:J]))
        r = E @ p[J:] - F
        jac = np.hstack([-x[:, None] * E * p[J:][None, :], E])
        try:
            step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        except np.linalg.LinAlgError:
            break
        p_new = p - step
        if np.any(p_new[:J] <= 0) or np.any(p_new[J:] <= 0):
            break
        done = np.max(np.abs(step)) < 1e-13 * max(1.0, float(np.max(np.abs(p))))
        p = p_new
        if done:
            break
    return list(p[:J]), list(p[J:])


def extract_data_from_F(
    F: MarchenkoInput,
    stripping_tol: float = 1e-3,
    kgrid: MomentumGrid | None = None,
) -> ScatteringData:
    """Scattering data from F sampled on a window reaching well into x < 0.

    Bound states dominate F as x -> -inf (s_J e^{-kappa_J x}, largest kappa
    first).  Repeatedly: log-linear fit on the most negative
    STRIP_WINDOW_FRAC of the negative-x samples, strip the fitted
    exponential, polish all recovered pairs by a joint Gauss-Newton fit on
    the most negative STRIP_REFINE_FRAC of the negative-x samples (the lever
    arm from the fit window to x = 0 otherwise limits the amplitude
    accuracy).  Stop when the residual sup over x < 0 drops below
    stripping_tol or the remainder stops looking like a growing positive
    exponential (it is then the decaying negative-x part of F_s).  More than
    STRIP_MAX_STATES states, or two closer than STRIP_KAPPA_SEP, raise
    StrippingError.  Finally F_s = F - F_d and S(k) = 1 - int F_s e^{-ikx} dx.
    """
    nodes = F.xgrid.nodes
    if nodes[0] >= 0:
        raise DataError("extraction needs samples on x < 0")
    if kgrid is None:
        kgrid = MomentumGrid.make(200.0, 0.05)
    n_neg = int(np.count_nonzero(nodes < 0))
    ref_hi = int(n_neg * STRIP_REFINE_FRAC)
    if int(n_neg * STRIP_WINDOW_FRAC) < 8:
        raise DataError("negative-x window too short for stripping")
    neg = nodes < 0

    def model(kappas, ss):
        if not kappas:
            return np.zeros_like(nodes)
        return np.sum(np.array(ss)[None, :] * np.exp(-np.outer(nodes, np.array(kappas))), axis=1)

    kappas: list[float] = []
    ss: list[float] = []
    residual = F.f_values.copy()
    sup = float(np.max(np.abs(residual[neg])))
    while sup >= stripping_tol:
        if len(kappas) >= STRIP_MAX_STATES:
            raise StrippingError(f"more than {STRIP_MAX_STATES} exponentials; window too narrow")
        # walk candidate fit windows from the far end toward x = 0: after a
        # strip, the far end is dominated by the previous stage's fit noise
        # and the next state emerges only where it beats that noise
        accepted = False
        for start in (0.0, 0.1, 0.25, 0.4, 0.55, 0.7):
            lo = int(n_neg * start)
            hi = min(n_neg, lo + max(8, int((n_neg - lo) * STRIP_WINDOW_FRAC)))
            if hi - lo < 8:
                break
            seg = residual[lo:hi]
            if np.any(seg <= 0):
                continue
            try:
                kappa_c, s_c, _ = _fit_exponential(nodes[lo:hi], seg)
            except StrippingError:
                continue
            if kappa_c <= 0 or s_c <= 0:
                continue
            if kappas and kappa_c >= min(kappas) - STRIP_KAPPA_SEP:
                continue  # contaminant of an already-stripped state
            trial_k, trial_s = _refine_exponentials(
                nodes[:ref_hi], F.f_values[:ref_hi], kappas + [kappa_c], ss + [s_c]
            )
            trial_resid = F.f_values - model(trial_k, trial_s)
            trial_sup = float(np.max(np.abs(trial_resid[neg])))
            if trial_sup < 0.5 * sup:
                kappas, ss = trial_k, trial_s
                residual = trial_resid
                sup = trial_sup
                accepted = True
                break
        if not accepted:
            break  # remainder is not a growing exponential (the F_s part)
    if len(kappas) > 1 and np.min(np.abs(np.diff(sorted(kappas)))) < STRIP_KAPPA_SEP:
        raise StrippingError("recovered kappas closer than the resolvable separation")
    fd = model(kappas, ss)
    if kappas:
        # legitimate leftovers (the x < 0 part of F_s) decay toward x_lo;
        # a residual that instead grows leftward and is far above rounding
        # relative to the stripped model marks unresolved structure (states
        # closer than STRIP_KAPPA_SEP merge into one effective exponential)
        w = max(8, n_neg // 10)
        far = float(np.abs(residual[0]))
        near_zero = float(np.max(np.abs(residual[n_neg - w : n_neg])))
        if far >= stripping_tol and far > 3 * near_zero and far > 1e-9 * abs(fd[0]):
            raise StrippingError(
                f"unexplained growth toward x_lo (residual {far:.3e}); bound states "
                "closer than the resolvable separation or window too narrow"
            )
    fs = F.f_values - fd
    svals = 1.0 - fourier_space_to_kernel(fs, F.xgrid, kgrid.nodes)
    if kgrid.zero_index is not None:
        s0 = float(svals[kgrid.zero_index].real)
    else:
        s0 = float(1.0 - integrate(fs, F.xgrid))
    sign = 1 if s0 >= 0 else -1
    bound = tuple(BoundState(k, s) for k, s in sorted(zip(kappas, ss)))
    return ScatteringData(kgrid=kgrid, s_values=svals, bound_states=bound, s_at_zero_sign=sign)


def data_from_kernel(
    kernel: TransformationKernel,
    kgrid: MomentumGrid | None = None,
    kappa_max: float | None = None,
) -> ScatteringData:
    """Scattering data directly from the transformation kernel.

    f(k) = 1 + int_0^inf A(0,y) e^{iky} dy (Simpson weights), for k >= 0
    by one chirp-z transform and mirrored by f(-k) = conj f(k); bound states
    are the sign changes of f(i kappa) on the imaginary axis, all refined
    at once by batched bracketed root finding; s_j = ||f_j||^{-2} with
    f_j(x) = e^{-kappa_j x} + int_x^inf A(x,y) e^{-kappa_j y} dy, one
    kernel product for all states; and S = conj(f)/f with the S(0) sign set
    by the resonance test |f(0)| < RESONANCE_TOL.

    The scan has the forward scan's nodes (forward._kappa_scan) with
    q = -2 dA(x,x)/dx read off the kernel diagonal, up to kappa_max, by
    default 1.5 sqrt(max|q|) + 0.5.  f(i kappa) -> 1 as kappa -> inf, so a
    negative value at the scan's upper edge means zeros beyond it and
    raises SolverError.
    """
    if kgrid is None:
        kgrid = MomentumGrid.make(200.0, 0.05)
    y = kernel.ygrid.nodes
    dx = kernel.ygrid.dx
    wrow = quadrature_weights(y.size, dx, "simpson") * kernel.row(0)
    pos = np.nonzero(kgrid.nodes >= 0)[0]
    f0 = np.empty(kgrid.n, dtype=complex)
    f0[pos] = 1.0 + _oscillatory_sum(wrow, y, kgrid.nodes[pos], 1.0)
    neg = np.nonzero(kgrid.nodes < 0)[0]
    f0[neg] = np.conj(f0[kgrid.n - 1 - neg])

    def f_imag(kaps: np.ndarray) -> np.ndarray:
        e = np.multiply.outer(-np.asarray(kaps, dtype=float), y)
        return 1.0 + np.exp(e, out=e) @ wrow

    q_max = 2.0 * float(np.max(np.abs(differentiate(kernel.diagonal, kernel.xgrid.dx))))
    grid = _kappa_scan(q_max, kappa_max)
    gv = f_imag(np.concatenate([[0.0], grid]))
    resonance = abs(gv[0]) < RESONANCE_TOL
    gv = gv[1:]
    if gv[-1] < 0:
        raise SolverError(
            f"f(i kappa) is still negative at the scan edge kappa = {grid[-1]:.3f}; "
            "bound states lie beyond kappa_max"
        )
    lo = np.nonzero(gv[:-1] * gv[1:] < 0)[0]
    kappas = find_roots(f_imag, grid[lo], grid[lo + 1], 1e-12)
    # f_j(x) = e^{-kappa_j x} + int_x^inf A(x,y) e^{-kappa_j y} dy for all
    # states at once: trapezoid over [x_i, x_max] per row; the j < i entries
    # of A are zero, so the row sum starts at the diagonal; halve the two
    # end nodes
    A = kernel.values
    decay = np.exp(-np.multiply.outer(y, kappas))
    fj = (
        np.exp(-np.multiply.outer(kernel.xgrid.nodes, kappas))
        + dx * (A @ decay)
        - 0.5 * dx * (np.diagonal(A)[:, None] * decay + A[:, -1:] * decay[-1])
    )
    norms = integrate(fj.T**2, kernel.xgrid, "simpson")
    bound = [BoundState(float(kap), float(1.0 / norm)) for kap, norm in zip(kappas, norms)]
    svals = np.conj(f0) / f0
    sign = -1 if resonance else 1
    if kgrid.zero_index is not None:
        svals[kgrid.zero_index] = complex(sign)
    return ScatteringData(kgrid=kgrid, s_values=svals, bound_states=tuple(bound), s_at_zero_sign=sign)

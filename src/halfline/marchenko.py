"""Inverse scattering pipeline and its reverse arrows.

Forward composition (the three inversion steps):

    scattering data  =>  F = F_s + F_d  =>  A(x,y)  =>  q = -2 dA(x,x)/dx

with F_s(x) = (1/2pi) int (1 - S(k)) e^{ikx} dk and
F_d(x) = sum_j s_j e^{-kappa_j x}, and A(x, .) the solution of the Marchenko
equation A(x,y) + F(x+y) + int_x^inf A(x,s) F(s+y) ds = 0 for y >= x.

F lives on the half-line: build_F samples it on a radial grid [0, x_hi],
and no step builds or reads it at x < 0.

Reverse arrows, all on the half-line x >= 0: f_from_kernel recovers F from
the x = 0 kernel row by a backward Volterra march of the same equation;
data_from_kernel reconstructs the full scattering data from A alone, its
bound states by the forward route's zero search; and data_from_F composes
the Marchenko rows with data_from_kernel, so F on [0, X] determines the
data through the kernel on [0, X/2].

Both row operators, the Marchenko rows (A from F) and the Volterra march
(F from A), use the Simpson rule only.  solve_kernel solves every kernel
row, each a dense Nystrom collocation, at once: every row's matrix is a
leading block of one of the two parity templates (or is a row of one or
two nodes), so one Cholesky factorization L per template serves them all:
each row is a scaled row of L^{-1}, its y = x entry taken from the Schur
complement sigma_c, O(n^3) in total.  invert_full and data_from_F reach
it through one path, which first zeroes F beyond the point where the
tail envelope of F falls below Y_TAIL_TOL (_tail_cut); invert_full reports
the envelope at that point as neglected_tail_mass.  When the envelope
stays above Y_TAIL_TOL up to the window end, the cut is the last node and
the mass reads 0.0, although F is truncated there: the common case for an
F built from S at dx = 0.05, whose ringing keeps the envelope up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SolverError, StageError
from .forward import _data_from_jost, _imag_axis_zeros
from .model import (
    BoundState,
    MarchenkoInput,
    MomentumGrid,
    Potential,
    RadialGrid,
    ScatteringData,
    TransformationKernel,
    ValidationReport,
)
from .numkit import (
    _oscillatory_sum,
    differentiate,
    fourier_kernel_to_space,
    integrate,
    quadrature_weights,
    solve_volterra_backward,
)

__all__ = [
    "InversionConfig",
    "InversionResult",
    "build_F",
    "solve_kernel",
    "recover_potential",
    "invert",
    "invert_full",
    "f_from_kernel",
    "data_from_kernel",
    "data_from_F",
]

IMAG_TOL = 1e-8  # imaginary residual of F_s, relative to max(1, max |F_s|), above which build_F refuses S
RESIDUAL_TOL = 1e-10  # relative residual above which a kernel row is refused
Y_TAIL_TOL = 1e-8  # |F| tail mass below which F is zeroed before the row solves
SUPPORT_TOL = 1e-6  # |A(0,y)| relative to its peak below which f_from_kernel stops
RESIDUAL_BLOCK = 128  # kernel rows per block of the residual check: bounds its template-length buffers
TRIL_BLOCK = 64  # rows of the diagonal blocks the triangular inverse hands to np.linalg.inv
SCAN_BLOCK = 128  # kappas per block of data_from_kernel's f(i kappa) sums: bounds their e^{-kappa y} buffer


@dataclass(frozen=True)
class InversionConfig:
    """Spatial grid of the inversion pipeline, and whether to skip its
    characterization gate.

    The kernel is computed on [0, x_max] with spacing dx; the momentum grid
    is the scattering data's own.  F is built on [0, 2*x_max] since the
    Marchenko kernel samples F(s + y) with s, y <= x_max; build_F's
    analytic 1/k tail suppresses the Gibbs ringing that would otherwise
    dominate the recovered q after differentiation.  Kernel rows use the
    Simpson rule, and q = -2 dA/dx the five-point derivative, since
    differentiation amplifies noise.
    """

    x_max: float = 40.0
    dx: float = 0.05
    force: bool = False


def build_F(sd: ScatteringData, x_hi: float, dx: float) -> MarchenkoInput:
    """Marchenko input on the radial grid [0, x_hi]: F_d from the bound
    states, F_s by the oscillatory Fourier quadrature of 1 - S (one chirp-z
    transform, with the analytic tail of 1 - S beyond the momentum grid),
    so the x = 0 sample is the right limit F(0+) the Marchenko rows need.
    An imaginary residual above IMAG_TOL times max(1, max |F_s|) means S is
    not conjugate symmetric, and raises DataError."""
    grid = RadialGrid.make(x_hi, dx)
    h = 1.0 - sd.s_values
    fs, resid = fourier_kernel_to_space(h, sd.kgrid, grid)
    scale = max(1.0, float(np.max(np.abs(fs))))
    if np.max(resid) > IMAG_TOL * scale:
        raise DataError(
            f"Fourier symmetry violation: imaginary residual {np.max(resid):.2e} "
            "(S(-k) != conj S(k) on this grid)"
        )
    fd = np.sum(sd.norming[None, :] * np.exp(-np.outer(grid.nodes, sd.kappas)), axis=1)
    return MarchenkoInput(xgrid=grid, fs_values=fs, fd_values=fd)


def solve_kernel(F: MarchenkoInput, x_max: float) -> np.ndarray:
    """Every kernel row on the nodes x_i = i dx of [0, x_max]: the upper
    triangular array values[i, j] = A(x_i, x_j).

    Row x_i is the Nystrom collocation of the Marchenko equation on its own
    nodes y = x_i, ..., x_max, with the Simpson weights quadrature_weights
    gives them, except that a row of one node takes the weight dx.  F must
    be sampled at the kernel's spacing; samples beyond the F window are
    taken as zero, so the error scales with the neglected tail mass of F.

    Row x_i's system I + K W, with K = F(x_p + x_q) over p, q >= i, is
    solved as the symmetric (W^{-1} + K) b = -F(x_i + y), a = b / w.  In
    reversed node order every row's K is a leading block of one Hankel
    matrix G, and its weights are the leading weights of a template: the
    longest row of its parity or, for the rows of one and two nodes, the
    row itself, with the weights (dx) and (dx/2, dx/2).  A row's weight at
    y = x may be smaller than its template's (1/3 against 2/3, or 3/8
    against 3/8 + 1/3, times dx), so a row's matrix is its template's
    leading block plus delta >= 0 on the last diagonal entry, and its
    Cholesky factor is the template factor's leading block with the last
    pivot raised to sqrt(p^2 + delta).  Its solution is therefore a scaled
    row of the template factor's inverse, with the y = x entry taken from
    the Schur complement sigma_c (_template_rows): one factorization and
    one blocked triangular inverse per template solve every row, O(n^3)
    in total.

    For admissible data I + F_x is positive definite, so a failed
    factorization (a pivot that is not positive, as in a one-node row with
    1 + dx F(2 x_max) <= 0) certifies that the data violate unique
    solvability; it raises SolverError, as does a row whose relative
    residual exceeds RESIDUAL_TOL.
    """
    dx = F.xgrid.dx
    n = int(round(x_max / dx)) + 1
    # G[a, b] = v[a + b] = F((2(n - 1) - a - b) dx), a read-only view
    f = F.f_values[: 2 * n - 1]
    v = np.zeros(2 * n - 1)
    v[v.size - f.size :] = f[::-1]
    G = np.lib.stride_tricks.sliding_window_view(v, n)
    values = np.zeros((n, n))
    # reversed order: column c holds the row of m = c + 1 nodes, x = x_{n-1-c}
    X = values[::-1, ::-1].T
    for c in range(min(n, 2)):
        _template_rows(G, np.full(c + 1, dx / (c + 1)), np.array([c]), dx, X[: c + 1])
    for M in (n, n - 1):
        if M >= 3:
            _template_rows(G, quadrature_weights(M, dx, "simpson")[::-1], np.arange(M - 1, 1, -2), dx, X[:M])
    return values


def _template_rows(G: np.ndarray, t: np.ndarray, cols: np.ndarray, dx: float, out: np.ndarray) -> None:
    """Write the rows of solve_kernel ending at the given columns of the
    reversed order, all served by the template with reversed weights t, to
    those columns of out (the template's M rows): column c holds the
    reversed row, zero below its last node.

    Row c, of m = c + 1 nodes, solves (T_m + delta e_c e_c^T) b = -G[:m, c],
    whose right-hand side is -(its matrix) e_c + e_c / w_near, so b is
    -e_c + Z[c, :m]^T p / (1 + w_near sigma_c): a scaled row of Z = L^{-1},
    with p = L_cc and sigma_c = G_cc - ||L[c, :c]||^2 the Schur complement
    (p^2 = sigma_c + 1/t_c).  Its y = x entry is taken from sigma_c,
    b_c = -w_near sigma_c / (1 + w_near sigma_c), since the form
    -1 + 1/((p^2 + delta) w_near) cancels on the far rows, where F is tiny.

    L is inverted in place, so T and Z are the only template-size arrays.
    The rows are checked against T and written RESIDUAL_BLOCK at a time,
    each block on the leading block of T that its longest row spans.
    """
    M = t.size
    # the y = x weight of a row: the template's, except that a row of four
    # nodes is the 3/8 rule alone, whose end weight is the template's far one
    w_near = np.where(cols == 3, t[0], t[-1])
    delta = 1.0 / w_near - 1.0 / t[cols]
    T = np.array(G[:M, :M])
    T.flat[:: M + 1] += 1.0 / t
    try:
        L = np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        raise SolverError(
            f"Marchenko rows at x >= {(G.shape[0] - M) * dx:.4f}: data violate unique "
            "solvability (I + F_x is not positive definite: a pivot is not positive)"
        ) from None
    # the off-diagonal squares summed directly: p^2 - 1/t_c would cancel
    sigma = G[cols, cols] - np.array([L[c, :c] @ L[c, :c] for c in cols])
    scale = L.diagonal()[cols] / (1.0 + w_near * sigma)
    b_near = -w_near * sigma / (1.0 + w_near * sigma)
    Z = _tril_inverse(L)  # in L's place
    resid = np.empty(cols.size)
    for lo in range(0, cols.size, RESIDUAL_BLOCK):
        s = slice(lo, lo + RESIDUAL_BLOCK)
        c = cols[s]
        m = c.max() + 1  # the block's longest row: every row is zero below it
        j = np.arange(c.size)
        below = np.arange(m)[:, None] > c
        b = Z[c, :m].T * scale[s]  # zero below row c's last node: Z is lower triangular
        b[c, j] = b_near[s]
        rhs = -G[:m, c]
        rhs[below] = 0.0
        res = T[:m, :m] @ b - rhs
        res[c, j] += delta[s] * b_near[s]
        res[below] = 0.0
        norm = np.linalg.norm(rhs, axis=0)
        resid[s] = np.divide(np.linalg.norm(res, axis=0), norm, out=np.zeros(c.size), where=norm > 0)
        b /= t[:m, None]
        b[c, j] = b_near[s] / w_near[s]
        out[:m, c] = b
    bad = np.nonzero(~(resid <= RESIDUAL_TOL))[0]
    if bad.size:
        k = bad[np.argmax(cols[bad])]  # the failing row nearest x = 0
        raise SolverError(
            f"Marchenko row at x = {(G.shape[0] - 1 - cols[k]) * dx:.4f}: data violate unique "
            f"solvability (residual {resid[k]:.2e})"
        )


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Overwrite the lower-triangular L with its inverse and return it, by
    2 x 2 blocks [[Z11, 0], [-Z22 L21 Z11, Z22]] down to diagonal blocks of
    at most TRIL_BLOCK rows, which np.linalg.inv inverts (numpy has no
    trtri)."""
    n = L.shape[0]
    if n <= TRIL_BLOCK:
        L[...] = np.tril(np.linalg.inv(L))
        return L
    h = n // 2
    _tril_inverse(L[:h, :h])
    _tril_inverse(L[h:, h:])
    L[h:, :h] = -L[h:, h:] @ (L[h:, :h] @ L[:h, :h])
    return L


def recover_potential(kernel: TransformationKernel) -> Potential:
    """Potential from the kernel diagonal: q = -2 dA(x,x)/dx (five-point
    differences)."""
    q = -2.0 * differentiate(kernel.diagonal, kernel.grid.dx, stencil=5)
    return Potential(grid=kernel.grid, values=q)


@dataclass(frozen=True)
class InversionResult:
    """Full output of the inversion pipeline with diagnostics."""

    potential: Potential
    kernel: TransformationKernel
    report: ValidationReport | None
    neglected_tail_mass: float


def _tail_cut(F: MarchenkoInput) -> tuple[int, float]:
    """Index of the first F node from which the tail envelope stays at or
    below Y_TAIL_TOL (the last node if none), and the envelope there.

    The envelope is the running maximum of the signed tail integral of F
    from node j to the window end: oscillatory ringing in a Fourier-built F
    self-cancels there, a one-signed physical tail does not, so it tracks
    the error of zeroing F beyond the cut.
    """
    tail = np.zeros(F.xgrid.n)
    tail[:-1] = (0.5 * F.xgrid.dx * (F.f_values[1:] + F.f_values[:-1]))[::-1].cumsum()[::-1]
    tail_env = np.maximum.accumulate(np.abs(tail)[::-1])[::-1]
    below = np.nonzero(tail_env <= Y_TAIL_TOL)[0]
    cut = int(below[0]) if below.size else F.xgrid.n - 1
    return cut, float(tail_env[cut])


def _kernel_from_F(F: MarchenkoInput, xg: RadialGrid) -> tuple[TransformationKernel, float]:
    """The kernel on xg from F sampled at xg's spacing: F zeroed beyond
    the cut of _tail_cut, then every row by solve_kernel.  Also returns the
    tail mass neglected at the cut."""
    cut, neglected = _tail_cut(F)
    f = F.f_values.copy()
    f[cut + 1 :] = 0.0
    F = MarchenkoInput(xgrid=F.xgrid, fs_values=f, fd_values=np.zeros_like(f))
    block = solve_kernel(F, xg.x_max)
    block.flags.writeable = False  # fresh: the kernel keeps it without a copy
    return TransformationKernel(grid=xg, block=block), neglected


def invert_full(sd: ScatteringData, config: InversionConfig | None = None) -> InversionResult:
    """Scattering data to potential, keeping the intermediate artifacts.

    Stages: characterization gate (unless config.force: full_report(sd),
    validate's report, whatever the grid), build_F on [0, 2*x_max], every
    kernel row by solve_kernel from F zeroed beyond the cut of _tail_cut,
    diagonal differentiation.  Raises
    StageError tagged with the failing stage; the rows' failures are tagged
    solve_marchenko.  A config whose x_max and dx make no grid raises
    GridError before any stage runs.
    """
    cfg = config or InversionConfig()
    xg = RadialGrid.make(cfg.x_max, cfg.dx)
    report = None
    if not cfg.force:
        from .characterize import full_report

        try:
            report = full_report(sd)
        except Exception as exc:
            raise StageError("characterize", exc)
        if not report.passed:
            raise StageError(
                "characterize",
                DataError("scattering data fail characterization: " + ", ".join(report.failures())),
            )
    try:
        F = build_F(sd, 2 * cfg.x_max, cfg.dx)
    except Exception as exc:
        raise StageError("build_F", exc)

    try:
        kernel, neglected = _kernel_from_F(F, xg)
    except SolverError as exc:
        raise StageError("solve_marchenko", exc)
    try:
        q = recover_potential(kernel)
    except Exception as exc:
        raise StageError("recover_potential", exc)
    return InversionResult(potential=q, kernel=kernel, report=report, neglected_tail_mass=neglected)


def invert(sd: ScatteringData, config: InversionConfig | None = None) -> Potential:
    """Three-step inversion: data => F => A => q."""
    return invert_full(sd, config).potential


def f_from_kernel(kernel: TransformationKernel) -> MarchenkoInput:
    """Recover F on [0, y_max] from the x = 0 kernel row.

    The Marchenko equation at x = 0, rewritten with p = y and t = s + y, is
    a backward Volterra equation for F with the triangular kernel A(0, t-p):

        F(p) + int_p^inf A(0, t - p) F(t) dt = -A(0, p),

    marched with the Simpson weights of solve_volterra_backward.  When
    bound states are present, e^{-kappa_j p} solves the homogeneous
    equation on the half-line (f(i kappa_j) = 0), so marching far beyond the
    kernel's support amplifies noise like e^{kappa (y_max - p)}.  The march
    is therefore restricted to the row's numerical support (|A(0,y)| above
    SUPPORT_TOL relative to its peak, plus a one-unit margin); beyond it F
    is taken as zero, which matches the decayed true values there.

    Where the row is exactly 0 past its last nonzero sample (q of compact
    support), the march stops four nodes beyond it, since F is exactly 0
    there: the 3/8 tail of each row's Simpson rule falls on zero samples,
    so only the summation order of each row changes.
    """
    row = kernel.row(0)
    nodes = kernel.grid.nodes
    dx = kernel.grid.dx
    f = np.zeros(nodes.size)
    peak = float(np.max(np.abs(row)))
    if peak > 0.0:
        alive = np.nonzero(np.abs(row) > SUPPORT_TOL * peak)[0]
        last = int(np.flatnonzero(row)[-1])
        cut = min(nodes.size - 1, int(alive[-1]) + int(round(1.0 / dx)), last + 4)
        f[: cut + 1] = solve_volterra_backward(row[: cut + 1], row[: cut + 1], dx)
    return MarchenkoInput(xgrid=kernel.grid, fs_values=f, fd_values=np.zeros_like(f))


def data_from_F(F: MarchenkoInput, kgrid: MomentumGrid | None = None) -> ScatteringData:
    """Scattering data from F on the half-line [0, X].

    The x = 0 sample is taken as the right limit F(0+), build_F's value
    there.  The kernel on [0, X/2] at F's own spacing comes from the
    Marchenko rows (the path invert_full takes), and the data from
    data_from_kernel on kgrid.  Data that violate unique solvability raise
    SolverError.
    """
    xg = RadialGrid(F.xgrid.dx * np.arange((F.xgrid.n - 1) // 2 + 1))
    kernel, _ = _kernel_from_F(F, xg)
    return data_from_kernel(kernel, kgrid)


def data_from_kernel(kernel: TransformationKernel, kgrid: MomentumGrid | None = None) -> ScatteringData:
    """Scattering data directly from the transformation kernel.

    f(k) = 1 + int_0^inf A(0,y) e^{iky} dy (Simpson weights), for k >= 0
    by one chirp-z transform and mirrored by f(-k) = conj f(k); bound states
    are the zeros of f(i kappa) on the imaginary axis, found and refined to
    |f| <= 1e-12 by forward._imag_axis_zeros, the forward route's zero
    search, with max|q| read off the kernel diagonal (q = -2 dA(x,x)/dx),
    which refuses a grid that cannot resolve that depth (SolverError);
    s_j = ||f_j||^{-2} with f_j(x) = e^{-kappa_j x} +
    int_x^inf A(x,y) e^{-kappa_j y} dy, each row by its own Simpson rule
    (_simpson_rows); and S = conj(f)/f with the S(0) sign set by the
    search's resonance flag (forward._data_from_jost, which also refuses
    an f that vanishes away from k = 0).

    The sums over y run on the kernel's nb x nb block only, with the
    weights cut to nb nodes (A is 0 beyond them); past the block
    f_j = e^{-kappa_j x}.  f(i kappa) is summed SCAN_BLOCK momenta at a
    time through one reused buffer of e^{-kappa y}: the scan's full table
    never exists, and each matrix-vector product stays below the size at
    which OpenBLAS splits it over threads (a 1252 x 404 product took 8 ms
    that way on a busy 2-core host, 0.18 ms on one thread).
    """
    if kgrid is None:
        kgrid = MomentumGrid.make(200.0, 0.05)
    y = kernel.grid.nodes
    dx = kernel.grid.dx
    A = kernel.block
    nb = A.shape[0]
    yb = y[:nb]
    wrow = quadrature_weights(y.size, dx, "simpson")[:nb] * A[0]
    f0 = 1.0 + _oscillatory_sum(wrow, yb, dx, kgrid.nodes[kgrid.upper], kgrid.dx)

    buf = np.empty((SCAN_BLOCK, nb))

    def f_imag(kaps: np.ndarray) -> np.ndarray:
        kaps = np.asarray(kaps, dtype=float)
        out = np.empty(kaps.size)
        for lo in range(0, kaps.size, SCAN_BLOCK):
            e = buf[: min(SCAN_BLOCK, kaps.size - lo)]
            np.multiply.outer(-kaps[lo : lo + SCAN_BLOCK], yb, out=e)
            np.matmul(np.exp(e, out=e), wrow, out=out[lo : lo + SCAN_BLOCK])
        return 1.0 + out

    q_max = 2.0 * float(np.max(np.abs(differentiate(kernel.diagonal, dx))))
    _, _, kappas, resonance = _imag_axis_zeros(f_imag, q_max, dx, 1e-12)
    # f_j(x) = e^{-kappa_j x} + int_x^inf A(x,y) e^{-kappa_j y} dy for all
    # states at once; rows past the block have A = 0, so f_j = e^{-kappa_j x}
    decay = np.exp(-np.multiply.outer(y, kappas))
    fj = decay.copy()
    fj[:nb] += _simpson_rows(A, decay[:nb], y.size, dx)
    norms = integrate(fj.T**2, kernel.grid, "simpson")
    bound = tuple(BoundState(float(kap), float(1.0 / norm)) for kap, norm in zip(kappas, norms))
    return _data_from_jost(kgrid, kgrid.mirror(f0, np.conj), bound, resonance)


# Simpson weights / dx of the rows of four, three, two and one nodes
_SHORT_ROWS = np.array(
    [[3 / 8, 9 / 8, 9 / 8, 3 / 8], [0.0, 1 / 3, 4 / 3, 1 / 3], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 0.0]]
)


def _simpson_rows(A: np.ndarray, V: np.ndarray, n: int, dx: float) -> np.ndarray:
    """sum_j w_ij A[i, j] V[j, :] for every row i of the upper-triangular
    nb x nb block A of an n-node kernel, w_i the Simpson weights
    (quadrature_weights) of row i's own n - i nodes x_i, ..., x_{n-1}.

    As in solve_kernel and solve_volterra_backward, the rows whose lengths
    share a parity share their weights at y > x with the longest such row,
    row 0 or row 1: one product per parity.  The y = x weight, dx/3 for
    five nodes or more, is then set per row, and the rows of at most four
    nodes take their own weights from _SHORT_ROWS.
    """
    nb = A.shape[0]
    out = np.empty((nb, V.shape[1]))
    for p in (0, 1):
        if n - p >= 2:
            t = quadrature_weights(n - p, dx, "simpson")
            w = np.zeros(nb)
            w[p:] = t[: nb - p]  # row i = p mod 2 weighs node j >= i by t[j - p]
            i = np.arange(p, nb, 2)
            out[p::2] = A[p::2] @ (w[:, None] * V) + ((t[0] - w[i]) * A[i, i])[:, None] * V[i]
    s = max(n - 4, 0)
    if nb > s:
        W = dx * _SHORT_ROWS[4 - n + s : nb + 4 - n, 4 - n + s : nb + 4 - n]
        out[s:] = (A[s:, s:] * W) @ V[s:]
    return out

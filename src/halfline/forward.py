"""Direct scattering problem on the half-line.

From a sampled real potential q with finite first moment, compute the Jost
solution f(x,k) of

    f(x,k) = e^{ikx} + int_x^inf [sin(k(y-x))/k] q(y) f(y,k) dy,

its boundary values f(k) = f(0,k) and derivative f'(0,k), bound states
(zeros i*kappa of f in the upper half-plane), norming constants via two
independent formulas, the S-matrix S(k) = f(-k)/f(k), the phase shift, and
the transformation kernel A(x,y).

Numerics: the Volterra equation is solved in the reduced variable
n(x,k) = f(x,k) e^{-ikx}, whose kernel (e^{2ik(y-x)} - 1)/(2ik) has modulus
bounded for Im k >= 0, so backward marching from x_max (where n = 1) is
unconditionally stable.  The kernel vanishes on the diagonal y = x, which
makes the trapezoid march explicit, and its k -> 0 limit y - x is its value
at k = 0, so one recurrence (_march) serves real and imaginary momenta and
k = 0 alike.  It runs in the exponent rate z = 2ik, which is real on the
imaginary axis: there (the bound-state search, the norming constants) the
march is real arithmetic.  Each node's step is an affine map of the march's
state, so the march is a product of maps with two evaluation orders, picked
by its width: wide marches (the bound-state scan, jost_boundary) go node by
node, narrow ones (the bound-state search's root and Newton steps, the
norming constants' fields) as a tree of pairwise matrix products in
O(log n) numpy steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characterize import check_discrete, check_symmetry_unitarity
from .errors import DataError, SolverError
from .model import (
    BoundState,
    MomentumGrid,
    Potential,
    ScatteringData,
    TransformationKernel,
)
from .numkit import find_roots, integrate, unwrap_phase

__all__ = [
    "ForwardResult",
    "BoundStateScan",
    "jost_boundary",
    "jost_field",
    "find_bound_states",
    "norming_constants",
    "s_matrix",
    "phase_shift",
    "kernel_from_potential",
    "forward",
]

RESONANCE_TOL = 1e-3  # |f(0)| below this flags a zero-energy resonance
KAPPA_MIN = 1e-3  # lower end of the bound-state scan on the imaginary axis
SCAN_STEP = 0.01  # spacing of the scan; closer pairs of zeros may be missed
ROOT_TOL = 1e-10  # |f(0, i kappa)| at which a refined bound state is accepted
NARROW_MARCH = 16  # marches of at most this many momenta run in tree order (see _march)
TREE_CHUNK = 1024  # nodes per tree-order chunk, a power of two: bounds the stacked maps
_TWIN_STEPS = 8  # Newton steps after which a 2*dx twin is given up (see _coarse_roots)


def _kappa_scan(q_max: float) -> np.ndarray:
    """Bound-state scan nodes KAPPA_MIN, KAPPA_MIN + SCAN_STEP, ... up to
    1.5 sqrt(q_max) + 0.5 for a potential whose depth is at most q_max
    (every kappa_j^2 lies below it)."""
    return np.arange(KAPPA_MIN, float(np.sqrt(q_max)) * 1.5 + 0.5 + SCAN_STEP, SCAN_STEP)


def _check_resolution(q_max: float, dx: float) -> None:
    """SolverError unless a grid of spacing dx resolves a potential of depth
    q_max: dx sqrt(q_max) < pi, the sampling limit of the local wavenumber.
    Past it the discrete problem is not the continuum's, and the scan's
    length (150 sqrt(q_max) nodes) is unbounded."""
    r = dx * float(np.sqrt(q_max))
    if not r < np.pi:
        raise SolverError(f"the grid does not resolve the potential: dx sqrt(max|q|) = {r:.3g} >= pi")


# ---------------------------------------------------------------------------
# core marcher


def _support_end(q_vals: np.ndarray) -> int:
    """Number of leading nodes a march needs: one past the last nonzero
    sample of q (its half-weight term is read from the node after it),
    capped at the array length; 1 for a q that is zero everywhere."""
    nonzero = np.flatnonzero(q_vals)
    return min(int(nonzero[-1]) + 2, q_vals.size) if nonzero.size else 1


def _march(q_vals: np.ndarray, dx: float, ks: np.ndarray, keep_field: bool = False):
    """Backward-march n(x,k) = f(x,k) e^{-ikx} for a vector of momenta.

    Returns (f(0,k), f'(0,k), field); field (if kept) holds n at every node,
    shape (n_x, n_k).  The trapezoid rule on the reduced Volterra equation
    is one recurrence for every momentum, k = 0 included.  In the exponent
    rate z = 2ik, with u = n - 1 and V_i = v_{i+1} + (dx/2) q_{i+1} n_{i+1},
    each node is

        u_i     = e2 u_{i+1} + c V_i
        V_{i-1} = V_i + dx q_i (u_i + 1)

    with e2 = e^{z dx}, c = (e2 - 1)/z (c = dx at z = 0, its limit; expm1
    keeps c accurate for small |z| and finite for large -z) and
    v_i = int_{x_i}^inf q n dy.  Node 0 adds only its half weight, so the
    last V is v_0, and f'(0,k) = (z/2)(2 - f(0,k)) - v_0.

    The recurrence has two evaluation orders, and the march's width alone
    picks one.  A march of more than NARROW_MARCH momenta (the bound-state
    scan, jost_boundary) runs node by node, six in-place passes over
    preallocated rows per node.  A narrower one (the steps of the root
    finder and of _coarse_roots, the norming constants' fields) composes the
    nodes' affine maps in a tree instead (_march_tree): O(log n) numpy steps
    per chunk of TREE_CHUNK nodes in place of 6 per node, the same
    O(n * width) work, agreeing with the loop to rounding.

    The arithmetic follows z: on the imaginary axis k = i kappa, z = -2 kappa
    is real and the march runs in float64 (and returns float arrays), else
    in complex128.  Momenta must be a finite one-dimensional array with
    Im k >= 0 (DataError).

    The march starts at node _support_end(q_vals) - 1, one node past the
    last nonzero sample: beyond it the march would keep n = 1 and v = 0
    exactly, so the result is the same as marching from x_max, and field
    holds n = 1 on those rows.
    """
    ks = np.asarray(ks, dtype=complex)
    if ks.ndim > 1:
        raise DataError(f"momenta must be a one-dimensional array, got shape {ks.shape}")
    if not np.all(np.isfinite(ks)):
        raise DataError("momenta must be finite")
    z = 2j * ks
    if np.any(z.real > 2e-12):  # Im k < -1e-12
        raise DataError("momenta must satisfy Im k >= 0")
    if not np.any(z.imag):
        z = z.real  # k = i kappa: real arithmetic
    ne = _support_end(q_vals)
    em1 = np.expm1(z * dx)  # e2 - 1, |e2| <= 1 for Im k >= 0
    c = np.divide(em1, z, out=np.full_like(z, dx), where=z != 0)
    e2 = 1.0 + em1
    w = dx * q_vals[: ne - 1]  # trapezoid weights of q n, half at node 0
    if w.size:
        w[0] *= 0.5
    # V of the first step, from the start node's half weight (n = 1 there);
    # a one-node march has no step, and v_0 = 0
    V0 = 0.5 * dx * q_vals[ne - 1] if ne > 1 else 0.0
    field = np.ones((q_vals.size, z.size), dtype=z.dtype) if keep_field else None
    if z.size <= NARROW_MARCH:
        u, V = _march_tree(e2, c, w, V0, field)
    else:
        u, V = _march_loop(e2, c, w.tolist(), V0, field)
    n0 = u + 1.0
    return n0, 0.5 * z * (2.0 - n0) - V, field


def _march_loop(e2, c, w, V0, field):
    """_march node by node: (u_0, v_0), and n on field's rows 0 .. len(w) - 1."""
    u = np.zeros_like(e2)
    V = np.full_like(e2, V0)
    t = np.empty_like(e2)
    n = np.empty_like(e2)
    for i in range(len(w) - 1, -1, -1):
        if field is not None:
            n = field[i]
        np.multiply(u, e2, out=u)
        np.multiply(V, c, out=t)
        np.add(u, t, out=u)
        np.add(u, 1.0, out=n)
        np.multiply(n, w[i], out=t)
        np.add(V, t, out=V)
    return u, V


def _march_tree(e2, c, w, V0, field):
    """_march as a product of affine maps: (u_0, v_0), and n on field's rows
    0 .. w.size - 1.

    Node i maps the state s = (u, V, 1) to M_i s, with the 3 x 3 matrix

        M_i = [[e2, c, 0], [w_i e2, 1 + w_i c, w_i], [0, 0, 1]],

    so the march is s_0 = M_0 M_1 ... M_{m-1} s_m, s_m = (0, V0, 1), a
    product that may be formed in any grouping (Blelloch, "Prefix sums and
    their applications", CMU-CS-90-190, 1990).  The nodes go in chunks of
    TREE_CHUNK from node 0 up, each padded with identities to a power of two
    and marched from the far end, the state carried from chunk to chunk, so
    the stacked maps never outgrow one chunk.  Within a chunk the up-sweep
    multiplies neighbouring maps pairwise, level by level, one np.matmul
    each.  Without a field, the state then walks the leftmost spine down:
    the right half of each level's first block, then M_0.  With a field, the
    down-sweep pushes every block's entering state through its right
    half, level by level, and gives every node's state; its leftmost spine
    is the same chain of products, so field[0] equals the no-field f(0) bit
    for bit.  Chunks and levels are anchored at node 0, and a map with
    w_i = 0 leaves s = (0, 0, 1) exactly, so marching past q's support (see
    _support_end) changes no bit here either.
    """
    s = np.zeros((e2.size, 3, 1), dtype=e2.dtype)
    s[:, 1, 0] = V0
    s[:, 2, 0] = 1.0
    for a in range((w.size - 1) // TREE_CHUNK * TREE_CHUNK, -1, -TREE_CHUNK):
        wa = w[a : a + TREE_CHUNK]
        levels = [_node_maps(e2, c, wa)]
        while levels[-1].shape[0] > 1:
            maps = levels[-1]
            levels.append(maps[0::2] @ maps[1::2])
        if field is None:
            for maps in levels[-2::-1]:
                s = maps[1] @ s
        else:
            S = s[None]  # S[j]: the state entering block j of the level
            for maps in levels[-2::-1]:
                below = np.empty((2 * S.shape[0],) + S.shape[1:], dtype=S.dtype)
                below[1::2] = S
                below[0::2] = maps[1::2] @ S
                S = below
            s = S[0]
            field[a + 1 : a + wa.size] += S[: wa.size - 1, :, 0, 0]
        s = levels[0][0] @ s
        if field is not None:
            field[a] += s[:, 0, 0]
    return s[:, 0, 0], s[:, 1, 0]


def _node_maps(e2, c, w):
    """The maps M_i of _march_tree for weights w, stacked (p, width, 3, 3)
    and padded with identities to p = the next power of two."""
    r = w.size
    maps = np.zeros((1 << (r - 1).bit_length(), e2.size, 3, 3), dtype=e2.dtype)
    wc = w[:, None]
    maps[:r, :, 0, 0] = e2
    maps[:r, :, 0, 1] = c
    maps[:r, :, 1, 0] = wc * e2
    maps[:r, :, 1, 1] = 1.0 + wc * c
    maps[:r, :, 1, 2] = wc
    maps[r:, :, 0, 0] = maps[r:, :, 1, 1] = 1.0
    maps[:, :, 2, 2] = 1.0
    return maps


def jost_boundary(q: Potential, kgrid: MomentumGrid) -> tuple[np.ndarray, np.ndarray]:
    """Boundary values f(k) = f(0,k) and f'(0,k) on a symmetric real grid.

    Only the upper half k >= 0 is marched; negative momenta are filled by
    the reality relation f(-k) = conj f(k).  Both arrays are complex, as
    the upper half holds a k > 0.  A grid that cannot resolve q is refused
    before the march (_check_resolution).
    """
    _check_resolution(np.max(np.abs(q.values)), q.grid.dx)
    f0, fprime0, _ = _march(q.values, q.grid.dx, kgrid.nodes[kgrid.upper])
    return kgrid.mirror(f0, np.conj), kgrid.mirror(fprime0, np.conj)


def jost_field(q: Potential, ks) -> tuple[np.ndarray, np.ndarray]:
    """Jost solution f(x_i, k_j) on the potential grid, shape (n_x, n_k),
    and the boundary derivatives f'(0, k_j), for any momenta with Im k >= 0
    (DataError otherwise).

    For boundary values alone use jost_boundary, which allocates no field.
    Beyond the node after q's last nonzero sample f(x,k) = e^{ikx} exactly;
    the march stops there (see _march).  Purely imaginary momenta are
    marched in real arithmetic, as by every other imaginary-axis caller, so
    their columns equal those callers' values bit for bit, and are
    multiplied by the real e^{-kappa x}; both returned arrays are complex
    all the same.  A grid that cannot resolve q is refused before the march
    (_check_resolution).
    """
    _check_resolution(np.max(np.abs(q.values)), q.grid.dx)
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    _, fprime0, field = _march(q.values, q.grid.dx, ks, keep_field=True)
    if field.dtype == complex:
        field *= np.exp(1j * np.multiply.outer(q.grid.nodes, ks))
    else:  # k = i kappa: e^{ikx} = e^{-kappa x} is real, and so is the product
        field *= np.exp(np.multiply.outer(q.grid.nodes, -ks.imag))
        field = field.astype(complex)
    return field, fprime0.astype(complex, copy=False)


def _f0_imag_axis(q: Potential, kappas: np.ndarray, step: int = 1) -> np.ndarray:
    """f(0, i*kappa) for an array of kappa >= 0 (a float array: the march
    runs in real arithmetic on the imaginary axis), on the potential grid
    subsampled by step (step = 2 is the 2*dx grid used for Richardson
    extrapolation)."""
    return _march(q.values[::step], step * q.grid.dx, 1j * np.asarray(kappas, dtype=float))[0]


@dataclass(frozen=True)
class BoundStateScan:
    """Bound-state locations plus a zero-energy-resonance warning flag."""

    kappas: tuple[float, ...]
    resonance_suspected: bool


def _imag_axis_zeros(g, q_max: float, dx: float, tol: float):
    """The bound-state search of find_bound_states and data_from_kernel:
    zeros of the vectorized g(kappa) = f(0, i kappa), for a potential of
    depth at most q_max on a grid of spacing dx, as (grid, lo, roots,
    resonance).

    SolverError first if the grid cannot resolve that depth
    (_check_resolution).  Then one call of g on kappa = 0 and the scan
    grid = _kappa_scan(q_max).
    f(i kappa) -> 1 as kappa -> inf, so g < 0 at the scan edge means zeros
    beyond it and raises SolverError.  The brackets [grid[lo], grid[lo+1]]
    are the scan intervals whose left node is an exact zero (its own root)
    or where g changes sign; find_roots refines them all at once to
    |g| <= tol from the scan's values.  Zeros of f are simple but not
    separated: pairs closer than SCAN_STEP may be missed.  |g(0)| below
    RESONANCE_TOL, or a sign change straddling KAPPA_MIN, raises the
    zero-energy-resonance flag.
    """
    _check_resolution(q_max, dx)
    grid = _kappa_scan(q_max)
    gv = g(np.concatenate([[0.0], grid]))
    g0, gv = float(gv[0]), gv[1:]
    if gv[-1] < 0:
        raise SolverError(
            f"f(i kappa) is still negative at the scan edge kappa = {grid[-1]:.3f}; "
            "bound states lie beyond the scan"
        )
    lo = np.nonzero((gv[:-1] == 0.0) | (gv[:-1] * gv[1:] < 0))[0]
    roots = find_roots(g, grid[lo], grid[lo + 1], gv[lo], gv[lo + 1], tol)
    resonance = abs(g0) < RESONANCE_TOL or g0 * gv[0] < 0
    return grid, lo, roots, resonance


def find_bound_states(q: Potential) -> BoundStateScan:
    """Locate the zeros i*kappa_j of the Jost function on the imaginary axis.

    _imag_axis_zeros scans g(kappa) = f(0, i*kappa) up to the bound of
    max|q| (one march for the whole scan and kappa = 0, the search's only
    wide march) and refines every bracket at once to |g| <= ROOT_TOL, so
    every step of the root finder is one march for all states; it also sets
    the zero-energy-resonance flag and refuses zeros beyond the scan.  On a
    grid with an odd node count the roots are then Richardson-extrapolated
    against their twins on the 2*dx subsampled grid (_coarse_roots),
    removing the O(dx^2) discretization bias.
    """
    grid, lo, roots, resonance = _imag_axis_zeros(lambda kp: _f0_imag_axis(q, kp), np.max(np.abs(q.values)), q.grid.dx, ROOT_TOL)
    if q.grid.n % 2 == 1 and lo.size:
        roots_c = _coarse_roots(q, grid, lo, roots)
        roots = np.where(np.isnan(roots_c), roots, (4.0 * roots - roots_c) / 3.0)
    return BoundStateScan(tuple(float(k) for k in roots), resonance)


def _coarse_roots(q: Potential, grid: np.ndarray, lo: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The 2*dx twins of the dx roots, whose scan brackets are
    [grid[lo], grid[lo + 1]]; nan where there is no twin to extrapolate with.

    A twin lies O(dx^2) from its dx root, so Newton steps on the 2*dx grid
    start there, each one march of columns kappa, kappa +- h (h = 1e-4 kappa,
    as in norming_constants) for every state until |g| <= ROOT_TOL.  A state
    gets nan after _TWIN_STEPS steps, at a zero slope or at a step out of
    kappa > 0, and so do twins sharing a scan interval.  A twin outside its
    dx root's bracket (deep wells shift by whole SCAN_STEPs) counts only if
    its shift is second order: then the 4*dx root is r_c + 4 (r_c - r), and
    g on the 4*dx grid changes sign between r_c + 3 (r_c - r) and
    r_c + 5 (r_c - r).  A jump sampled off its midpoint (an O(dx) shift)
    fails this, as does another state's twin.
    """
    roots_c = np.array(roots, dtype=float)
    todo = np.arange(roots_c.size)
    for _ in range(_TWIN_STEPS):
        if not todo.size:
            break
        kap = roots_c[todo]
        h = 1e-4 * kap
        g, gp, gm = _f0_imag_axis(q, np.concatenate([kap, kap + h, kap - h]), step=2).reshape(3, -1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = kap - g / ((gp - gm) / (2.0 * h))
        done = np.abs(g) <= ROOT_TOL
        roots_c[todo] = np.where(done, kap, np.where(np.isfinite(step) & (step > 0.0), step, np.nan))
        todo = todo[~done & np.isfinite(roots_c[todo])]
    roots_c[todo] = np.nan
    cell = np.searchsorted(grid, roots_c, side="right") - 1
    taken, count = np.unique(cell[np.isfinite(roots_c)], return_counts=True)
    roots_c[np.isin(cell, taken[count > 1])] = np.nan
    moved = np.nonzero(np.isfinite(roots_c) & (cell != lo))[0]
    if moved.size:
        rc, shift = roots_c[moved], roots_c[moved] - roots[moved]
        g4 = _f0_imag_axis(q, np.maximum(np.concatenate([rc + 3.0 * shift, rc + 5.0 * shift]), 0.0), step=4)
        roots_c[moved[g4[: moved.size] * g4[moved.size :] >= 0]] = np.nan
    return roots_c


def norming_constants(q: Potential, kappas) -> tuple[np.ndarray, list[dict]]:
    """Norming constants for verified simple zeros i*kappa_j.

    Primary value: s_j = -2 i kappa_j / (fdot(i kappa_j) f'(0, i kappa_j)),
    from ||f_j||^2 = i fdot(i kappa_j) f'(0, i kappa_j) / (2 kappa_j) (with
    f'(0, i kappa_j) in the numerator instead it gives the regular
    solution's c_j = s_j [f'(0, i kappa_j)]^2).  The march is real on the
    imaginary axis, and fdot = -i gdot for g(kappa) = f(0, i kappa), so
    s_j = 2 kappa_j / (gdot f'(0, i kappa_j)) in real arithmetic, gdot by a
    central difference (step h = 1e-4 * kappa).  Secondary value:
    s_j = 1 / int_0^inf f(x, i kappa_j)^2 dx; the relative discrepancy of
    the two routes is recorded per state.  One jost_field march for all
    states gives the fields at i kappa_j and the values at i (kappa_j +- h).
    DataError unless every kappa is finite and positive; SolverError if the
    grid cannot resolve q, a zero is not simple (|gdot| < 1e-8) or
    gdot f'(0, i kappa_j) is zero or not finite.
    """
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    if not np.all(np.isfinite(kappas) & (kappas > 0)):
        raise DataError(f"bound-state kappas must be finite and positive, got {kappas}")
    nj = kappas.size
    h = 1e-4 * kappas
    f_x, fprime0 = jost_field(q, 1j * np.concatenate([kappas, kappas + h, kappas - h]))
    gdot = (f_x[0, nj : 2 * nj].real - f_x[0, 2 * nj :].real) / (2 * h)
    flat = np.abs(gdot) < 1e-8
    if np.any(flat):
        raise SolverError(f"zero at kappa = {kappas[flat][0]:.6f} is not simple (|fdot| < 1e-8)")
    denom = gdot * fprime0[:nj].real
    bad = ~np.isfinite(denom) | (denom == 0.0)
    if np.any(bad):
        raise SolverError(f"norming constant at kappa = {kappas[bad][0]:.6f} is undefined: g'(kappa) f'(0, i kappa) = {denom[bad][0]:.3g}")
    s = 2 * kappas / denom
    report = []
    for j, (kap, sp) in enumerate(zip(kappas.tolist(), s.tolist())):
        s_norm = 1.0 / float(integrate(f_x[:, j].real ** 2, q.grid))
        report.append({"kappa": kap, "s": sp, "s_norm": s_norm, "rel_diff": abs(sp - s_norm) / max(abs(sp), abs(s_norm))})
    return s, report


def s_matrix(q: Potential, kgrid: MomentumGrid) -> ScatteringData:
    """Scattering data of a potential: S(k) = f(-k)/f(k) on the grid, bound
    states with norming constants, and the S(0) sign flag (see
    _data_from_jost)."""
    f0, _ = jost_boundary(q, kgrid)
    return _scattering_data(q, kgrid, f0)


def _scattering_data(q: Potential, kgrid: MomentumGrid, f0: np.ndarray) -> ScatteringData:
    """The body of s_matrix, given the boundary values f0 = jost_boundary(q, kgrid)[0]."""
    scan = find_bound_states(q)
    bound = ()
    if scan.kappas:
        s_vals, _ = norming_constants(q, np.array(scan.kappas))
        bound = tuple(BoundState(k, s) for k, s in zip(scan.kappas, s_vals))
    return _data_from_jost(kgrid, f0, bound, scan.resonance_suspected)


def _data_from_jost(kgrid: MomentumGrid, f0: np.ndarray, bound: tuple, resonance: bool) -> ScatteringData:
    """Scattering data from Jost boundary values f0 on kgrid.

    S = f(-k)/f(k) = conj(f)/f, so |S| = 1 to rounding.  The k = 0 node is
    not divided, since f(0) may be 0: it takes the sign convention
    S(0) = -1 for a zero-energy resonance (f(0) = 0, a simple zero) and
    S(0) = +1 otherwise.  Raises SolverError if f vanishes more than 10 dk
    away from k = 0.
    """
    if np.any(np.abs(f0[np.abs(kgrid.nodes) > 10 * kgrid.dk]) < 1e-12):
        raise SolverError("Jost boundary value vanishes away from k = 0")
    sign = -1 if resonance else 1
    off_zero = np.arange(kgrid.n) != kgrid.zero_index  # all nodes when there is no k = 0 node
    svals = np.divide(np.conj(f0), f0, out=np.full(kgrid.n, complex(sign)), where=off_zero)
    return ScatteringData(kgrid=kgrid, s_values=svals, bound_states=bound, s_at_zero_sign=sign)


def phase_shift(sd: ScatteringData) -> np.ndarray:
    """Continuous phase shift delta(k) from S = e^{2 i delta}.

    The unwrapped argument of S is anchored to 0 at +k_max and continued
    down to k = 0; the negative half-line is the odd reflection
    delta(-k) = -delta(k) (in a resonance case delta carries a -pi jump
    through k = 0, so oddness is a piecewise statement, not a property of
    the full-line unwrap).  Consistency of e^{2 i delta} with S is checked
    on the whole grid.
    """
    kgrid = sd.kgrid
    theta = unwrap_phase(sd.s_values[kgrid.upper][::-1])[::-1]
    delta = kgrid.mirror(0.5 * theta, np.negative)
    resid = np.max(np.abs(np.exp(2j * delta) - sd.s_values))
    if resid > 1e-8:
        raise DataError(f"phase shift does not reproduce S: residual {resid:.2e}")
    return delta


def kernel_from_potential(q: Potential) -> TransformationKernel:
    """Transformation kernel A(x,y) of

        A(x,y) = 1/2 int_{(x+y)/2}^inf q
                 + 1/2 int_x^inf ds q(s) int_{y-s+x}^{y+s-x} A(s,u) du.

    In characteristic coordinates xi = (x+y)/2, eta = (y-x)/2 this is the
    Goursat problem K_{xi eta} = -q(xi - eta) K, K(xi, 0) = omega(xi) =
    1/2 int_xi^inf q, K(x_max, eta) = 0 (Chadan & Sabatier, ch. V).  Its
    product trapezoid rule on each cell,

        K(i,j) - K(i+1,j) - K(i,j-1) + K(i+1,j-1)
            = (dx^2/4) [P(i,j) + P(i+1,j) + P(i,j-1) + P(i+1,j-1)],

    P = q(xi - eta) K (zero for eta > xi), is marched in xi from x_max down.
    With c_t = (dx^2/4) q(x_max - t dx) and s the row's distance from
    x_max, each row is the first-order recurrence
    K(i,j) = a_{s+j} K(i,j-1) + (terms of row i+1), a_t = (1 + c_{t-1}) /
    (1 - c_t).  The march runs in the scaled variable L(i,j) = K(i,j) /
    G_{s+j}, G the prefix product of the a_t (within exp(dx ||q||_1) of
    1), in which every row is a cumulative sum:

        L(i,j) = L(i,j-1) + [L(i+1,j) - L(i+1,j-1)] + sigma_{s+j} L(i+1,j-1),

    sigma_t = 1 - (1 - c_{t-2})(1 - c_{t-1}) / ((1 + c_{t-2})(1 + c_{t-1})),
    formed from c without cancellation: three in-place passes and one
    cumsum per row.  (Written as L(i+1,j) - rho L(i+1,j-1), rho = 1 - sigma,
    the step cancels, and A carries 5 to 40 times the rounding error.)
    One multiply by G, read through a skewed (sliding-window) view, gives
    K, and K(xi, 0) = omega is set exactly, so A(x,x) = omega exactly.
    O(n^2).  Raises SolverError if a pivot 1 - (dx^2/4) q is not positive
    or A is not finite.

    A(x_i, x_{i+d}) is K at (i + d/2, d/2) for even d and, for odd d, the
    mean of the four corners of the cell at (i + (d-1)/2, (d-1)/2), a
    characteristic-grid cell center.  The means are formed for every cell at
    once, and two skewed views, one of K and one of the means, give the
    rows of A; a third writes them through D[i, d] = A[i, i + d], masked to
    the upper triangle (_fill_block).

    Where q is 0 from x_{e+1} on (x_e its last nonzero sample), K = 0 for
    xi > x_e, so A = 0 for x + y >= 2 x_{e+2}.  The march then runs on the
    leading nb = min(n, 2e + 4) nodes only, from row e + 1 down, and only
    that nb x nb block of A is allocated and returned (the kernel's block;
    A is 0 outside it), read-only, so the kernel keeps it without a copy.
    This is exact, not a cut-off: every entry equals the full march's bit
    for bit.  A q without exact zeros gives nb = n.  A grid that cannot
    resolve q is refused first (_check_resolution).
    """
    dx = q.grid.dx
    _check_resolution(np.max(np.abs(q.values)), dx)
    n = q.grid.n
    e = _support_end(q.values) - 2  # last nonzero sample of q
    nb = min(n, 2 * e + 4)  # A = 0 outside the leading nb x nb block
    qv = q.values[:nb]
    m = (nb - 1) // 2 + 1  # eta range [0, x_max/2] suffices for y <= x_max
    # omega(xi) = 1/2 int_xi^inf q  (reversed cumulative trapezoid)
    seg = 0.5 * dx * (qv[1:] + qv[:-1])
    omega = np.zeros(nb)
    omega[:-1] = 0.5 * np.cumsum(seg[::-1])[::-1]
    # row i reads (dx^2/4) q(xi_i - eta_j) at c[nb-1-i+j]: q reversed, zero-padded
    c = np.zeros(nb + m)
    c[:nb] = 0.25 * dx * dx * qv[::-1]
    if np.any(1.0 - c <= 0.0):
        raise SolverError("kernel march pivot 1 - (dx^2/4) q is not positive; refine the grid")
    G = np.ones(nb + m)
    np.cumprod((1.0 + c[:-1]) / (1.0 - c[1:]), out=G[1:])
    # sigma_t = 1 - rho_t = 1 - u_{t-2} u_{t-1}, u = (1 - c)/(1 + c) = 1 - v, without cancellation
    v = 2.0 * c / (1.0 + c)
    sigma = np.zeros(nb + m)
    sigma[2:] = v[:-2] + (1.0 - v[:-2]) * v[1:-1]
    # G_{s+j} for row i = nb-1-s: a sliding-window view of G, rows reversed
    Gs = np.lib.stride_tricks.sliding_window_view(G, m)[nb - 1 :: -1]
    # rows nb .. nb+m-1 stay 0: the skewed reads of _fill_block run past row nb-1
    K = np.zeros((nb + m, m))
    K[:nb, 0] = omega / Gs[:, 0]
    step = np.empty(m - 1)
    for s in range(max(1, nb - 2 - e), nb):  # rows i > e + 1 stay 0
        prev, row = K[nb - s], K[nb - 1 - s]
        np.multiply(sigma[s + 1 : s + m], prev[:-1], out=row[1:])
        np.subtract(prev[1:], prev[:-1], out=step)
        row[1:] += step
        row.cumsum(out=row)
    K[:nb] *= Gs
    K[:nb, 0] = omega
    A = _fill_block(K, nb)
    if not np.all(np.isfinite(A)):
        raise SolverError("transformation kernel has non-finite entries")
    A.flags.writeable = False
    return TransformationKernel(grid=q.grid, block=A)


def _skew(X: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The read-only view V[i, r] = X[i + r, r] of a C-contiguous 2-d array."""
    row, item = X.strides
    return np.lib.stride_tricks.as_strided(X, shape=shape, strides=(row, row + item), writeable=False)


def _fill_block(K: np.ndarray, nb: int) -> np.ndarray:
    """The nb x nb block of A from the Goursat array K, of shape (nb + m, m)
    with rows nb .. nb+m-1 zero: A[i, i + 2r] = K[i + r, r] and
    A[i, i + 2r + 1] the mean of the cell corners K[i+r .. i+r+1, r .. r+1],
    the columns clamped to m - 1.

    The means are formed in K's own layout, in the corner order
    ((K[x,r] + K[x+1,r]) + K[x,r+1]) + K[x+1,r+1], and both they and K are
    read through _skew.  D[i, d] = A[i, i + d] is a view of a buffer nb - 1
    entries longer than A; its entries with i + d >= nb fall below A's
    diagonal or past its end, and a mask leaves them 0.  The buffer is then
    shrunk in place to A, so A owns its memory.
    """
    m = K.shape[1]
    ne, no = (nb + 1) // 2, nb // 2  # even and odd offsets d < nb
    M = np.zeros((nb + no, m))  # cell means; rows past nb - 1 stay 0 for the skewed read
    lo, hi = K[:nb], K[1 : nb + 1]
    mean = M[:nb]
    np.add(lo, hi, out=mean)
    mean[:, :-1] += lo[:, 1:]
    mean[:, -1] += lo[:, -1]
    mean[:, :-1] += hi[:, 1:]
    mean[:, -1] += hi[:, -1]
    mean *= 0.25
    buf = np.zeros(nb * nb + nb - 1)
    D = np.lib.stride_tricks.as_strided(buf, shape=(nb, nb), strides=((nb + 1) * buf.itemsize, buf.itemsize))
    upper = np.tri(nb, dtype=bool)[::-1]  # i + d < nb
    np.copyto(D[:, 0::2], _skew(K, (nb, ne)), where=upper[:, 0::2])
    np.copyto(D[:, 1::2], _skew(M, (nb, no)), where=upper[:, 1::2])
    del D  # buf's only view: the resize may move buf
    buf.resize((nb, nb), refcheck=False)
    return buf


@dataclass(frozen=True)
class ForwardResult:
    """Everything the direct problem produces for one potential: its
    scattering data sd, and on the grid sd.kgrid the Jost boundary values
    f0 = f(0, k) and fprime0 = f'(0, k) and the phase shift delta.  forward
    marks the three arrays read-only where it builds them."""

    sd: ScatteringData
    f0: np.ndarray
    fprime0: np.ndarray
    delta: np.ndarray


def forward(q: Potential, kgrid: MomentumGrid | None = None) -> ForwardResult:
    """Full direct problem: Jost boundary data, scattering data and phase
    shift, on kgrid (by default [-200, 200] with dk = 0.01).

    A grid that cannot resolve q is refused before any march (by
    jost_boundary, SolverError).  The scattering data must pass the
    characterization's symmetry/unitarity and discrete-data checks, else
    SolverError names the failed checks; S = conj f / f with f mirrored is
    symmetric bit for bit and unimodular to rounding, so only the former's
    tail part (S -> 1 at the grid ends) can fail.  The result holds neither
    the transformation kernel nor the Jost field f(x, k):
    kernel_from_potential and jost_field compute those.
    """
    if kgrid is None:
        kgrid = MomentumGrid.make(200.0, 0.01)
    f0, fprime0 = jost_boundary(q, kgrid)
    sd = _scattering_data(q, kgrid, f0)
    checks = (check_symmetry_unitarity(sd), check_discrete(sd))
    bad = [f"{c.name} ({c.note})" for c in checks if not c.passed]
    if bad:
        raise SolverError("forward data failed validation: " + "; ".join(bad))
    delta = phase_shift(sd)
    for a in (f0, fprime0, delta):
        a.flags.writeable = False
    return ForwardResult(sd=sd, f0=f0, fprime0=fprime0, delta=delta)

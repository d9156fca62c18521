"""Shared numerical primitives.

Composite trapezoid and Simpson quadrature, finite-difference
differentiation, sums of e^{ipx} between uniform grids (one chirp-z
transform each: the Fourier integral from momentum to space, its tail
beyond the grid added in closed form, and the Jost function from a
kernel row), backward-marching Volterra solves with a difference kernel
(Simpson rule), batched bracketed root finding that
starts from a scan's values at the bracket ends (one vectorized call of g
per secant step for all brackets), winding numbers by nearest-branch
phase continuation (a step of pi or more refused), and principal-value
Cauchy transforms on uniform grids.  The Fourier sums and the principal
value are both Toeplitz products, computed by one zero-padded FFT
convolution.

Conventions: the Volterra solver uses the sign convention of the Marchenko
equation, i.e. it returns h satisfying

    h + (integral operator applied to h) = -g,

so a zero kernel gives h = -g.  The Marchenko rows themselves are solved
by marchenko.solve_kernel.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DataError, GridError, PhaseUnwrapError, SolverError

__all__ = [
    "quadrature_weights",
    "integrate",
    "differentiate",
    "fourier_kernel_to_space",
    "solve_volterra_backward",
    "find_roots",
    "winding_number",
    "unwrap_phase",
    "pv_cauchy_grid",
    "WindingResult",
    "sine_integral",
]


# ---------------------------------------------------------------------------
# uniform grids and quadrature


_UNIFORM_TOL = 1e-9  # largest spacing deviation, relative to max(dx, 1)


def _check_uniform(nodes: np.ndarray) -> float:
    """Spacing of a uniform node array; GridError unless the nodes are one
    dimensional, at least two, finite, strictly increasing and uniform."""
    if nodes.ndim != 1 or nodes.size < 2:
        raise GridError("grid needs at least two nodes")
    if not np.all(np.isfinite(nodes)):
        raise GridError("grid nodes must be finite")
    d = np.diff(nodes)
    if np.any(d <= 0):
        raise GridError("grid nodes must be strictly increasing")
    # end to end: nodes[1] - nodes[0] carries the rounding of the two nodes
    dx = float((nodes[-1] - nodes[0]) / (nodes.size - 1))
    if np.max(np.abs(d - dx)) > _UNIFORM_TOL * max(abs(dx), 1.0):
        raise GridError("grid spacing must be uniform")
    return dx


def quadrature_weights(n: int, dx: float, rule: str = "trapezoid") -> np.ndarray:
    """Composite quadrature weights for n uniform nodes with spacing dx.

    rule = "trapezoid" or "simpson".  Simpson handles an odd interval count
    by finishing with the 3/8 rule on the last three intervals, which keeps
    fourth order.  Weights are positive and sum to the interval length.
    Any other rule raises DataError, whatever n.
    """
    if rule not in ("trapezoid", "simpson"):
        raise DataError(f"unknown rule {rule!r}")
    if n < 2:
        raise GridError("need at least two nodes")
    if rule == "trapezoid" or n == 2:
        w = np.full(n, dx)
        w[0] = w[-1] = dx / 2.0
        return w
    m = n - 1  # interval count
    w = np.zeros(n)
    if m % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= dx / 3.0
        return w
    if n == 4:
        return dx * np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    # even prefix of m-3 intervals, then 3/8 on the final three
    head = n - 3
    w[0] = 1.0
    w[1 : head - 1 : 2] = 4.0
    w[2 : head - 1 : 2] = 2.0
    w[head - 1] = 1.0
    w *= dx / 3.0
    w[head - 1 :] += dx * np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w


def integrate(samples: np.ndarray, grid, rule: str = "trapezoid"):
    """Composite-rule integral of sampled values over a uniform grid, along
    the last axis of samples."""
    samples = np.asarray(samples)
    if samples.shape[-1] != grid.n:
        raise GridError("sample count does not match the grid")
    return samples @ quadrature_weights(grid.n, grid.dx, rule)


def differentiate(samples: np.ndarray, dx: float, stencil: int = 3) -> np.ndarray:
    """Finite-difference derivative on a uniform grid.

    stencil=3: second-order central differences, one-sided second order at
    the ends.  stencil=5: fourth-order central differences with one-sided
    fourth-order closures (falls back to stencil=3 for short arrays).
    Any other stencil raises DataError.
    """
    if stencil not in (3, 5):
        raise DataError(f"unknown stencil {stencil!r}")
    f = np.asarray(samples, dtype=float)
    n = f.size
    if n < 3:
        raise GridError("need at least three samples to differentiate")
    # difference forms: constants cancel exactly, not just to rounding
    if stencil == 5 and n >= 6:
        d = np.empty_like(f)
        d[2:-2] = (8 * (f[3:-1] - f[1:-3]) - (f[4:] - f[:-4])) / (12 * dx)
        d[0] = (48 * (f[1] - f[0]) - 36 * (f[2] - f[0]) + 16 * (f[3] - f[0]) - 3 * (f[4] - f[0])) / (12 * dx)
        d[1] = (-10 * (f[1] - f[0]) + 18 * (f[2] - f[0]) - 6 * (f[3] - f[0]) + (f[4] - f[0])) / (12 * dx)
        d[-2] = (-10 * (f[-2] - f[-1]) + 18 * (f[-3] - f[-1]) - 6 * (f[-4] - f[-1]) + (f[-5] - f[-1])) / (-12 * dx)
        d[-1] = (48 * (f[-2] - f[-1]) - 36 * (f[-3] - f[-1]) + 16 * (f[-4] - f[-1]) - 3 * (f[-5] - f[-1])) / (-12 * dx)
        return d
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2 * dx)
    d[0] = (4 * (f[1] - f[0]) - (f[2] - f[0])) / (2 * dx)
    d[-1] = -(4 * (f[-2] - f[-1]) - (f[-3] - f[-1])) / (2 * dx)
    return d


# ---------------------------------------------------------------------------
# oscillatory Fourier integrals


def sine_integral(z: np.ndarray) -> np.ndarray:
    """Sine integral Si(z) for z >= 0: Maclaurin series up to 20, asymptotic
    expansion beyond (absolute accuracy ~1e-8, ample for tail corrections)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= 20.0
    if np.any(small):
        zs = z[small]
        term = zs.copy()
        total = zs.copy()
        for m in range(1, 40):
            term = -term * zs * zs / ((2 * m) * (2 * m + 1))
            total += term / (2 * m + 1)
        out[small] = total
    if np.any(~small):
        zl = z[~small]
        z2 = zl * zl
        fz = (1.0 - 2.0 / z2 + 24.0 / z2**2 - 720.0 / z2**3) / zl
        gz = (1.0 - 6.0 / z2 + 120.0 / z2**2 - 5040.0 / z2**3) / z2
        out[~small] = np.pi / 2 - fz * np.cos(zl) - gz * np.sin(zl)
    return out


def _toeplitz_fft(a: np.ndarray, c: np.ndarray, m: int) -> np.ndarray:
    """T @ a along the last axis of a (n samples) for the m-row Toeplitz
    matrix T[i, j] = c[i - j + n - 1]: one zero-padded FFT convolution with
    the circulant that embeds T, in real arithmetic when a and c are real."""
    n = a.shape[-1]
    size = 1 << (n + m - 2).bit_length()  # power of two >= n + m - 1
    col = np.concatenate([c[n - 1 :], np.zeros(size - n - m + 1, dtype=c.dtype), c[: n - 1]])
    if np.isrealobj(a) and np.isrealobj(c):
        return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(col), size)[..., :m]
    return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(col))[..., :m]


def _oscillatory_sum(weighted: np.ndarray, nodes: np.ndarray, dx: float, points: np.ndarray, dp: float) -> np.ndarray:
    """sum_j weighted_j e^{i p nodes_j} for each p in points.

    nodes and points are uniform with spacings dx and dp (the grids' own),
    so this is Bluestein's chirp-z transform: with indices u, v centred on
    the grids, p x = x_c p + p_c (x - x_c) + u v dp dx, and
    u v = (u^2 + v^2 - (v - u)^2)/2 leaves one Toeplitz product with the
    chirp e^{-i alpha (v - u)^2 / 2}, alpha = dp dx.  The centring
    keeps the chirp phases small.
    """
    n, m = nodes.size, points.size
    xc, pc = 0.5 * (nodes[0] + nodes[-1]), 0.5 * (points[0] + points[-1])
    u = np.arange(n) - 0.5 * (n - 1)
    v = np.arange(m) - 0.5 * (m - 1)
    alpha = dp * dx
    a = weighted * np.exp(1j * (pc * (nodes - xc) + 0.5 * alpha * u**2))
    d = np.arange(1 - n, m) + 0.5 * (n - m)  # v - u on the diagonal i - j
    conv = _toeplitz_fft(a, np.exp(-0.5j * alpha * d**2), m)
    return np.exp(1j * (xc * points + 0.5 * alpha * v**2)) * conv


def fourier_kernel_to_space(h: np.ndarray, kgrid, xgrid) -> tuple:
    """(1/2pi) * integral of h(k) e^{ikx} dk over the whole k axis.

    Every node x of xgrid comes from one chirp-z transform of the
    trapezoid sum over kgrid.  Returns the arrays (value, imag_residual).
    For conjugate-symmetric h the result is real; the imaginary residual is
    reported as a diagnostic and the real part returned.  The tail of h
    beyond the grid, h ~ i gamma/k + c2/k^2 with gamma and c2 from the
    endpoint samples, is added in closed form, and at a node x = 0 the
    jump midpoint is compensated, so the value returned there is the
    right-sided limit F(0+), the boundary value the Marchenko equation
    needs.  An h that vanishes at both grid ends gets zero tail terms and
    keeps the bare trapezoid sum.
    """
    h = np.asarray(h, dtype=complex)
    k = kgrid.nodes
    if h.shape != k.shape:
        raise GridError("h samples must match the momentum grid")
    xs = xgrid.nodes
    w = quadrature_weights(k.size, kgrid.dx)
    vals = _oscillatory_sum(w * h, k, kgrid.dx, xs, xgrid.dx) / (2 * np.pi)
    # h ~ i*gamma/k + c2/k^2 beyond the grid; add the missing tail of both
    # terms in closed form (gamma and c2 from the endpoint samples)
    k_max = float(k[-1])
    gamma = 0.5 * float(np.imag(k[-1] * h[-1]) + np.imag(k[0] * h[0]))
    c2 = 0.5 * float(np.real(k[-1] ** 2 * h[-1]) + np.real(k[0] ** 2 * h[0]))
    ax = np.abs(xs)
    si_rest = np.pi / 2 - sine_integral(k_max * ax)
    tail1 = -(gamma / np.pi) * np.sign(xs) * si_rest
    tail2 = (c2 / np.pi) * (np.cos(k_max * ax) / k_max - ax * si_rest)
    vals = vals + tail1 + tail2
    # restore the right-sided limit at the jump node: F(0+) equals the
    # reconstructed midpoint plus half the jump, which is -gamma
    vals = np.where(xs == 0.0, vals - gamma / 2.0, vals)
    return vals.real, np.abs(vals.imag)


# ---------------------------------------------------------------------------
# backward Volterra marching


def solve_volterra_backward(a: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """Solve h(p) + int_p^end a(t - p) h(t) dt = -g(p) by backward marching.

    The kernel depends on t - p only and is sampled by offset on the grid
    of spacing dx, a[j] = a(j dx), as many samples as g (only t >= p is
    ever read).  The recursion starts at the far end, where the integral
    term is empty.

    Row i integrates over the L = n - i nodes from p_i to the end with the
    Simpson quadrature_weights(L, dx, "simpson").  Rows of one parity share
    their far-end weights and their first weight with the longest row of
    that parity, so the far weights of every row are one window of that
    template, zero-padded: one sliding_window_view of each template, times
    the kernel samples a[1:], gives every row's far products at once (rows
    of 2 and 4 nodes, trapezoid and 3/8 rule, are set on their own).  The
    march itself is then one np.dot per row, with the same operands as a
    row built from its own weights, so the result is the same bit for bit.
    A row whose pivot 1 + w_0 a[0] vanishes raises SolverError naming the
    largest such node, the first the march meets.
    """
    a = np.asarray(a, dtype=float)
    g = np.asarray(g, dtype=float)
    if a.shape != g.shape:
        raise GridError("kernel and rhs samples must have the same length")
    n = g.size
    h = np.empty(n)
    h[-1] = -g[-1]
    # far[i, :L-1] = w_far * a[1:L] for row i (L = n - i nodes), zero beyond;
    # row i = p + 2k reads the template of n - p nodes from index 2k + 1
    far = np.empty((n - 1, n - 1))
    w0 = np.empty(n - 1)
    for p in (0, 1):
        if n - p >= 2:
            t = quadrature_weights(n - p, dx, "simpson")
            windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([t, np.zeros(n - 1)]), n - 1)[1::2]
            rows = far[p::2]
            np.multiply(windows[: rows.shape[0]], a[1:], out=rows)
            w0[p::2] = t[0]
    for L in (2, 4):
        if L <= n:
            w = quadrature_weights(L, dx, "simpson")
            far[n - L, : L - 1] = w[1:] * a[1:L]
            w0[n - L] = w[0]
    denom = 1.0 + w0 * a[0]
    bad = np.nonzero(np.abs(denom) < 1e-14)[0]
    if bad.size:
        raise SolverError(f"Volterra marching broke down at node {bad[-1]}")
    rhs, pivot = (-g).tolist(), denom.tolist()
    for i in range(n - 2, -1, -1):
        h[i] = (rhs[i] - float(far[i, : n - 1 - i].dot(h[i + 1 :]))) / pivot[i]
    return h


# ---------------------------------------------------------------------------
# roots, winding numbers, phase continuation


MAX_ITER = 200  # secant steps after which find_roots gives up


def find_roots(g: Callable[[np.ndarray], np.ndarray], a, b, fa, fb, tol: float) -> np.ndarray:
    """Roots of g on the brackets [a_i, b_i] by bisection with secant
    refinement, all brackets at once, from the values fa = g(a) and
    fb = g(b) at the bracket ends (a caller's scan holds them).

    g is vectorized: it maps an array of points to the array of values and
    is called once per step for every bracket not yet converged, at the
    secant iterates only.  Each bracket follows the iterates of a scalar
    run: it needs a sign change and stops when |g| <= tol or it is at
    rounding width.  Raises DataError for a bracket without a sign change,
    and SolverError when MAX_ITER steps run out or when a bracket collapses
    while |g| at both its ends is still above 1e-6 max(|g(a)|, |g(b)|):
    that is a jump of g, not a root.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.size == 0:
        return np.empty(0)
    fa = np.atleast_1d(np.asarray(fa, dtype=float))
    fb = np.atleast_1d(np.asarray(fb, dtype=float))
    root = np.where(fa == 0.0, a, b)
    active = (fa != 0.0) & (fb != 0.0)
    bad = np.nonzero(active & (fa * fb > 0))[0]
    if bad.size:
        i = bad[0]
        raise DataError(f"no sign change on [{a[i]}, {b[i]}]")
    idx = np.nonzero(active)[0]
    x_prev, f_prev = a[idx], fa[idx]
    x_cur, f_cur = b[idx], fb[idx]
    lo, hi, flo, fhi = x_prev, x_cur, f_prev, f_cur
    jump_floor = 1e-6 * np.maximum(np.abs(fa[idx]), np.abs(fb[idx]))
    for _ in range(MAX_ITER):
        if idx.size == 0:
            break
        # secant candidate, safeguarded by the bracket
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
        x_new = np.where(f_cur != f_prev, secant, mid)
        x_new = np.where((lo < x_new) & (x_new < hi), x_new, mid)
        f_new = np.asarray(g(x_new), dtype=float)
        hit = np.abs(f_new) <= tol
        root[idx[hit]] = x_new[hit]
        left = flo * f_new < 0
        hi, fhi = np.where(left, x_new, hi), np.where(left, f_new, fhi)
        lo, flo = np.where(left, lo, x_new), np.where(left, flo, f_new)
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        width = 4 * np.finfo(float).eps * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        collapsed = ~hit & (hi - lo <= width)
        g_near = np.minimum(np.abs(flo), np.abs(fhi))
        jump = np.nonzero(collapsed & (g_near > jump_floor))[0]
        if jump.size:
            i = jump[0]
            raise SolverError(f"sign change of g at {float(lo[i])!r} is a jump, not a root (|g| >= {g_near[i]:.3e})")
        root[idx[collapsed]] = 0.5 * (lo[collapsed] + hi[collapsed])
        keep = ~(hit | collapsed)
        idx, jump_floor = idx[keep], jump_floor[keep]
        x_prev, f_prev, x_cur, f_cur = x_prev[keep], f_prev[keep], x_cur[keep], f_cur[keep]
        lo, hi, flo, fhi = lo[keep], hi[keep], flo[keep], fhi[keep]
    if idx.size:
        i = idx[0]
        raise SolverError(f"root finder did not converge in {MAX_ITER} iterations on [{a[i]}, {b[i]}]")
    return root


class WindingResult(NamedTuple):
    value: int
    residual: float


# a phase step this close to pi has no nearest branch
_JUMP_TOL = np.pi * (1 - 1e-9)


def _phase_steps(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(v)):
        raise PhaseUnwrapError("non-finite sample in phase continuation")
    mags = np.abs(v)
    if np.any(mags == 0.0):
        raise PhaseUnwrapError("zero sample in phase continuation")
    steps = np.angle(v[1:] * np.conj(v[:-1]))
    bad = np.abs(steps) >= _JUMP_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PhaseUnwrapError(
            f"phase jump {steps[i]:+.4f} rad at sample {i} is >= pi within "
            "tolerance; grid too coarse for nearest-branch continuation"
        )
    return steps


def unwrap_phase(values: np.ndarray) -> np.ndarray:
    """Continuous argument along a sample path, anchored at the principal
    argument of the first sample.  Refuses (raises) on jumps >= pi."""
    steps = _phase_steps(values)
    theta = np.empty(len(values))
    theta[0] = np.angle(values[0])
    np.cumsum(steps, out=theta[1:])
    theta[1:] += theta[0]
    return theta


def winding_number(values: np.ndarray) -> WindingResult:
    """Winding number of a sampled path: total unwrapped argument increment
    over 2 pi, rounded to the nearest integer.

    The residual (distance from an integer) is returned as a confidence
    measure.  Zero samples and phase jumps >= pi are refused.
    """
    steps = _phase_steps(values)
    total = float(np.sum(steps)) / (2 * np.pi)
    value = int(np.round(total))
    return WindingResult(value, abs(total - value))


# ---------------------------------------------------------------------------
# principal-value Cauchy integrals


def pv_cauchy_grid(phi: np.ndarray, nodes: np.ndarray, tail_coeff: float | None = None) -> np.ndarray:
    """v.p. integral of phi(t)/(t - k) dt evaluated at every interior node k.

    The nodes must be uniformly spaced (spacing dk; GridError otherwise,
    by the rule the grid types use).  Singularity
    subtraction at node k_i gives

        sum_{j != i} w_j (phi_j - phi_i)/((j - i) dk) + w_i phi'(k_i)
            + phi_i ln((t_max - k_i)/(k_i - t_min)),

    with trapezoid weights w and a five-point slope filling the removable
    point.  Both sums over j are Toeplitz products with the odd kernel
    1/(m dk), computed as one zero-padded real FFT convolution, so the whole
    transform costs O(n log n).  The two end nodes are copied from their
    neighbors, where the truncated-domain principal value degenerates.  When
    tail_coeff c is given, the analytic tail of phi ~ c/t beyond the grid is
    added on a grid symmetric about 0 (GridError otherwise):
        int_{|t|>K} (c/t) dt/(t-k) = (c/k) ln((K+k)/(K-k)),  -> 2c/K at k=0.
    """
    t = np.asarray(nodes, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != t.shape:
        raise GridError("phi samples must match the grid")
    dt = _check_uniform(t)
    if tail_coeff is not None and abs(t[0] + t[-1]) > 1e-9 * max(abs(t[-1]), 1.0):
        raise GridError("the analytic tail term needs a grid symmetric about 0")
    n = t.size
    w = quadrature_weights(n, dt)
    slope = differentiate(phi, dt, stencil=5)
    # the Toeplitz matrix C[i, j] = 1/((j - i) dt), zero on the diagonal
    d = np.arange(1 - n, n) * dt
    sums = _toeplitz_fft(np.stack([w * phi, w]), np.divide(-1.0, d, out=np.zeros_like(d), where=d != 0), n)
    inner = slice(1, n - 1)
    ti = t[inner]
    out = np.empty(n)
    out[inner] = (
        sums[0, inner]
        - phi[inner] * sums[1, inner]
        + w[inner] * slope[inner]
        + phi[inner] * np.log((t[-1] - ti) / (ti - t[0]))
    )
    if tail_coeff is not None:
        K = t[-1]
        k = ti.copy()
        small = np.abs(k) < 1e-12 * K
        k[small] = 1.0
        tail = (tail_coeff / k) * np.log(np.abs((K + k) / (K - k)))
        tail[small] = 2.0 * tail_coeff / K
        out[inner] += tail
    out[0] = out[1]
    out[-1] = out[-2]
    return out

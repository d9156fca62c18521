"""Shared numerical primitives.

Composite trapezoid and Simpson quadrature, finite-difference
differentiation, truncated oscillatory Fourier integrals between uniform
grids (a chirp-z transform each) with an endpoint taper or an analytic 1/k
tail correction, backward-marching Volterra solves with a difference
kernel, batched bracketed root finding (one vectorized call of g per secant
step for all brackets), winding numbers by nearest-branch phase
continuation (a step of pi or more refused), and principal-value Cauchy
transforms on uniform grids.  The Fourier sums and the principal value are
both Toeplitz products, computed by one zero-padded FFT convolution.

Conventions: the Volterra solver uses the sign convention of the Marchenko
equation, i.e. it returns h satisfying

    h + (integral operator applied to h) = -g,

so a zero kernel gives h = -g.  The Marchenko rows themselves are solved
by marchenko.solve_marchenko.
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
    "fourier_space_to_kernel",
    "solve_volterra_backward",
    "find_roots",
    "winding_number",
    "unwrap_phase",
    "pv_cauchy_grid",
    "WindingResult",
    "sine_integral",
]


# ---------------------------------------------------------------------------
# quadrature


def quadrature_weights(n: int, dx: float, rule: str = "trapezoid") -> np.ndarray:
    """Composite quadrature weights for n uniform nodes with spacing dx.

    rule = "trapezoid" or "simpson".  Simpson handles an odd interval count
    by finishing with the 3/8 rule on the last three intervals, which keeps
    fourth order.  Weights are positive and sum to the interval length.
    """
    if n < 2:
        raise GridError("need at least two nodes")
    if rule == "trapezoid" or n == 2:
        w = np.full(n, dx)
        w[0] = w[-1] = dx / 2.0
        return w
    if rule != "simpson":
        raise ValueError(f"unknown rule {rule!r}")
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
    """Composite-rule integral of sampled values over a uniform grid.

    grid may be a node array, a grid object with .nodes/.dx, or a float dx.
    """
    samples = np.asarray(samples)
    if hasattr(grid, "dx"):
        n, dx = grid.n, grid.dx
    elif np.isscalar(grid):
        n, dx = samples.shape[-1], float(grid)
    else:
        nodes = np.asarray(grid, dtype=float)
        n, dx = nodes.size, float(nodes[1] - nodes[0])
    if samples.shape[-1] != n:
        raise GridError("sample count does not match the grid")
    w = quadrature_weights(n, dx, rule)
    return samples @ w


def differentiate(samples: np.ndarray, dx: float, stencil: int = 3) -> np.ndarray:
    """Finite-difference derivative on a uniform grid.

    stencil=3: second-order central differences, one-sided second order at
    the ends.  stencil=5: fourth-order central differences with one-sided
    fourth-order closures (falls back to stencil=3 for short arrays).
    """
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


TAPER_FRAC = 0.2  # share of each end of the momentum window under the taper


def _taper_window(n: int) -> np.ndarray:
    """Unit window with cosine roll-off over the outer TAPER_FRAC of each end."""
    w = np.ones(n)
    m = int(round(TAPER_FRAC * n))
    if m < 2:
        return w
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    w[:m] = ramp
    w[-m:] = ramp[::-1]
    return w


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


def _oscillatory_sum(weighted: np.ndarray, nodes: np.ndarray, points: np.ndarray, sign: float) -> np.ndarray:
    """sum_j weighted_j e^{sign * i * p * nodes_j} for each p in points.

    nodes and points are uniform grids (points may be one value), so this is
    Bluestein's chirp-z transform: with indices u, v centred on the grids,
    p x = x_c p + p_c (x - x_c) + u v dp dx, and u v = (u^2 + v^2 - (v - u)^2)/2
    leaves one Toeplitz product with the chirp e^{-i alpha (v - u)^2 / 2},
    alpha = sign dp dx.  The centring keeps the chirp phases small.
    """
    n, m = nodes.size, points.size
    dx = (nodes[-1] - nodes[0]) / (n - 1)
    dp = (points[-1] - points[0]) / max(m - 1, 1)
    for grid, step in ((nodes, dx), (points, dp)):
        if np.any(np.abs(np.diff(grid) - step) > 1e-9 * max(abs(step), 1.0)):
            raise GridError("Fourier sums need uniformly spaced nodes and points")
    xc, pc = 0.5 * (nodes[0] + nodes[-1]), 0.5 * (points[0] + points[-1])
    u = np.arange(n) - 0.5 * (n - 1)
    v = np.arange(m) - 0.5 * (m - 1)
    alpha = sign * dp * dx
    a = weighted * np.exp(1j * (sign * pc * (nodes - xc) + 0.5 * alpha * u**2))
    d = np.arange(1 - n, m) + 0.5 * (n - m)  # v - u on the diagonal i - j
    conv = _toeplitz_fft(a, np.exp(-0.5j * alpha * d**2), m)
    return np.exp(1j * (sign * xc * points + 0.5 * alpha * v**2)) * conv


def fourier_kernel_to_space(h: np.ndarray, kgrid, x, tail_correction: bool = False) -> tuple:
    """(1/2pi) * integral of h(k) e^{ikx} dk over the truncated k grid.

    x is one point or a uniform grid (GridError otherwise); all points come
    from one chirp-z transform.  Returns (value, imag_residual).  For
    conjugate-symmetric h the result is real; the imaginary residual is
    reported as a diagnostic and the real part returned.  A Hann-style
    endpoint taper (TAPER_FRAC of each end) suppresses truncation ringing.
    With tail_correction=True the O(1/k) tail of h beyond k_max is
    estimated from the endpoint samples and added analytically (and the
    taper is skipped, since the tail is then modeled explicitly); at a node
    x = 0 the O(1/k^2) tail part and the jump midpoint are also compensated,
    so the returned value there is the right-sided limit F(0+), the boundary
    value the Marchenko equation needs.
    """
    h = np.asarray(h, dtype=complex)
    k = np.asarray(kgrid.nodes if hasattr(kgrid, "nodes") else kgrid, dtype=float)
    if h.shape != k.shape:
        raise GridError("h samples must match the momentum grid")
    dk = k[1] - k[0]
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    w = quadrature_weights(k.size, dk)
    if not tail_correction:
        w = w * _taper_window(k.size)
    vals = _oscillatory_sum(w * h, k, xs, +1.0) / (2 * np.pi)
    if tail_correction:
        # h ~ i*gamma/k + c2/k^2 beyond the grid; add the missing tail of
        # both terms in closed form (gamma and c2 from the endpoint samples)
        k_max = float(k[-1])
        gamma = 0.5 * float(np.imag(k[-1] * h[-1]) + np.imag(k[0] * h[0]))
        c2 = 0.5 * float(np.real(k[-1] ** 2 * h[-1]) + np.real(k[0] ** 2 * h[0]))
        ax = np.abs(xs)
        si_rest = np.pi / 2 - sine_integral(k_max * ax)
        tail1 = -(gamma / np.pi) * np.sign(xs) * si_rest
        tail2 = (c2 / np.pi) * (np.cos(k_max * ax) / k_max - ax * si_rest)
        vals = vals + tail1 + tail2
        at_zero = xs == 0.0
        if np.any(at_zero):
            # restore the right-sided limit at the jump node: F(0+) equals
            # the reconstructed midpoint plus half the jump, which is -gamma
            vals = np.where(at_zero, vals - gamma / 2.0, vals)
    resid = np.abs(vals.imag)
    value = vals.real
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(value[0]), float(resid[0])
    return value, resid


def fourier_space_to_kernel(fs: np.ndarray, xgrid, k) -> np.ndarray:
    """Integral of F_s(x) e^{-ikx} dx over the sample window, i.e. the
    approximation to 1 - S(k).  F_s must decay at the window ends; k is one
    momentum or a uniform grid (GridError otherwise), all momenta from one
    chirp-z transform."""
    fs = np.asarray(fs, dtype=float)
    nodes = np.asarray(xgrid.nodes if hasattr(xgrid, "nodes") else xgrid, dtype=float)
    if fs.shape != nodes.shape:
        raise GridError("F_s samples must match the grid")
    dx = nodes[1] - nodes[0]
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    w = quadrature_weights(nodes.size, dx)
    out = _oscillatory_sum(w * fs, nodes, ks, -1.0)
    if np.isscalar(k) or np.asarray(k).ndim == 0:
        return complex(out[0])
    return out


# ---------------------------------------------------------------------------
# backward Volterra marching


def solve_volterra_backward(a: np.ndarray, g: np.ndarray, dx: float, rule: str = "trapezoid") -> np.ndarray:
    """Solve h(p) + int_p^end a(t - p) h(t) dt = -g(p) by backward marching.

    The kernel depends on t - p only and is sampled by offset on the grid
    of spacing dx, a[j] = a(j dx), as many samples as g (only t >= p is
    ever read).  The recursion starts at the far end, where the integral
    term is empty.
    """
    a = np.asarray(a, dtype=float)
    g = np.asarray(g, dtype=float)
    if a.shape != g.shape:
        raise GridError("kernel and rhs samples must have the same length")
    n = g.size
    h = np.empty(n)
    h[-1] = -g[-1]
    for i in range(n - 2, -1, -1):
        krow = a[: n - i]
        w = quadrature_weights(n - i, dx, rule)
        acc = float(np.dot(w[1:] * krow[1:], h[i + 1 :]))
        denom = 1.0 + w[0] * krow[0]
        if abs(denom) < 1e-14:
            raise SolverError(f"Volterra marching broke down at node {i}")
        h[i] = (-g[i] - acc) / denom
    return h


# ---------------------------------------------------------------------------
# roots, winding numbers, phase continuation


def find_roots(
    g: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Roots of g on the brackets [a_i, b_i] by bisection with secant
    refinement, all brackets at once.

    g is vectorized: it maps an array of points to the array of values and
    is called once per step for every bracket not yet converged (once more
    at the start, for all bracket ends).  Each bracket follows the iterates
    of a scalar run: it needs a sign change and stops when |g| <= tol or it
    is at rounding width.  Raises DataError for a bracket without a sign
    change, and SolverError when max_iter runs out or when a bracket
    collapses while |g| at both its ends is still above 1e-6 max(|g(a)|,
    |g(b)|): that is a jump of g, not a root.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = a.size
    if n == 0:
        return np.empty(0)
    fab = np.asarray(g(np.concatenate([a, b])), dtype=float)
    fa, fb = fab[:n], fab[n:]
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
    for _ in range(max_iter):
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
        raise SolverError(f"root finder did not converge in {max_iter} iterations on [{a[i]}, {b[i]}]")
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

    The nodes must be uniformly spaced (spacing dk).  Singularity
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
    if tail_coeff is not None and abs(t[0] + t[-1]) > 1e-9 * max(abs(t[-1]), 1.0):
        raise GridError("the analytic tail term needs a grid symmetric about 0")
    n = t.size
    dt = t[1] - t[0]
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

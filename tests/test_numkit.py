import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from halfline.characterize import _taper_window
from halfline.errors import DataError, GridError, PhaseUnwrapError, SolverError
from halfline.model import MomentumGrid, UniformGrid
from halfline import numkit as nk


# ---------------------------------------------------------------------------
# integrate / differentiate


def test_integrate_linear():
    g = UniformGrid.make(0.0, 1.0, 1e-3)
    assert nk.integrate(g.nodes, g) == pytest.approx(0.5, abs=1e-8)


def test_integrate_exponential_simpson():
    # trapezoid carries an 8.3e-6 Euler-Maclaurin boundary term here, so the
    # stated 1e-6 needs the fourth-order rule
    g = UniformGrid.make(0.0, 40.0, 1e-2)
    x = g.nodes
    assert nk.integrate(np.exp(-x), g, "simpson") == pytest.approx(1.0, abs=1e-6)
    assert nk.integrate(x * np.exp(-x), g, "simpson") == pytest.approx(1.0, abs=1e-5)


def test_integrate_length_mismatch():
    with pytest.raises(GridError):
        nk.integrate(np.ones(5), UniformGrid(np.linspace(0, 1, 6)))


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    c=st.floats(-3, 3),
    d=st.floats(-3, 3),
)
def test_integrate_exactness_properties(a, b, c, d):
    # trapezoid exact for degree <= 1, Simpson for degree <= 3, and both
    # linear in the integrand
    g = UniformGrid(np.linspace(0.0, 2.0, 41))
    x = g.nodes
    lin = a * x + b
    assert nk.integrate(lin, g) == pytest.approx(2 * a + 2 * b, abs=1e-10)
    cub = a * x**3 + b * x**2 + c * x + d
    exact = 4 * a + 8 * b / 3 + 2 * c + 2 * d
    assert nk.integrate(cub, g, "simpson") == pytest.approx(exact, abs=1e-9)
    two = nk.integrate(lin + cub, g, "simpson")
    assert two == pytest.approx(nk.integrate(lin, g, "simpson") + nk.integrate(cub, g, "simpson"), abs=1e-9)


def test_quadrature_weights_positive_sum():
    for rule in ("trapezoid", "simpson"):
        for n in (2, 3, 4, 5, 6, 7, 10, 11):
            w = nk.quadrature_weights(n, 0.1, rule)
            assert np.all(w > 0)
            assert np.sum(w) == pytest.approx(0.1 * (n - 1), rel=1e-12)


def test_differentiate_quadratic():
    x = np.linspace(0.0, 2.0, 201)
    d = nk.differentiate(x**2, x[1] - x[0])
    assert np.max(np.abs(d - 2 * x)) < 1e-10


def test_differentiate_constant_exact():
    d = nk.differentiate(np.full(50, 3.7), 0.01)
    assert np.max(np.abs(d)) == 0.0


def test_differentiate_exponential_at_origin():
    x = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    d = nk.differentiate(np.exp(-2 * x), 1e-3)
    assert d[0] == pytest.approx(-2.0, abs=1e-5)


def test_differentiate_five_point_order():
    x = np.linspace(0.0, 1.0, 101)
    d = nk.differentiate(np.sin(3 * x), x[1] - x[0], stencil=5)
    assert np.max(np.abs(d - 3 * np.cos(3 * x))) < 1e-6


def test_differentiate_needs_three():
    with pytest.raises(GridError):
        nk.differentiate(np.ones(2), 0.1)


def test_unknown_rule_or_stencil_refused():
    # the rule is checked before the node count, so a two-node grid does
    # not fall back to trapezoid weights; a stencil other than 3 or 5 does
    # not fall back to three-point differences
    for n in (1, 2, 3):
        with pytest.raises(DataError, match="rule"):
            nk.quadrature_weights(n, 0.1, "bogus")
    for stencil in (1, 4, 7):
        with pytest.raises(DataError, match="stencil"):
            nk.differentiate(np.ones(10), 0.1, stencil=stencil)


# ---------------------------------------------------------------------------
# Fourier integrals


def test_fourier_kernel_to_space_zero():
    kg = MomentumGrid.make(10.0, 0.1)
    v, r = nk.fourier_kernel_to_space(np.zeros(kg.n, complex), kg, UniformGrid.make(-1.0, 1.0, 0.5))
    assert np.all(v == 0.0) and np.all(r == 0.0)


def test_fourier_kernel_to_space_residue_oracle():
    # h = -2i/(k-i) has a single pole at k = i; closing up for x > 0 gives
    # 2 e^{-x}, and no poles below the axis gives 0 for x < 0
    kg = MomentumGrid.make(200.0, 0.01)
    h = -2j / (kg.nodes - 1j)
    (v_minus, _, v_plus), _ = nk.fourier_kernel_to_space(h, kg, UniformGrid.make(-1.0, 1.0, 1.0))
    assert v_plus == pytest.approx(2 * np.exp(-1.0), abs=1e-3)
    assert v_minus == pytest.approx(0.0, abs=1e-3)


def test_fourier_kernel_tail_correction():
    kg = MomentumGrid.make(200.0, 0.01)
    h = -2j / (kg.nodes - 1j)
    (v0, v), _ = nk.fourier_kernel_to_space(h, kg, UniformGrid.make(0.0, 1.0, 1.0))
    assert v == pytest.approx(2 * np.exp(-1.0), abs=5e-5)
    # the x = 0 node returns the right-sided limit F(0+) = 2
    assert v0 == pytest.approx(2.0, abs=1e-3)


def test_fourier_transforms_are_inverse_pair():
    kg = MomentumGrid.make(200.0, 0.01)
    # windowed h: zero at both grid ends, so no tail term puts F(0+) at the
    # x = 0 node, which the two-sided trapezoid sum below would misread
    h = -2j / (kg.nodes - 1j) * _taper_window(kg.n)
    xg = UniformGrid.make(-12.0, 40.0, 0.005)
    fs, _ = nk.fourier_kernel_to_space(h, kg, xg)
    ks = UniformGrid.make(0.5, 5.0, 0.5)
    # the inverse transform, int F(x) e^{-ikx} dx, as a direct trapezoid sum
    back = np.exp(-1j * np.outer(ks.nodes, xg.nodes)) @ (nk.quadrature_weights(xg.n, xg.dx) * fs)
    assert np.max(np.abs(back - (-2j / (ks.nodes - 1j)))) < 2e-4


def _oscillatory_direct(weighted, nodes, points):
    """Reference for the chirp-z _oscillatory_sum: the full phase matrix."""
    return np.exp(1j * np.outer(points, nodes)) @ weighted


@pytest.mark.parametrize(
    "n, m, x0, dx, p0, dp",
    [
        (101, 7, 0.3, 0.1, -1.1, 0.5),  # odd n, fewer points than nodes
        (100, 1000, -1.5, 0.05, 2.0, 0.01),  # even n and m, more points
        (2000, 1, -3.0, 0.01, 0.7, 0.0),  # a single point
        (40001, 5001, -200.0, 0.01, -20.0, 0.02),  # the default momentum grid to x
    ],
)
def test_oscillatory_sum_matches_direct_sum(n, m, x0, dx, p0, dp):
    rng = np.random.default_rng(n + m)
    nodes = x0 + dx * np.arange(n)
    points = p0 + dp * np.arange(m)
    weighted = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = nk._oscillatory_sum(weighted, nodes, dx, points, dp)
    # every 25th point of the large case: the reference costs n m exponentials
    every = max(1, m // 200)
    ref = _oscillatory_direct(weighted, nodes, points[::every])
    assert np.max(np.abs(got[::every] - ref)) <= 1e-9 * np.sum(np.abs(weighted))


def test_fourier_sums_refuse_nonuniform_grids():
    # the sum takes grid objects, so non-uniform nodes are refused before
    # they can reach the chirp-z transform
    kg = MomentumGrid.make(10.0, 0.1)
    with pytest.raises(GridError, match="uniform"):
        nk.fourier_kernel_to_space(-2j / (kg.nodes - 1j), kg, UniformGrid(np.array([0.5, 1.0, 2.0])))


# ---------------------------------------------------------------------------
# Volterra


def test_volterra_zero_kernel():
    nodes = np.arange(0.0, 10.0 + 1e-9, 0.01)
    g = np.exp(-nodes)
    h = nk.solve_volterra_backward(np.zeros(nodes.size), g, 0.01)
    np.testing.assert_allclose(h, -g, atol=1e-14)


def test_volterra_separable_oracle():
    # kernel A(0, t-p) = -e^{-(t-p)} from the one-soliton-type transformation
    # kernel reproduces F(p) = 2 e^{-p}
    dx = 0.01
    nodes = np.arange(0.0, 40.0 + 1e-9, dx)
    a = -np.exp(-dx * np.arange(nodes.size))
    F = nk.solve_volterra_backward(a, -np.exp(-nodes), dx)
    assert np.max(np.abs(F - 2 * np.exp(-nodes))) < 1e-6


def test_volterra_fourth_order_convergence():
    errs = []
    for dx in (0.02, 0.01):
        nodes = np.arange(0.0, 40.0 + 1e-9, dx)
        a = -np.exp(-dx * np.arange(nodes.size))
        F = nk.solve_volterra_backward(a, -np.exp(-nodes), dx)
        errs.append(np.max(np.abs(F - 2 * np.exp(-nodes))))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)


def _volterra_row_by_row(a, g, dx, rule):
    """Reference march: quadrature_weights built afresh for every row."""
    n = g.size
    h = np.empty(n)
    h[-1] = -g[-1]
    for i in range(n - 2, -1, -1):
        w = nk.quadrature_weights(n - i, dx, rule)
        acc = float(np.dot(w[1:] * a[1 : n - i], h[i + 1 :]))
        h[i] = (-g[i] - acc) / (1.0 + w[0] * a[0])
    return h


# the march's rows are Simpson rows; the reference builds its weights by
# the rule's name
@pytest.mark.parametrize("rule", ["simpson"])
def test_volterra_weights_sliced_from_templates(rule):
    # every row's weights, sliced from the two parity templates, are the
    # row's own quadrature_weights bit for bit, short rows included
    rng = np.random.default_rng(3)
    for n in [*range(2, 13), 1001]:
        a, g = rng.standard_normal(n), rng.standard_normal(n)
        want = _volterra_row_by_row(a, g, 0.037, rule)
        np.testing.assert_array_equal(nk.solve_volterra_backward(a, g, 0.037), want)


def _volterra_first_breakdown(a, n, dx):
    """The node at which the row-by-row march first meets a vanishing pivot
    1 + w_0 a(0), marching from the far end; None if it meets none."""
    for i in range(n - 2, -1, -1):
        if abs(1.0 + nk.quadrature_weights(n - i, dx, "simpson")[0] * a[0]) < 1e-14:
            return i
    return None


# the y = x weight is dx/2 on the row of two nodes, 3dx/8 on the row of
# four and dx/3 on every other row: a(0) = -1/w_0 breaks one row, or all
# the long ones
@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("w0", [1 / 2, 3 / 8, 1 / 3])
def test_volterra_breakdown_names_the_first_node_marched(n, w0):
    dx = 0.25
    a = np.random.default_rng(7).standard_normal(n)
    a[0] = -1.0 / (w0 * dx)
    node = _volterra_first_breakdown(a, n, dx)
    assert node is not None
    with pytest.raises(SolverError, match=f"broke down at node {node}$"):
        nk.solve_volterra_backward(a, np.ones(n), dx)


def test_volterra_refuses_unequal_lengths():
    with pytest.raises(GridError):
        nk.solve_volterra_backward(np.zeros(5), np.zeros(6), 0.1)


# ---------------------------------------------------------------------------
# roots, winding, pv


def test_find_root_linear():
    assert nk.find_roots(lambda x: x - 1.0, 0.0, 2.0, -1.0, 1.0, 1e-10)[0] == pytest.approx(1.0, abs=1e-12)


def test_find_root_cosine():
    assert nk.find_roots(np.cos, 1.0, 2.0, np.cos(1.0), np.cos(2.0), 1e-12)[0] == pytest.approx(np.pi / 2, abs=1e-10)


def test_find_root_transcendental_vs_bisection(well_kappa=None):
    from conftest import well_kappa_oracle

    def g(kappa):
        om = np.sqrt(4.0 - kappa**2)
        return om / np.tan(om) + kappa

    root = nk.find_roots(g, 0.01, 1.99, g(0.01), g(1.99), 1e-14)[0]
    assert root == pytest.approx(well_kappa_oracle(), abs=1e-10)


def test_find_root_requires_bracket():
    with pytest.raises(DataError):
        nk.find_roots(lambda x: x + 10.0, 0.0, 1.0, 10.0, 11.0, 1e-10)


def test_find_root_refuses_jump():
    # a sign change without a zero: the bracket collapses onto the jump
    with pytest.raises(SolverError):
        nk.find_roots(lambda x: np.where(x < 0.3, -1.0, 1.0), 0.0, 1.0, -1.0, 1.0, 1e-10)


def test_find_root_refuses_when_iterations_run_out(monkeypatch):
    monkeypatch.setattr(nk, "MAX_ITER", 3)
    with pytest.raises(SolverError):
        nk.find_roots(np.cos, 1.0, 2.0, np.cos(1.0), np.cos(2.0), 0.0)


def _well_equation(kappa):
    om = np.sqrt(4.0 - kappa**2)
    return om / np.tan(om) + kappa


@pytest.mark.parametrize(
    "g, lo, root, hi", [(np.cos, 0.2, np.pi / 2, 3.0), (_well_equation, 0.01, 0.6380450482852378, 1.99)]
)
@pytest.mark.parametrize("tol", [1e-10, 1e-14, 0.0])
def test_find_roots_matches_scalar_runs(g, lo, root, hi, tol):
    # batching must not change any bracket's iterates: bit-identical roots
    from conftest import find_root_scalar

    rng = np.random.default_rng(7)
    a = rng.uniform(lo, root - 0.01, 20)
    b = rng.uniform(root + 0.01, hi, 20)
    roots = nk.find_roots(g, a, b, g(a), g(b), tol)
    assert np.array_equal(roots, [nk.find_roots(g, x, y, g(x), g(y), tol)[0] for x, y in zip(a, b)])
    assert np.array_equal(roots, [find_root_scalar(g, float(x), float(y), tol) for x, y in zip(a, b)])
    assert np.all(np.abs(g(roots)) <= max(tol, 1e-14))


def test_find_roots_calls_g_once_per_step():
    calls = []

    def g(x):
        calls.append(np.size(x))
        return np.cos(x)

    a, b = np.linspace(0.5, 1.5, 7), np.full(7, 2.5)
    nk.find_roots(g, a, b, np.cos(a), np.cos(b), 1e-12)
    assert len(calls) < 12 and all(0 < c <= 7 for c in calls)


def test_find_roots_exact_zero_at_bracket_end():
    a, b = np.array([1.0, 0.0]), np.array([2.0, 1.0])
    assert np.array_equal(nk.find_roots(lambda x: x - 1.0, a, b, a - 1.0, b - 1.0, 1e-10), [1.0, 1.0])


def test_find_roots_refusals(monkeypatch):
    def step_or_cos(x):
        # a jump at 0.3 on the first bracket, plain roots on the others
        return np.where(x < 0.4, np.where(x < 0.3, -1.0, 1.0), np.cos(x))

    def refused(g, a, b, tol=1e-10):
        a, b = np.array(a), np.array(b)
        return nk.find_roots(g, a, b, g(a), g(b), tol)

    with pytest.raises(SolverError, match="jump"):
        refused(step_or_cos, [0.0, 1.0, 1.2], [0.35, 2.0, 2.5])
    with pytest.raises(DataError):
        refused(np.cos, [1.0, 0.0], [2.0, 1.0])
    assert refused(np.cos, [], []).shape == (0,)
    monkeypatch.setattr(nk, "MAX_ITER", 3)
    with pytest.raises(SolverError, match="did not converge"):
        refused(np.cos, [1.0, 1.1], [2.0, 2.1], tol=0.0)


def test_winding_constant():
    assert nk.winding_number(np.ones(100, dtype=complex)).value == 0


def test_winding_blaschke():
    k = np.linspace(-100.0, 100.0, 8001)
    w = (k - 1j) / (k + 1j)
    res = nk.winding_number(w)
    assert res.value == 1 and res.residual < 0.05


def test_winding_blaschke_squared_inverse():
    k = np.linspace(-100.0, 100.0, 8001)
    s = ((k + 1j) / (k - 1j)) ** 2
    assert nk.winding_number(s).value == -2


def test_winding_refusals():
    with pytest.raises(PhaseUnwrapError):
        nk.winding_number(np.array([1.0, 0.0, 1.0], dtype=complex))
    with pytest.raises(PhaseUnwrapError):
        nk.winding_number(np.array([1.0, -1.0, 1.0], dtype=complex))  # pi jumps
    with pytest.raises(PhaseUnwrapError):
        nk.unwrap_phase(np.array([1.0, np.nan, 1.0], dtype=complex))


@settings(max_examples=25, deadline=None)
@given(amp=st.floats(0.1, 5.0), width=st.floats(0.5, 5.0))
def test_winding_invariant_under_positive_scaling(amp, width):
    k = np.linspace(-50.0, 50.0, 4001)
    path = (k - 1j) / (k + 1j)
    envelope = 1.0 + amp * np.exp(-((k / width) ** 2))
    assert nk.winding_number(path * envelope).value == nk.winding_number(path).value


def _node(t, k0):
    return int(np.argmin(np.abs(t - k0)))


def _pv_direct(phi, t, tail_coeff=None):
    """O(n^2) reference for pv_cauchy_grid: the subtracted-singularity sum
    evaluated node by node, without the Toeplitz structure."""
    n = t.size
    dt = t[1] - t[0]
    w = nk.quadrature_weights(n, dt)
    slope = nk.differentiate(phi, dt, stencil=5)
    K = t[-1]
    out = np.empty(n)
    for i in range(1, n - 1):
        d = t - t[i]
        d[i] = 1.0
        quot = (phi - phi[i]) / d
        quot[i] = slope[i]
        out[i] = w @ quot + phi[i] * np.log((t[-1] - t[i]) / (t[i] - t[0]))
        if tail_coeff is not None:
            k = t[i]
            out[i] += 2 * tail_coeff / K if k == 0.0 else (tail_coeff / k) * np.log(abs((K + k) / (K - k)))
    out[0], out[-1] = out[1], out[-2]
    return out


def test_pv_cauchy_odd_integrand_zero():
    t = np.arange(-200.0, 200.0 + 1e-9, 0.05)
    i0 = _node(t, 0.0)
    assert abs(nk.pv_cauchy_grid(np.ones_like(t), t)[i0]) < 1e-10
    assert abs(nk.pv_cauchy_grid(1.0 / (t**2 + 1.0), t)[i0]) < 1e-8


def test_pv_cauchy_analytic_oracle():
    # oracle: the analytic value of the truncated integral is 2*atan(k_max),
    # which sits 0.01 below the full-line value pi at k_max = 200
    t = np.arange(-200.0, 200.0 + 1e-9, 0.05)
    phi = t / (t**2 + 1.0)
    assert nk.pv_cauchy_grid(phi, t)[_node(t, 0.0)] == pytest.approx(2 * np.arctan(200.0), abs=1e-4)


def test_pv_cauchy_against_scipy_quad():
    # independent oracle: scipy's Cauchy-weighted quadrature on the same
    # truncated window, at grid nodes
    t = np.arange(-50.0, 50.0 + 1e-9, 0.02)
    phi_fn = lambda u: u / (u**2 + 4.0) + np.exp(-(u**2) / 30.0)
    grid = nk.pv_cauchy_grid(phi_fn(t), t)
    for k0 in (0.0, 1.3, -7.24):
        i = _node(t, k0)
        ref, _ = quad(phi_fn, t[0], t[-1], weight="cauchy", wvar=t[i], limit=400)
        assert grid[i] == pytest.approx(ref, abs=5e-7)


def test_pv_cauchy_upper_halfplane_identity():
    # phi(t) = 1/(t - 2i) decays and is analytic below the axis, so the
    # full-line principal value equals -i pi phi(k0); on the truncated
    # window the tails contribute O(1/k_max)
    t = np.arange(-2000.0, 2000.0 + 1e-9, 0.05)
    phi = 1.0 / (t - 2j)
    got = nk.pv_cauchy_grid(phi.real, t) + 1j * nk.pv_cauchy_grid(phi.imag, t)
    for k0 in (0.0, 3.0):
        ref = -1j * np.pi / (k0 - 2j)
        assert abs(got[_node(t, k0)] - ref) < 2e-3


def test_pv_cauchy_grid_shape_mismatch():
    t = np.linspace(-1.0, 1.0, 101)
    with pytest.raises(GridError):
        nk.pv_cauchy_grid(np.ones(100), t)


def test_pv_cauchy_grid_matches_pointwise():
    # the FFT convolution against the node-by-node sum: odd and even node
    # counts, a grid not centred at 0, and O(1/t) tails with and without the
    # analytic tail term (solve_riemann passes such a phi with tail_coeff)
    centred = lambda n, dt: dt * (np.arange(n) - (n - 1) / 2)
    bump = lambda u: np.exp(-((u - 5.0) ** 2) / 20.0) * np.cos(u)
    slow = lambda u: u / (u**2 + 4.0) + np.sin(u) * np.exp(-(u**2) / 8.0)
    cases = [
        (centred(2001, 0.05), bump, False),
        (centred(4000, 0.02), slow, True),
        (centred(4001, 0.02), slow, False),
        (-10.0 + 0.02 * np.arange(4001), bump, False),
        (centred(3001, 0.05), lambda u: 2 * u / (u**2 + 1.0) + np.exp(-(u**2)), True),
    ]
    for t, phi_fn, with_tail in cases:
        phi = phi_fn(t)
        c = 0.5 * (phi[-1] * t[-1] + phi[0] * t[0]) if with_tail else None
        got = nk.pv_cauchy_grid(phi, t, tail_coeff=c)
        ref = _pv_direct(phi, t, tail_coeff=c)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(phi))


def test_pv_cauchy_grid_refuses_nonuniform_nodes():
    # graded nodes t = sign(u)|u|^1.5/sqrt(10) on [-10, 10]: the subtraction
    # formula assumes one spacing and returned -1.828 at k ~ 1 against the
    # principal value -1.572, so the nodes are refused
    u = np.linspace(-10.0, 10.0, 2001)
    t = np.sign(u) * np.abs(u) ** 1.5 / np.sqrt(10.0)
    with pytest.raises(GridError, match="uniform"):
        nk.pv_cauchy_grid(1.0 / (t**2 + 1.0), t)


def test_pv_cauchy_grid_tail_needs_symmetric_grid():
    # the analytic tail term assumes |t| > t_max on both sides; on [-10, 70]
    # it would add the wrong tail, so it is refused
    t = np.round(np.arange(-10.0, 70.0 + 1e-9, 0.01), 10)
    with pytest.raises(GridError):
        nk.pv_cauchy_grid(t / (t**2 + 1.0), t, tail_coeff=1.0)


def test_sine_integral_accuracy():
    from scipy.special import sici

    z = np.array([0.0, 0.5, 3.0, 8.0, 15.0, 19.9, 20.1, 50.0, 300.0])
    ref = sici(z)[0]
    assert np.max(np.abs(nk.sine_integral(z) - ref)) < 1e-7

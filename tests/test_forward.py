import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import kernel_fill_by_diagonals, sech2_jost_exact, square_well_jost_oracle, well_kappa_oracle
from halfline.errors import DataError, SolverError
from halfline import forward as fw
from halfline.marchenko import data_from_kernel
from halfline.model import MomentumGrid, Potential, RadialGrid, ScatteringData
from halfline.numkit import integrate, quadrature_weights, winding_number
from halfline.potentials import sech2_potential, square_well_potential, zero_potential


# ---------------------------------------------------------------------------
# jost_field


def test_jost_free_is_plane_wave(q_zero):
    f_xk, fp0 = fw.jost_field(q_zero, [1.0])
    np.testing.assert_allclose(f_xk[:, 0], np.exp(1j * q_zero.grid.nodes), atol=1e-14)
    assert fp0[0] == pytest.approx(1j, abs=1e-14)


def test_jost_sech2_closed_form(q_sech2):
    # k = 0 is the same march: f(x,0) = tanh x and f'(0,0) = 1
    f_xk, fp0 = fw.jost_field(q_sech2, [1.0, 0.0])
    for j, k in enumerate([1.0, 0.0]):
        f_x = f_xk[:, j]
        ref = sech2_jost_exact(q_sech2.grid.nodes, k)
        assert np.max(np.abs(f_x - ref)) < 1e-4
        assert abs(f_x[0] - k / (k + 1j)) < 1e-4
        # f'(0,k) of the closed form: i(k^2+1)/(k+i), i(1-i) at k = 1
        assert abs(fp0[j] - 1j * (k * k + 1.0) / (k + 1j)) < 1e-4


def test_jost_square_well_matching_oracle():
    # q vanishes beyond the well exactly, so a short fine grid meets the
    # 1e-6 two-region matching tolerance; at k = 0 the oracle is cos 2 and
    # 2 sin 2
    q = square_well_potential(RadialGrid.make(2.0, 5e-4))
    f_xk, fp0 = fw.jost_field(q, [2.0, 0.0])
    for j, k in enumerate([2.0, 0.0]):
        f_ref, fp_ref = square_well_jost_oracle(k)
        assert abs(f_xk[0, j] - f_ref) < 1e-6
        assert abs(fp0[j] - fp_ref) < 1e-6


def test_jost_continuous_through_zero():
    # |f(0,k) - f(0,0)| / k tends to |fdot(0)| = 0.87; a k = 0 formula of its
    # own, or c = (e2 - 1)/(2ik) formed by cancellation, breaks this at k = 1e-9
    q = square_well_potential(RadialGrid.make(10.0, 0.01))
    f_xk, _ = fw.jost_field(q, [0.0, 1e-9, 1e-5])
    f0 = f_xk[0]
    slope = np.abs(f0[1:] - f0[0]) / np.array([1e-9, 1e-5])
    assert slope[1] == pytest.approx(0.87, abs=0.01)
    assert slope[0] == pytest.approx(slope[1], rel=0.01)


def test_jost_large_imaginary_momentum_finite():
    # kappa dx = 800: e^{2ik dx} underflows and c must not overflow
    q = square_well_potential(RadialGrid.make(10.0, 0.01))
    f_xk, fp0 = fw.jost_field(q, [8e4j])
    assert f_xk[0, 0] == pytest.approx(0.9999751253062787, rel=1e-12)
    assert fp0[0] == pytest.approx(-79997.99002499979, rel=1e-12)


def test_jost_rejects_lower_half_plane(q_sech2):
    with pytest.raises(DataError):
        fw.jost_field(q_sech2, [1.0 - 0.5j])


@pytest.mark.parametrize("k", [np.nan, complex(np.nan, 1.0), complex(0.0, np.inf), np.inf])
def test_jost_rejects_nonfinite_momenta(q_sech2, k):
    # a NaN or infinite momentum would march to NaN f and f'(0)
    with pytest.raises(DataError, match="finite"):
        fw.jost_field(q_sech2, [1.0, k])


@pytest.mark.parametrize("order", ["tree", "loop"])
@pytest.mark.parametrize("shape", [(1, 2), (2, 17), (1, 1, 1)])
def test_jost_rejects_multidimensional_momenta(monkeypatch, q_sech2, order, shape):
    # one march per column: a momentum array of more than one dimension is
    # refused, not broadcast into the field
    if order == "loop":
        monkeypatch.setattr(fw, "NARROW_MARCH", -1)
    with pytest.raises(DataError, match="one-dimensional"):
        fw.jost_field(q_sech2, np.ones(shape))
    with pytest.raises(DataError, match="one-dimensional"):
        fw._march(q_sech2.values, q_sech2.grid.dx, 1j * np.ones(shape))


@pytest.mark.parametrize(
    "make_q",
    [
        lambda: square_well_potential(RadialGrid.make(40.0, 0.01)),
        lambda: _deep_well(),
        lambda: sech2_potential(RadialGrid.make(40.0, 0.01)),
    ],
    ids=["square_well", "deep_well", "sech2"],
)
def test_imaginary_axis_march_is_real(make_q):
    # k = i kappa makes the exponent rate z = 2ik real: those columns march
    # in float64 and agree with the same columns of a complex march (one
    # real momentum added makes the march complex)
    q = make_q()
    kap = fw._kappa_scan(np.max(np.abs(q.values)))
    f0, fp0, field = fw._march(q.values, q.grid.dx, 1j * kap, keep_field=True)
    assert f0.dtype == fp0.dtype == field.dtype == np.float64
    f0c, fp0c, fieldc = fw._march(q.values, q.grid.dx, np.concatenate([[1.0], 1j * kap]), keep_field=True)
    assert fieldc.dtype == np.complex128
    f0c, fp0c, fieldc = f0c[1:], fp0c[1:], fieldc[:, 1:]
    scale = np.max(np.abs(fieldc), axis=0)
    assert np.max(np.abs(field - fieldc) / scale) <= 1e-13
    assert np.max(np.abs(f0 - f0c) / scale) <= 1e-13
    assert np.max(np.abs(fp0 - fp0c) / np.maximum(np.abs(fp0c), kap * scale)) <= 1e-13


def test_jost_values_are_complex_on_the_imaginary_axis(q_well):
    # the real-arithmetic march is internal: the public arrays stay complex
    for ks in ([0.5j, 1.5j], [0.0]):
        f_xk, fp0 = fw.jost_field(q_well, ks)
        assert f_xk.dtype == fp0.dtype == np.complex128
    f0, fp0 = fw.jost_boundary(q_well, MomentumGrid.make(1.0, 0.5))
    assert f0.dtype == fp0.dtype == np.complex128


# ---------------------------------------------------------------------------
# jost_boundary


def test_boundary_free(q_zero):
    kg = MomentumGrid.make(20.0, 0.05)
    f0, fp0 = fw.jost_boundary(q_zero, kg)
    np.testing.assert_allclose(f0, 1.0, atol=1e-14)
    np.testing.assert_allclose(fp0, 1j * kg.nodes, atol=1e-14)


def test_boundary_sech2_uniform(q_sech2):
    kg = MomentumGrid.make(20.0, 0.05)
    f0, _ = fw.jost_boundary(q_sech2, kg)
    ref = kg.nodes / (kg.nodes + 1j)
    assert np.max(np.abs(f0 - ref)) < 1e-4


def test_boundary_reality_symmetry(q_well):
    kg = MomentumGrid.make(20.0, 0.05)
    f0, _ = fw.jost_boundary(q_well, kg)
    np.testing.assert_allclose(f0[::-1], np.conj(f0), atol=1e-14)


def test_boundary_large_k_tail(q_well):
    # |f(k_max) - 1| <= c/k_max from the transformation-operator form;
    # c tracks |A(0,.)| whose scale is the half integral of q
    kg = MomentumGrid.make(200.0, 0.05)
    f0, _ = fw.jost_boundary(q_well, kg)
    assert abs(f0[-1] - 1.0) <= 3.0 / kg.k_max


def test_rounded_centre_node_is_k_zero():
    # arange leaves the centre node at -2.8e-16; the grid flags it as k = 0,
    # and every half-grid reflection must treat it so
    k = np.arange(-0.3, 0.315, 0.03)
    kg, kr = MomentumGrid(k), MomentumGrid(np.round(k, 12))
    assert kg.zero_index == kr.zero_index == 10 and kg.nodes[10] < 0
    q = square_well_potential(RadialGrid.make(10.0, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f0, fp0 = fw.jost_boundary(q, kg)
        for a, b in zip((f0, fp0), fw.jost_boundary(q, kr)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        sg, sr = fw.s_matrix(q, kg), fw.s_matrix(q, kr)
        np.testing.assert_allclose(sg.s_values, sr.s_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fw.phase_shift(sg), fw.phase_shift(sr), rtol=0, atol=1e-12)
        kernel = fw.kernel_from_potential(q)
        dg, dr = data_from_kernel(kernel, kg), data_from_kernel(kernel, kr)
        np.testing.assert_allclose(dg.s_values, dr.s_values, rtol=0, atol=1e-12)
    assert f0[10] == pytest.approx(np.cos(2.0), abs=1e-3)


def test_jost_field_tail(q_sech2):
    kg = MomentumGrid.make(20.0, 0.5)
    f_xk, _ = fw.jost_field(q_sech2, kg.nodes)
    x = q_sech2.grid.nodes
    dev = np.abs(f_xk[:, -1] - np.exp(1j * kg.k_max * x))
    assert np.max(dev) < 2.0 / kg.k_max


def test_jost_field_boundary_equals_jost_boundary(q_well):
    # one march per column: the field's x = 0 row and derivatives are the
    # boundary values themselves, for real and imaginary momenta alike
    kg = MomentumGrid.make(20.0, 0.5)
    f0, fp0 = fw.jost_boundary(q_well, kg)
    f_xk, fp = fw.jost_field(q_well, kg.nodes)
    pos = kg.nodes >= 0
    np.testing.assert_array_equal(f_xk[0, pos], f0[pos])
    np.testing.assert_array_equal(fp[pos], fp0[pos])
    f_imag, _ = fw.jost_field(q_well, 1j * np.array([0.5, 1.5]))
    np.testing.assert_array_equal(f_imag[0].real, fw._f0_imag_axis(q_well, np.array([0.5, 1.5])))


# ---------------------------------------------------------------------------
# the two evaluation orders of _march: node by node (wide) and tree (narrow)


def _short_support(nodes: int) -> Potential:
    """A potential whose first `nodes` samples are its only nonzero ones."""
    grid = RadialGrid.make(1.0, 0.01)
    return Potential(grid=grid, values=np.where(np.arange(grid.n) < nodes, -3.0, 0.0))


_ORDER_POTENTIALS = {
    "unit_well": lambda: square_well_potential(RadialGrid.make(10.0, 0.01)),
    "deep_well": lambda: _deep_well(),
    "sech2": lambda: sech2_potential(RadialGrid.make(40.0, 0.01)),
    "support1": lambda: _short_support(1),
    "support2": lambda: _short_support(2),
    "support3": lambda: _short_support(3),
}
_ORDER_MOMENTA = {
    "imaginary": 1j * np.array([0.05, 0.8, 2.5, 7.5, 40.0]),
    "real": np.array([0.05, 1.0, 4.0, 20.0, 150.0]),
    "zero": np.array([0.0]),
    "mixed": np.array([0.0, 1.5, 2j, 3.0 + 0.5j, 1e-9]),
}


@pytest.mark.parametrize("ks", list(_ORDER_MOMENTA.values()), ids=list(_ORDER_MOMENTA))
@pytest.mark.parametrize("make_q", list(_ORDER_POTENTIALS.values()), ids=list(_ORDER_POTENTIALS))
def test_tree_order_matches_loop_order(monkeypatch, make_q, ks):
    # a narrow march composes the nodes' maps in a tree; the same momenta
    # marched node by node agree to rounding, relative to each column's scale
    q = make_q()
    assert ks.size <= fw.NARROW_MARCH
    tree = fw._march(q.values, q.grid.dx, ks, keep_field=True)
    tree_f0 = fw._march(q.values, q.grid.dx, ks)[0]
    monkeypatch.setattr(fw, "NARROW_MARCH", -1)
    f0, fp0, field = fw._march(q.values, q.grid.dx, ks, keep_field=True)
    assert tree[2].dtype == field.dtype
    scale = np.max(np.abs(field), axis=0)
    assert np.max(np.abs(tree[2] - field) / scale) <= 1e-13
    assert np.max(np.abs(tree[0] - f0) / scale) <= 1e-13
    assert np.max(np.abs(tree_f0 - f0) / scale) <= 1e-13
    fp_scale = np.maximum(np.abs(fp0), np.maximum(np.abs(ks), 1.0) * scale)
    assert np.max(np.abs(tree[1] - fp0) / fp_scale) <= 1e-13


@pytest.mark.parametrize("kind", [1j, 1.0], ids=["imaginary", "real"])
def test_tree_order_is_columnwise(kind):
    # a momentum's values do not depend on which others share its narrow
    # march: the batched-equals-one-by-one comparisons stay exact
    q = sech2_potential(RadialGrid.make(20.0, 0.01), depth=6.0)
    ks = kind * np.linspace(0.5, 8.0, fw.NARROW_MARCH)
    f0, fp0, field = fw._march(q.values, q.grid.dx, ks, keep_field=True)
    for j in (0, 7, fw.NARROW_MARCH - 1):
        one = fw._march(q.values, q.grid.dx, ks[j : j + 1], keep_field=True)
        np.testing.assert_array_equal(one[0], f0[j : j + 1])
        np.testing.assert_array_equal(one[1], fp0[j : j + 1])
        np.testing.assert_array_equal(one[2], field[:, j : j + 1])
        # and without a field the march walks the same spine to x = 0
        np.testing.assert_array_equal(fw._march(q.values, q.grid.dx, ks[j : j + 1])[0], f0[j : j + 1])


@pytest.mark.parametrize("order", ["tree", "loop"])
def test_jost_empty_momenta(monkeypatch, q_well, order):
    if order == "loop":
        monkeypatch.setattr(fw, "NARROW_MARCH", -1)
    f_xk, fp0 = fw.jost_field(q_well, [])
    assert f_xk.shape == (q_well.grid.n, 0) and fp0.shape == (0,)
    assert fw._f0_imag_axis(q_well, []).shape == (0,)


def test_tree_order_memory_is_bounded():
    # q without exact zeros on 50001 nodes: a narrow march stacks its maps
    # one TREE_CHUNK of nodes at a time, so its working memory does not grow
    # with the grid (the maps of the whole grid would take 50001 * 16 * 9
    # complex numbers, 115 MB); with a field, beyond the field itself
    grid = RadialGrid.make(50.0, 0.001)
    q = sech2_potential(grid)
    assert fw._support_end(q.values) == grid.n == 50001
    ks = np.linspace(0.5, 8.0, fw.NARROW_MARCH)
    for keep_field in (False, True):
        tracemalloc.start()
        try:
            _, _, field = fw._march(q.values, grid.dx, ks, keep_field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - (field.nbytes if keep_field else 0)
        assert extra < 16e6, (keep_field, peak)


# ---------------------------------------------------------------------------
# support trimming: a march stops one node past q's last nonzero sample


def test_support_end(q_well, q_sech2, q_zero):
    e = int(np.flatnonzero(q_well.values)[-1])
    assert fw._support_end(q_well.values) == e + 2
    assert fw._support_end(q_sech2.values) == q_sech2.grid.n
    assert fw._support_end(q_zero.values) == 1


def _trimmed_results(q):
    scan = fw.find_bound_states(q)
    s, report = fw.norming_constants(q, scan.kappas)
    return {
        "boundary": fw.jost_boundary(q, MomentumGrid.make(20.0, 0.05)),
        "field": fw.jost_field(q, [1.0, 2.5j, 0.0]),
        "scan": (scan.kappas, scan.resonance_suspected, float(fw._f0_imag_axis(q, [0.0])[0])),
        "norming": (s, [sorted(r.items()) for r in report]),
        "kernel": fw.kernel_from_potential(q).values,
    }


# odd and even node counts; the short grid holds the whole support of A
# (x + y <= 2 + 2 dx for the unit well), so its own edge reads only zeros
@pytest.mark.parametrize("x_short, x_long", [(2.5, 40.0), (2.49, 39.99)])
def test_support_trimming_is_exact(monkeypatch, x_short, x_long):
    short = square_well_potential(RadialGrid.make(x_short, 0.01))
    grid = RadialGrid.make(x_long, 0.01)
    padded = Potential(grid=grid, values=np.concatenate([short.values, np.zeros(grid.n - short.grid.n)]))
    assert np.array_equal(grid.nodes[: short.grid.n], short.grid.nodes)
    trimmed = _trimmed_results(padded)
    # the zero padding changes nothing: the marches on both grids stop at the same node
    ref = _trimmed_results(short)
    n = short.grid.n
    for got, want in zip(trimmed["boundary"], ref["boundary"]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(trimmed["field"][0][:n], ref["field"][0])
    np.testing.assert_array_equal(trimmed["field"][1], ref["field"][1])
    assert trimmed["scan"] == ref["scan"]
    # values only: the report's s_norm integrates f^2 over each whole grid
    np.testing.assert_array_equal(trimmed["norming"][0], ref["norming"][0])
    np.testing.assert_array_equal(trimmed["kernel"][:n, :n], ref["kernel"])
    # and marching every node of the padded grid gives the same numbers
    monkeypatch.setattr(fw, "_support_end", lambda q_vals: q_vals.size)
    full = _trimmed_results(padded)
    for key in ("boundary", "field"):
        for got, want in zip(trimmed[key], full[key]):
            np.testing.assert_array_equal(got, want)
    assert trimmed["scan"] == full["scan"]
    np.testing.assert_array_equal(trimmed["norming"][0], full["norming"][0])
    assert trimmed["norming"][1] == full["norming"][1]
    np.testing.assert_array_equal(trimmed["kernel"], full["kernel"])


# ---------------------------------------------------------------------------
# bound states


def test_bound_states_free(q_zero):
    scan = fw.find_bound_states(q_zero)
    assert scan.kappas == ()
    assert not scan.resonance_suspected


def test_bound_states_square_well(q_well):
    scan = fw.find_bound_states(q_well)
    assert len(scan.kappas) == 1
    assert not scan.resonance_suspected
    assert scan.kappas[0] == pytest.approx(well_kappa_oracle(), abs=1e-6)


def test_bound_states_sech2_resonance(q_sech2):
    scan = fw.find_bound_states(q_sech2)
    assert scan.kappas == ()
    assert scan.resonance_suspected
    assert abs(fw._f0_imag_axis(q_sech2, [0.0])[0]) < 1e-3


def test_bound_states_beyond_scan_refused(monkeypatch):
    # the depth-64 well has kappa = 0.83, 5.79 and 7.50, and f(i kappa) < 0
    # between the two deepest: a scan stopping at 6.5 must not drop the
    # deepest state silently
    q = square_well_potential(RadialGrid.make(10.0, 0.005), depth=64.0)
    monkeypatch.setattr(fw, "_kappa_scan", lambda q_max: np.arange(fw.KAPPA_MIN, 6.5 + fw.SCAN_STEP, fw.SCAN_STEP))
    with pytest.raises(SolverError, match="beyond the scan"):
        fw.find_bound_states(q)


# ---------------------------------------------------------------------------
# norming constants


def test_norming_empty(q_zero):
    vals, report = fw.norming_constants(q_zero, [])
    assert vals.size == 0 and report == []


@pytest.mark.parametrize("kappa", [0.0, -0.5, np.nan, np.inf])
def test_norming_rejects_nonpositive_kappa(q_well, kappa):
    # kappa = 0 makes the difference step h = 1e-4 kappa zero (a division
    # by zero), kappa < 0 would march below the axis, nan and inf not at all
    with pytest.raises(DataError, match="kappa"):
        fw.norming_constants(q_well, [1.0, kappa])


def test_norming_cross_check(q_well):
    scan = fw.find_bound_states(q_well)
    vals, report = fw.norming_constants(q_well, scan.kappas)
    assert np.all(vals > 0)
    assert report[0]["rel_diff"] < 1e-4


def _twin_one_by_one(q, root):
    """Reference: one state's 2*dx twin by scalar Newton steps from its dx
    root, each a three-column 2*dx march at kappa, kappa + h and kappa - h;
    nan where _coarse_roots gives up (step cap, zero slope, a step out of
    kappa > 0)."""
    kap = root
    for _ in range(fw._TWIN_STEPS):
        h = 1e-4 * kap
        g, gp, gm = fw._f0_imag_axis(q, np.array([kap, kap + h, kap - h]), step=2)
        if abs(g) <= fw.ROOT_TOL:
            return kap
        slope = (gp - gm) / (2.0 * h)
        if slope == 0.0:
            return np.nan
        kap = kap - g / slope
        if not (np.isfinite(kap) and kap > 0.0):
            return np.nan
    return np.nan


def _bound_states_one_by_one(q, tol=1e-10):
    """Reference: the scan refined state by state, each root by a scalar
    secant on single-kappa dx marches that starts from the scan's g at the
    bracket ends, then on a grid with an odd node count Richardson against
    each state's _twin_one_by_one, with _coarse_roots' two guards: twins
    sharing a scan interval are dropped, and a twin outside its dx root's
    bracket counts only if the 4*dx check confirms a second-order shift."""
    from conftest import find_root_scalar

    kappa_max = float(np.sqrt(np.max(np.abs(q.values)))) * 1.5 + 0.5
    grid = np.arange(1e-3, kappa_max + 0.01, 0.01)
    g = fw._f0_imag_axis(q, grid)
    brackets, kappas = [], []
    for i in range(grid.size - 1):
        if g[i] == 0.0:
            brackets.append(i)
            kappas.append(float(grid[i]))
        elif g[i] * g[i + 1] < 0:
            brackets.append(i)
            kappas.append(
                find_root_scalar(
                    lambda kp: float(fw._f0_imag_axis(q, np.array([kp]))[0]),
                    grid[i],
                    grid[i + 1],
                    tol,
                    fa=g[i],
                    fb=g[i + 1],
                )
            )
    if q.grid.n % 2 == 0:
        return tuple(kappas)
    twins = [_twin_one_by_one(q, root) for root in kappas]
    cells = [int(np.searchsorted(grid, t, side="right")) - 1 for t in twins]
    for j, (i, root, twin, cell) in enumerate(zip(brackets, kappas, twins, cells)):
        if np.isnan(twin) or sum(c == cell for t, c in zip(twins, cells) if not np.isnan(t)) > 1:
            continue
        if cell != i:
            # a moved twin counts only if the 4*dx root sits where second
            # order puts it, at twin + 4 (twin - root)
            d = twin - root
            g4 = fw._f0_imag_axis(q, np.maximum([twin + 3 * d, twin + 5 * d], 0.0), step=4)
            if g4[0] * g4[1] >= 0:
                continue
        kappas[j] = float((4.0 * root - twin) / 3.0)
    return tuple(kappas)


def _deep_well():
    grid = RadialGrid.make(10.0, 0.005)
    return Potential(grid=grid, values=np.where(grid.nodes < 1.0, -64.0, 0.0))


@pytest.mark.parametrize(
    "make_q",
    [
        lambda: square_well_potential(RadialGrid.make(40.0, 0.01)),
        lambda: sech2_potential(RadialGrid.make(20.0, 0.01), depth=6.0),  # kappa = 1
        lambda: sech2_potential(RadialGrid.make(20.0, 0.01), depth=20.0),  # kappa = 1, 3
        _deep_well,
        # midpoint edge sample: every 2*dx root leaves its dx scan bracket
        lambda: square_well_potential(RadialGrid.make(10.0, 0.005), depth=64.0),
    ],
    ids=["square_well", "sech2_depth6", "sech2_depth20", "deep_well", "deep_well_widened"],
)
def test_bound_states_batched_equal_one_by_one(make_q):
    q = make_q()
    scan = fw.find_bound_states(q)
    assert len(scan.kappas) >= 1
    assert scan.kappas == _bound_states_one_by_one(q)


def _well_kappas_exact(depth: float, width: float = 1.0) -> list[float]:
    """Every bound state of the square well: the zeros of
    e^{kappa w} f(0, i kappa) = cos(omega w) + kappa sin(omega w) / omega,
    omega = sqrt(depth - kappa^2), by a fine scan and bisection."""

    def g(kap):
        om = np.sqrt(depth - kap * kap)
        return np.cos(om * width) + kap * np.sin(om * width) / om

    scan = np.linspace(1e-9, np.sqrt(depth) - 1e-9, 20001)
    gv = g(scan)
    roots = []
    for i in np.nonzero(gv[:-1] * gv[1:] < 0)[0]:
        lo, hi = scan[i], scan[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if g(mid) * g(lo) > 0 else (lo, mid)
        roots.append(0.5 * (lo + hi))
    return roots


def test_bound_states_richardson_reaches_every_state():
    # depth 64 at dx 0.005: the O(dx^2) shift moves every 2*dx root out of
    # its dx scan bracket; Newton from the dx roots still finds each twin
    # (the dx roots alone are off by 2.7e-3, 1.0e-4 and 7.1e-5)
    q = square_well_potential(RadialGrid.make(10.0, 0.005), depth=64.0)
    kappas = fw.find_bound_states(q).kappas
    exact = _well_kappas_exact(64.0)
    assert len(kappas) == len(exact) == 3
    for got, want in zip(kappas, exact):
        assert abs(got - want) <= 1e-5 * want


def test_bound_states_order_check_keeps_a_first_order_twin_out():
    # the edge of a width-1.005 well sits at a dx cell midpoint, so only the
    # 2*dx grid sees a first-order jump: its twin leaves the dx bracket, and
    # the 4*dx check must refuse to extrapolate with it (5.5e-3 off if not)
    q = square_well_potential(RadialGrid.make(10.0, 0.01), depth=4.0, width=1.005)
    (kappa,) = fw.find_bound_states(q).kappas
    (exact,) = _well_kappas_exact(4.0, 1.005)
    assert abs(kappa - exact) <= 2e-4 * exact


def test_coarse_roots_newton_gives_up_safely(monkeypatch):
    # below 0.5 the 2*dx g is kappa + 0.1, whose Newton step from 0.305
    # lands at -0.1; above it g = 1 has a zero slope.  Neither may be
    # marched nor divided by: both states get nan without an error or warning
    def fake(q, kp, step=1):
        kp = np.asarray(kp, dtype=float)
        if np.any(kp <= 0.0):
            raise DataError("momenta must satisfy Im k >= 0")
        return np.where(kp < 0.5, kp + 0.1, 1.0)

    monkeypatch.setattr(fw, "_f0_imag_axis", fake)
    grid = np.arange(100) * 0.01
    twins = fw._coarse_roots(None, grid, np.array([30, 70]), np.array([0.305, 0.705]))
    assert np.all(np.isnan(twins))


def test_coarse_roots_share_no_widened_bracket(monkeypatch):
    # two states whose 2*dx twins left their scan brackets [0.40, 0.41] and
    # [0.50, 0.51], both nearest to the one 2*dx sign change in [0.45, 0.46];
    # the 4*dx root sits where a second-order shift of the first puts it
    grid = np.arange(100) * 0.01
    shifted = {2: 0.455, 4: 0.655}
    monkeypatch.setattr(fw, "_f0_imag_axis", lambda q, kp, step=1: np.asarray(kp, dtype=float) - shifted[step])
    one = fw._coarse_roots(None, grid, np.array([40]), np.array([0.405]))
    assert abs(one[0] - 0.455) <= 1e-9
    # shared, the sign change is neither state's twin
    both = fw._coarse_roots(None, grid, np.array([40, 50]), np.array([0.405, 0.505]))
    assert np.all(np.isnan(both))


def test_norming_batched_equal_one_by_one():
    # reference: one single-momentum jost_field and one two-point march
    # per state
    q = _deep_well()
    kappas = fw.find_bound_states(q).kappas
    vals, report = fw.norming_constants(q, kappas)
    for kap, s, rep in zip(kappas, vals, report):
        h = 1e-4 * kap
        f_xk, fprime0 = fw.jost_field(q, [1j * kap])
        gp, gm = fw._f0_imag_axis(q, np.array([kap + h, kap - h]))
        s_ref = (-2j * kap / (-1j * (gp - gm) / (2 * h) * complex(fprime0[0]))).real
        assert s == s_ref
        assert rep["s_norm"] == 1.0 / float(integrate(np.real(f_xk[:, 0]) ** 2, q.grid))


def _record_marches(monkeypatch):
    """The momenta of every _march call, in call order."""
    calls = []
    march = fw._march

    def recording(q_vals, dx, ks, keep_field=False):
        calls.append(np.atleast_1d(ks))
        return march(q_vals, dx, ks, keep_field)

    monkeypatch.setattr(fw, "_march", recording)
    return calls


def test_bound_states_and_norming_batch_the_marches(monkeypatch):
    q = _deep_well()
    calls = _record_marches(monkeypatch)
    scan = fw.find_bound_states(q)
    assert len(scan.kappas) == 3
    # the dx scan, the secant steps, the Newton steps of the 2dx twins and
    # the 4dx check: 8 marches (9 with a 2dx scan, 11 while the root finder
    # re-marched its bracket ends, 24 one state at a time)
    assert len(calls) <= 9
    # g at the bracket ends comes from the scan: after it, no march
    # revisits a scan node
    nodes = fw._kappa_scan(np.max(np.abs(q.values)))
    scans = [c for c in calls if c.size >= nodes.size]
    later = np.concatenate([c for c in calls if c.size < nodes.size])
    assert len(scans) == 1 and not np.any(np.isin(later.imag, nodes))
    calls.clear()
    vals, report = fw.norming_constants(q, scan.kappas)
    assert [c.size for c in calls] == [9]  # kappa_j and kappa_j +- h for all three states
    assert np.all(vals > 0) and max(r["rel_diff"] for r in report) < 1e-3


# ---------------------------------------------------------------------------
# s_matrix / phase shift


def test_s_matrix_free(q_zero, kgrid_coarse):
    sd = fw.s_matrix(q_zero, kgrid_coarse)
    assert np.max(np.abs(sd.s_values - 1.0)) < 1e-12
    assert sd.j_count == 0 and sd.s_at_zero_sign == 1


def test_s_matrix_sech2_closed_form():
    # the 1e-4 uniform comparison needs dx = 0.005 (the relative error near
    # the resonance zero of f scales with the grid error in fdot)
    q = sech2_potential(RadialGrid.make(40.0, 0.005))
    kg = MomentumGrid.make(20.0, 0.05)
    sd = fw.s_matrix(q, kg)
    ref = (kg.nodes + 1j) / (kg.nodes - 1j)
    ref[kg.zero_index] = -1.0
    assert np.max(np.abs(sd.s_values - ref)) < 1e-4
    assert sd.s_at_zero_sign == -1


def test_s_matrix_unimodular(fw_well):
    assert np.max(np.abs(np.abs(fw_well.sd.s_values) - 1.0)) <= 1e-8


def test_phase_shift_free(fw_zero):
    assert np.max(np.abs(fw_zero.delta)) == 0.0


def test_phase_shift_resonance_quarter_turn(fw_sech2):
    # arg S = 2 atan(1/k) for the sech2 profile: delta(0+) - delta(inf) =
    # pi/2, with delta(inf) = 0 the branch anchor and delta(0+) carried by
    # the flagged k = 0 node
    kg = fw_sech2.sd.kgrid
    d = fw_sech2.delta
    assert d[kg.zero_index] == pytest.approx(np.pi / 2, abs=1e-3)
    # and the analytic-sample route gives the same quarter turn
    S = (kg.nodes + 1j) / (kg.nodes - 1j)
    S[kg.zero_index] = -1.0
    sd = ScatteringData(kgrid=kg, s_values=S, s_at_zero_sign=-1)
    d2 = fw.phase_shift(sd)
    assert d2[kg.zero_index] == pytest.approx(np.pi / 2, abs=1e-3)


def test_phase_shift_odd(fw_sech2, fw_well):
    for r in (fw_sech2, fw_well):
        d = r.delta
        zi = r.sd.kgrid.zero_index
        mask = np.ones(d.size, dtype=bool)
        mask[zi] = False  # the node at 0 takes the k -> 0+ branch value
        assert np.max(np.abs((d + d[::-1])[mask])) < 1e-8


def test_forward_index_law(fw_sech2, fw_well, fw_zero):
    # winding(S) = -2J generically, -2J-1 with a zero-energy resonance
    for r, expected in ((fw_zero, 0), (fw_well, -2), (fw_sech2, -1)):
        idx, resid = winding_number(r.sd.s_values)
        assert idx == expected
        assert resid < 0.05


# ---------------------------------------------------------------------------
# kernel_from_potential


def _kernel_fixed_point(q, tol=1e-13, max_iter=60):
    """Reference: fixed-point sweeps of the same product trapezoid rule,
    K = omega + int_xi^inf da int_0^eta db q(a-b) K(a,b), then a row-by-row
    map from K(xi, eta) to A(x, y) with cell-center means at odd parity."""
    qv, dx, n = q.values, q.grid.dx, q.grid.n
    m = (n - 1) // 2 + 1
    omega = np.zeros(n)
    omega[:-1] = 0.5 * np.cumsum((0.5 * dx * (qv[1:] + qv[:-1]))[::-1])[::-1]
    ia, ib = np.arange(n)[:, None], np.arange(m)[None, :]
    qdiff = np.where(ia >= ib, qv[np.clip(ia - ib, 0, n - 1)], 0.0)
    K = np.repeat(omega[:, None], m, axis=1)
    for _ in range(max_iter):
        P = qdiff * K
        C = np.zeros_like(P)
        np.cumsum(0.5 * dx * (P[:, 1:] + P[:, :-1]), axis=1, out=C[:, 1:])
        D = np.zeros_like(C)
        np.cumsum((0.5 * dx * (C[1:] + C[:-1]))[::-1], axis=0, out=D[:-1][::-1])
        K_new = omega[:, None] + D
        diff = np.max(np.abs(K_new - K))
        K = K_new
        if diff < tol:
            break
    else:
        raise AssertionError("reference sweeps did not converge")
    A = np.zeros((n, n))
    for i in range(n):
        j = np.arange(i, n)
        p, r = (i + j) // 2, (j - i) // 2
        p1, r1 = np.minimum(p + 1, n - 1), np.minimum(r + 1, m - 1)
        mean = 0.25 * (K[p, r] + K[p1, r] + K[p, r1] + K[p1, r1])
        A[i, i:] = np.where((i + j) % 2 == 0, K[p, r], mean)
    return A, K[:, 0]


@pytest.mark.parametrize(
    "q",
    [
        sech2_potential(RadialGrid.make(20.0, 0.05)),  # n = 401
        square_well_potential(RadialGrid.make(20.0, 0.05), depth=16.0),
        # even n with q nonzero up to x_max: A(0, x_max) reads the last eta column
        square_well_potential(RadialGrid.make(9.95, 0.05), depth=1.0, width=30.0),
    ],
    ids=["sech2", "square_well", "even_n_full_support"],
)
def test_kernel_march_matches_fixed_point(q):
    K = fw.kernel_from_potential(q)
    A_ref, diag_ref = _kernel_fixed_point(q)
    assert np.max(np.abs(K.values - A_ref)) <= 1e-10 * np.max(np.abs(A_ref))
    np.testing.assert_array_equal(K.diagonal, diag_ref)


@pytest.mark.parametrize("depth, dx", [(4.0, 0.01), (64.0, 0.005)])
def test_kernel_block_is_the_dense_kernel(monkeypatch, depth, dx):
    # the unit well's last nonzero sample is its edge node e = 1/dx, so A
    # lives on the leading 2e + 4 nodes; marching every node of the grid
    # rebuilds the dense n x n kernel, which must agree bit for bit
    q = square_well_potential(RadialGrid.make(10.0, dx), depth=depth)
    K = fw.kernel_from_potential(q)
    nb = 2 * int(round(1.0 / dx)) + 4
    assert K.block.shape == (nb, nb)
    monkeypatch.setattr(fw, "_support_end", lambda q_vals: q_vals.size)
    dense = fw.kernel_from_potential(q)
    assert dense.block.shape == (q.grid.n, q.grid.n)
    assert np.array_equal(K.values, dense.block)
    assert np.array_equal(K.diagonal, dense.diagonal)


@pytest.mark.parametrize("nb", [*range(2, 14), 404, 405])
def test_kernel_fill_matches_diagonals(nb):
    # the skewed fill against the per-diagonal reference, on random Goursat
    # arrays of odd and even nb; even nb reaches the clamped cell at A[0, nb-1]
    m = (nb - 1) // 2 + 1
    K = np.zeros((nb + m, m))
    K[:nb] = np.random.default_rng(nb).standard_normal((nb, m))
    np.testing.assert_array_equal(fw._fill_block(K, nb), kernel_fill_by_diagonals(K, nb))


@pytest.mark.parametrize(
    "q, nb",
    [
        (square_well_potential(RadialGrid.make(10.0, 0.01), depth=16.0), 204),  # trimmed: edge node e = 100
        (sech2_potential(RadialGrid.make(9.99, 0.01)), 1000),  # full block, even n
        (sech2_potential(RadialGrid.make(10.0, 0.01)), 1001),  # full block, odd n
        (zero_potential(RadialGrid.make(10.0, 0.01)), 2),  # q = 0: m = 1
    ],
    ids=["trimmed", "full_even", "full_odd", "zero"],
)
def test_kernel_fill_of_the_march(monkeypatch, q, nb):
    # the fill of kernel_from_potential's own Goursat array is the
    # per-diagonal fill bit for bit
    fill_block, seen = fw._fill_block, []
    monkeypatch.setattr(fw, "_fill_block", lambda K, nb: seen.append(K.copy()) or fill_block(K, nb))
    block = fw.kernel_from_potential(q).block
    assert block.shape == (nb, nb) and len(seen) == 1
    np.testing.assert_array_equal(block, kernel_fill_by_diagonals(seen[0], nb))


def test_kernel_keeps_the_filled_block(monkeypatch):
    # the block _fill_block returns is the kernel's own, read-only, not a copy
    fill_block, filled = fw._fill_block, []
    monkeypatch.setattr(fw, "_fill_block", lambda K, nb: filled.append(fill_block(K, nb)) or filled[-1])
    block = fw.kernel_from_potential(square_well_potential(RadialGrid.make(10.0, 0.01), depth=16.0)).block
    assert len(filled) == 1 and np.shares_memory(block, filled[0])
    assert not block.flags.writeable


def test_kernel_sech2_second_order():
    # A(x,y) = -2 e^{-(x+y)} / (1 + e^{-2x}) for y >= x; halving dx must
    # quarter the sup error of the product trapezoid march
    errs = []
    for dx in (0.02, 0.01):
        q = sech2_potential(RadialGrid.make(20.0, dx))
        K = fw.kernel_from_potential(q)
        x = K.grid.nodes[:, None]
        y = K.grid.nodes[None, :]
        ref = np.where(y >= x, -2 * np.exp(-(x + y)) / (1 + np.exp(-2 * x)), 0.0)
        errs.append(np.max(np.abs(K.values - ref)))
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_kernel_refuses_nonpositive_pivot():
    # 1 - (dx^2/4) q <= 0: the march cannot divide through
    grid = RadialGrid.make(5.0, 0.5)
    with pytest.raises(SolverError):
        fw.kernel_from_potential(Potential(grid=grid, values=np.full(grid.n, 20.0)))


def test_kernel_free(q_zero):
    K = fw.kernel_from_potential(q_zero)
    assert np.max(np.abs(K.values)) == 0.0


@pytest.fixture(scope="module")
def sech2_kernel():
    q = sech2_potential(RadialGrid.make(30.0, 0.01))
    return q, fw.kernel_from_potential(q)


def test_kernel_sech2_origin(sech2_kernel):
    _, K = sech2_kernel
    assert K.diagonal[0] == pytest.approx(-1.0, abs=1e-4)


def test_kernel_sech2_closed_form(sech2_kernel):
    _, K = sech2_kernel
    x = K.grid.nodes[::25][:, None]
    y = K.grid.nodes[None, ::25]
    ref = np.where(y >= x, -2 * np.exp(-(x + y)) / (1 + np.exp(-2 * x)), 0.0)
    assert np.max(np.abs(K.values[::25, ::25] - ref)) < 1e-4


def test_kernel_diagonal_identity(sech2_kernel):
    # A(x,x) = (1/2) int_x^inf q dt, testable against direct quadrature
    q, K = sech2_kernel
    for i in range(0, K.grid.n, 250):
        tail = float(np.trapezoid(q.values[i:], dx=q.grid.dx))
        assert K.diagonal[i] == pytest.approx(0.5 * tail, abs=1e-8)


def test_kernel_estimate_ratio(sech2_kernel):
    # |A(x,y)| <= c * int_{(x+y)/2}^inf |q|; the ratio stays modest
    q, K = sech2_kernel
    dx = q.grid.dx
    absq_tail = np.concatenate([((np.abs(q.values[1:]) + np.abs(q.values[:-1])) * dx / 2)[::-1].cumsum()[::-1], [0.0]])
    n = K.grid.n
    A = K.values
    worst = 0.0
    for i in range(0, n, 100):
        for j in range(i, n, 100):
            z = min(n - 1, (i + j) // 2)
            denom = absq_tail[z]
            if denom > 1e-12:
                worst = max(worst, abs(A[i, j]) / denom)
    assert worst < 10.0


def test_kernel_fourier_consistency(sech2_kernel):
    # 1 + int_0^inf A(0,y) e^{iky} dy reproduces the Jost boundary value
    _, K = sech2_kernel
    y = K.grid.nodes
    w = quadrature_weights(y.size, K.grid.dx)
    ks = np.linspace(-10.0, 10.0, 41)
    f = 1.0 + np.exp(1j * np.outer(ks, y)) @ (w * K.row(0))
    ref = ks / (ks + 1j)
    assert np.max(np.abs(f - ref)) < 1e-4


def test_forward_refuses_data_that_fail_the_characterization(monkeypatch, q_zero, kgrid_coarse):
    # |S| = 2 breaks unitarity; forward checks its own output with the
    # characterization at 1e-8 and names the failed condition
    def doubled(q, kgrid, f0):
        return ScatteringData(kgrid=kgrid, s_values=np.full(kgrid.n, 2.0 + 0.0j))

    monkeypatch.setattr(fw, "_scattering_data", doubled)
    with pytest.raises(SolverError, match="symmetry_unitarity"):
        fw.forward(q_zero, kgrid_coarse)


def test_forward_exact_zero_at_origin_is_not_divided():
    # the depth-4 well on [0, 1) sampled at dx 0.5 without an edge midpoint:
    # the march gives f(0) = 0 exactly, and S(0) takes the resonance sign
    # without a 0/0 division (which would warn)
    x = 0.5 * np.arange(21)
    q = Potential(grid=RadialGrid(x), values=np.where(x < 1.0, -4.0, 0.0))
    res = fw.forward(q)
    zi = res.sd.kgrid.zero_index
    assert res.f0[zi] == 0.0
    assert res.sd.s_at_zero_sign == -1 and res.sd.s_values[zi] == -1.0


def test_forward_refuses_an_unresolved_potential_before_marching(monkeypatch):
    # dx sqrt(max|q|) = 1e98 is far past the sampling limit pi: the scan
    # would need 1.5e102 nodes, and a march would overflow
    q = square_well_potential(RadialGrid.make(10.0, 0.01), depth=1e200)

    def no_march(*args, **kwargs):
        raise AssertionError("forward marched an unresolved potential")

    monkeypatch.setattr(fw, "_march", no_march)
    with pytest.raises(SolverError, match="does not resolve"):
        fw.forward(q)
    for stage in (fw.find_bound_states, lambda q: fw.s_matrix(q, MomentumGrid.make(20.0, 0.05))):
        with pytest.raises(SolverError, match="does not resolve"):
            stage(q)


@pytest.mark.parametrize("entry", ["jost_field", "norming_constants", "kernel_from_potential"])
def test_public_entry_points_refuse_an_unresolved_potential(entry):
    # the depth-1e200 well at dx 0.01 is refused before any arithmetic:
    # unchecked, the marches overflow in matmul and the kernel in a divide
    q = square_well_potential(RadialGrid.make(10.0, 0.01), depth=1e200)
    call = {
        "jost_field": lambda: fw.jost_field(q, [1.0]),
        "norming_constants": lambda: fw.norming_constants(q, [1.0]),
        "kernel_from_potential": lambda: fw.kernel_from_potential(q),
    }[entry]
    with pytest.raises(SolverError, match="does not resolve"):
        call()


def test_forward_result_bundle(fw_well):
    assert fw_well.sd.j_count == 1
    assert fw_well.f0.shape == fw_well.sd.kgrid.nodes.shape
    assert fw_well.delta.shape == fw_well.sd.kgrid.nodes.shape

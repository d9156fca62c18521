import numpy as np
import pytest

from halfline.errors import DataError, SolverError, StageError, StrippingError
from halfline import forward as fw
from halfline import marchenko as mk
from halfline.model import (
    BoundState,
    MarchenkoInput,
    MomentumGrid,
    RadialGrid,
    ScatteringData,
    TransformationKernel,
    UniformGrid,
)
from halfline.numkit import fourier_kernel_to_space
from halfline.potentials import sech2_potential, square_well_potential


def make_input(lo, hi, dx, func):
    g = UniformGrid.make(lo, hi, dx)
    f = func(g.nodes)
    return MarchenkoInput(xgrid=g, f_values=f, fs_values=f, fd_values=np.zeros_like(f))


def soliton_input(dx=0.05, hi=80.0):
    return make_input(0.0, hi, dx, lambda x: 2 * np.exp(-x))


def soliton_kernel_exact(xg: RadialGrid) -> TransformationKernel:
    X = xg.nodes[:, None]
    Y = xg.nodes[None, :]
    A = np.where(Y >= X, -2 * np.exp(-(X + Y)) / (1 + np.exp(-2 * X)), 0.0)
    return TransformationKernel(xgrid=xg, ygrid=xg, values=A, diagonal=np.diagonal(A).copy())


@pytest.fixture(scope="module")
def analytic_sech2_sd():
    kg = MomentumGrid.make(200.0, 0.01)
    s = (kg.nodes + 1j) / (kg.nodes - 1j)
    s[kg.zero_index] = -1.0
    return ScatteringData(kgrid=kg, s_values=s, s_at_zero_sign=-1)


# ---------------------------------------------------------------------------
# build_F


def test_build_F_identity_data(kgrid_fourier):
    sd = ScatteringData(kgrid=kgrid_fourier, s_values=np.ones(kgrid_fourier.n, complex))
    F = mk.build_F(sd, 0.0, 10.0, 0.05)
    assert np.max(np.abs(F.f_values)) < 1e-12


def test_build_F_pure_bound_state(kgrid_fourier):
    sd = ScatteringData(
        kgrid=kgrid_fourier,
        s_values=np.ones(kgrid_fourier.n, complex),
        bound_states=(BoundState(1.0, 2.0),),
    )
    F = mk.build_F(sd, 0.0, 10.0, 0.05)
    np.testing.assert_allclose(F.f_values, 2 * np.exp(-F.xgrid.nodes), atol=1e-12)
    np.testing.assert_allclose(F.fd_values, F.f_values, atol=1e-12)


def test_build_F_residue_oracle(analytic_sech2_sd):
    # 1 - S = -2i/(k-i): single pole at k = i gives F_s = 2 e^{-x} for x > 0
    # and 0 for x < 0; the tapered reconstruction smooths the jump over
    # ~pi/(TAPER_FRAC * k_max), so the pointwise check stays off that band
    F = mk.build_F(analytic_sech2_sd, -6.0, 10.0, 0.01)
    x = F.xgrid.nodes
    ref = np.where(x > 0, 2 * np.exp(-x), 0.0)
    mask = np.abs(x) >= 0.25
    assert np.max(np.abs(F.f_values - ref)[mask]) < 1e-3
    # with the analytic tail correction the transition collapses to the
    # grid scale and the x = 0 node carries the right-sided limit
    F2 = mk.build_F(analytic_sech2_sd, -6.0, 10.0, 0.01, tail_correction=True)
    mask2 = np.abs(x) >= 0.02
    assert np.max(np.abs(F2.f_values - ref)[mask2]) < 1e-3
    assert F2.f_values[np.argmin(np.abs(x))] == pytest.approx(2.0, abs=1e-3)


def test_build_F_rejects_asymmetric(kgrid_fourier):
    s = np.ones(kgrid_fourier.n, complex)
    s += 0.05j * np.exp(-((kgrid_fourier.nodes - 3) ** 2))  # breaks S(-k) = conj S(k)
    sd = ScatteringData(kgrid=kgrid_fourier, s_values=s)
    with pytest.raises(DataError):
        mk.build_F(sd, 0.0, 5.0, 0.05)


# ---------------------------------------------------------------------------
# solve_marchenko


def test_row_zero_F():
    F = make_input(0.0, 40.0, 0.05, lambda x: np.zeros_like(x))
    row = mk.solve_marchenko(F, 1.0)
    assert np.max(np.abs(row)) == 0.0


def test_row_separable_closed_form():
    # F = 2 e^{-p} gives A(x,y) = -2 e^{-(x+y)}/(1 + e^{-2x}); the 1e-6
    # origin tolerance needs the fourth-order rule at dx = 0.025
    F = soliton_input(dx=0.025)
    row0 = mk.solve_marchenko(F, 0.0, y_max=40.0)
    y = np.arange(0.0, 40.0 + 1e-9, 0.025)
    assert abs(row0[0] + 1.0) < 1e-6
    assert np.max(np.abs(row0 + np.exp(-y))) < 1e-6
    row1 = mk.solve_marchenko(F, 1.0, y_max=40.0)
    y1 = np.arange(1.0, 40.0 + 1e-9, 0.025)
    ref1 = -2 * np.exp(-(1.0 + y1)) / (1 + np.exp(-2.0))
    assert np.max(np.abs(row1 - ref1)) < 1e-6


def test_row_two_node_hand_elimination():
    # F = (1, 2, 3) on [0, 2] with dx = 1, x = 0, y_max = 1, trapezoid
    # weights (1/2, 1/2): the row system is
    #   a0 + (F(0) a0 + F(1) a1)/2 = -F(0)  ->  3/2 a0 +     a1 = -1
    #   a1 + (F(1) a0 + F(2) a1)/2 = -F(1)  ->      a0 + 5/2 a1 = -2
    # elimination: a1 = -8/11, a0 = -2/11
    F = make_input(0.0, 2.0, 1.0, lambda x: x + 1.0)
    row = mk.solve_marchenko(F, 0.0, y_max=1.0, rule="trapezoid")
    np.testing.assert_allclose(row, [-2.0 / 11.0, -8.0 / 11.0], rtol=0, atol=1e-14)


def test_row_singular_refused():
    # F = -1 with trapezoid weights summing to 1 makes I + F W annihilate
    # the constant mode exactly
    F = make_input(0.0, 2.0, 0.5, lambda x: -np.ones_like(x))
    with pytest.raises(SolverError):
        mk.solve_marchenko(F, 0.0, y_max=1.0, rule="trapezoid")


def test_row_one_node_pivot():
    # a one-node row is -F(2x)/(1 + dx F(2x)); F = -1/dx zeroes the pivot
    F = make_input(0.0, 2.0, 0.5, lambda x: np.full_like(x, -2.0))
    with pytest.raises(SolverError, match="pivot"):
        mk.solve_marchenko(F, 1.0, y_max=1.0)
    F = make_input(0.0, 2.0, 0.5, lambda x: np.full_like(x, 3.0))
    assert mk.solve_marchenko(F, 1.0, y_max=1.0).tolist() == [-3.0 / (1.0 + 0.5 * 3.0)]


def test_row_grid_refinement_second_order():
    errs = []
    for dx in (0.1, 0.05):
        F = soliton_input(dx=dx)
        row0 = mk.solve_marchenko(F, 0.0, y_max=40.0, rule="trapezoid")
        y = np.arange(0.0, 40.0 + 1e-9, dx)
        errs.append(np.max(np.abs(row0 + np.exp(-y))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# recover_potential


def test_recover_zero_kernel():
    xg = RadialGrid.make(10.0, 0.05)
    K = TransformationKernel(
        xgrid=xg, ygrid=xg, values=np.zeros((xg.n, xg.n)), diagonal=np.zeros(xg.n)
    )
    q = mk.recover_potential(K)
    assert np.max(np.abs(q.values)) == 0.0


def test_recover_separable_kernel():
    xg = RadialGrid.make(40.0, 0.01)
    K = soliton_kernel_exact(xg)
    q = mk.recover_potential(K)
    ref = -2.0 / np.cosh(xg.nodes) ** 2
    assert abs(q.values[0] + 2.0) < 1e-3
    assert np.max(np.abs(q.values - ref)) < 1e-3


def test_recover_self_consistency():
    # the recovered q satisfies A(x,x) = (1/2) int_x^inf q within tolerance
    xg = RadialGrid.make(40.0, 0.01)
    K = soliton_kernel_exact(xg)
    q = mk.recover_potential(K)
    for i in (0, 500, 1500):
        tail = float(np.trapezoid(q.values[i:], dx=xg.dx))
        assert K.diagonal[i] == pytest.approx(0.5 * tail, abs=1e-3)


# ---------------------------------------------------------------------------
# invert


def test_invert_identity_data(kgrid_fourier):
    sd = ScatteringData(kgrid=kgrid_fourier, s_values=np.ones(kgrid_fourier.n, complex))
    q = mk.invert(sd, mk.InversionConfig(x_max=10.0, dx=0.05))
    assert np.max(np.abs(q.values)) < 1e-8


def test_invert_sech2_from_scattering_data(analytic_sech2_sd):
    q = mk.invert(analytic_sech2_sd)
    x = q.grid.nodes
    ref = -2.0 / np.cosh(x) ** 2
    mask = x <= 8.0
    assert np.max(np.abs(q.values - ref)[mask]) <= 5e-3


def test_invert_square_well_roundtrip(fw_well, q_well):
    res = mk.invert_full(fw_well.sd, mk.InversionConfig(dx=0.05))
    q = res.potential
    ref = np.interp(q.grid.nodes, q_well.grid.nodes, q_well.values)
    l1 = np.trapezoid(np.abs(q.values - ref), dx=q.grid.dx)
    assert l1 / np.trapezoid(np.abs(ref), dx=q.grid.dx) <= 0.05


def test_invert_gate_rejects_bad_data(kgrid_fourier):
    sd = ScatteringData(kgrid=kgrid_fourier, s_values=1.01 * np.ones(kgrid_fourier.n, complex))
    with pytest.raises(StageError) as err:
        mk.invert(sd, mk.InversionConfig(x_max=10.0, dx=0.05))
    assert err.value.stage == "characterize"


# ---------------------------------------------------------------------------
# f_from_kernel


def test_f_from_kernel_zero():
    xg = RadialGrid.make(10.0, 0.05)
    K = TransformationKernel(
        xgrid=xg, ygrid=xg, values=np.zeros((xg.n, xg.n)), diagonal=np.zeros(xg.n)
    )
    F = mk.f_from_kernel(K)
    assert np.max(np.abs(F.f_values)) == 0.0


def test_f_from_kernel_separable():
    xg = RadialGrid.make(40.0, 0.025)
    F = mk.f_from_kernel(soliton_kernel_exact(xg))
    assert np.max(np.abs(F.f_values - 2 * np.exp(-xg.nodes))) < 1e-6


def test_f_to_kernel_roundtrip():
    # F -> A (all rows) -> F reproduces the input to solver precision: the
    # two discrete maps are mutual inverses
    Fin = soliton_input(dx=0.05, hi=80.0)
    xg = RadialGrid.make(40.0, 0.05)
    vals = np.zeros((xg.n, xg.n))
    for i, x in enumerate(xg.nodes):
        row = mk.solve_marchenko(Fin, float(x), y_max=40.0)
        vals[i, i : i + row.size] = row
    K = TransformationKernel(xgrid=xg, ygrid=xg, values=vals, diagonal=vals.diagonal().copy())
    Frec = mk.f_from_kernel(K)
    assert np.max(np.abs(Frec.f_values - 2 * np.exp(-xg.nodes))) < 1e-5


# ---------------------------------------------------------------------------
# extract_data_from_F


def test_extract_two_exponentials():
    F = make_input(-12.0, 40.0, 0.01, lambda x: 2 * np.exp(-x) + 3 * np.exp(-2 * x))
    sd = mk.extract_data_from_F(F)
    assert sd.j_count == 2
    (b1, b2) = sd.bound_states
    assert b1.kappa == pytest.approx(1.0, abs=1e-4)
    assert b1.s == pytest.approx(2.0, abs=1e-4)
    assert b2.kappa == pytest.approx(2.0, abs=1e-4)
    assert b2.s == pytest.approx(3.0, abs=1e-4)


def test_extract_zero():
    F = make_input(-12.0, 40.0, 0.01, lambda x: np.zeros_like(x))
    sd = mk.extract_data_from_F(F)
    assert sd.j_count == 0
    assert np.max(np.abs(sd.s_values - 1.0)) < 1e-12


def test_extract_one_sided_exponential():
    def f(x):
        v = np.where(x > 0, 2 * np.exp(-x), 0.0)
        v[np.abs(x) < 1e-12] = 1.0
        return v

    F = make_input(-12.0, 40.0, 0.0025, f)
    sd = mk.extract_data_from_F(F)
    assert sd.j_count == 0
    assert sd.s_at_zero_sign == -1
    k = sd.kgrid.nodes
    ref = (k + 1j) / (k - 1j)
    assert np.max(np.abs(sd.s_values - ref)) < 1e-3


def test_extract_needs_negative_window():
    F = soliton_input()
    with pytest.raises(DataError):
        mk.extract_data_from_F(F)


def test_extract_refuses_near_degenerate():
    F = make_input(-12.0, 40.0, 0.01, lambda x: 2 * np.exp(-x) + 3 * np.exp(-1.004 * x))
    with pytest.raises(StrippingError):
        mk.extract_data_from_F(F, stripping_tol=1e-10)


# ---------------------------------------------------------------------------
# data_from_kernel


def test_data_from_kernel_zero():
    xg = RadialGrid.make(10.0, 0.05)
    K = TransformationKernel(
        xgrid=xg, ygrid=xg, values=np.zeros((xg.n, xg.n)), diagonal=np.zeros(xg.n)
    )
    sd = mk.data_from_kernel(K)
    assert sd.j_count == 0
    assert np.max(np.abs(sd.s_values - 1.0)) < 1e-12


def test_data_from_kernel_separable():
    xg = RadialGrid.make(40.0, 0.01)
    K = soliton_kernel_exact(xg)
    kg = MomentumGrid.make(20.0, 0.05)
    sd = mk.data_from_kernel(K, kgrid=kg)
    # f(k) = 1 - 1/(1 - ik) = k/(k+i): resonance, no bound states
    assert sd.j_count == 0
    assert sd.s_at_zero_sign == -1
    ref = (kg.nodes + 1j) / (kg.nodes - 1j)
    ref[kg.zero_index] = -1.0
    assert np.max(np.abs(sd.s_values - ref)) < 1e-3


def test_data_from_kernel_matches_s_matrix(q_well, fw_well):
    K = fw.kernel_from_potential(q_well)
    kg = MomentumGrid.make(20.0, 0.05)
    sd = mk.data_from_kernel(K, kgrid=kg)
    assert sd.j_count == 1
    assert sd.bound_states[0].kappa == pytest.approx(fw_well.sd.bound_states[0].kappa, abs=1e-3)
    assert sd.bound_states[0].s == pytest.approx(fw_well.sd.bound_states[0].s, rel=1e-2)
    idx = np.round((kg.nodes - fw_well.sd.kgrid.nodes[0]) / fw_well.sd.kgrid.dk).astype(int)
    assert np.max(np.abs(sd.s_values - fw_well.sd.s_values[idx])) < 1e-3


@pytest.fixture(scope="module")
def deep_well_kernel():
    q = square_well_potential(RadialGrid.make(10.0, 0.005), depth=64.0)
    return fw.find_bound_states(q), fw.kernel_from_potential(q)


def test_data_from_kernel_keeps_deep_states(deep_well_kernel):
    # the depth-64 well has kappa = 0.83, 5.79 and 7.50; the scan bound is
    # derived from the kernel diagonal, so no state lies beyond it
    scan, K = deep_well_kernel
    sd = mk.data_from_kernel(K, kgrid=MomentumGrid.make(20.0, 0.05))
    assert sd.j_count == 3
    got = [b.kappa for b in sd.bound_states]
    np.testing.assert_allclose(got, scan.kappas, rtol=0.05)


def test_data_from_kernel_flags_states_beyond_scan(deep_well_kernel):
    # f(i kappa) < 0 between the two deepest zeros: a scan stopping there
    # would drop them silently
    _, K = deep_well_kernel
    with pytest.raises(SolverError):
        mk.data_from_kernel(K, kgrid=MomentumGrid.make(20.0, 0.05), kappa_max=6.5)


# ---------------------------------------------------------------------------
# realness and integrability invariants


def test_inversion_products_are_real(analytic_sech2_sd):
    res = mk.invert_full(analytic_sech2_sd, mk.InversionConfig(x_max=20.0, dx=0.05))
    # A and q are produced through real arithmetic from a symmetric S; the
    # Fourier stage records the imaginary residual instead
    assert np.isrealobj(res.kernel.values)
    assert np.isrealobj(res.potential.values)
    for x in (0.5, 1.0, 2.0):
        _, resid = fourier_kernel_to_space(1.0 - analytic_sech2_sd.s_values, analytic_sech2_sd.kgrid, x)
        assert resid < 1e-10


def test_F_l1_stable_under_kmax_refinement(q_sech2):
    # int |F| is finite and stable when the Fourier window widens
    norms = []
    for kmax in (100.0, 200.0):
        kg = MomentumGrid.make(kmax, 0.01)
        sd = fw.s_matrix(q_sech2, kg)
        F = mk.build_F(sd, 0.0, 40.0, 0.01)
        norms.append(float(np.trapezoid(np.abs(F.f_values), dx=0.01)))
    assert norms[1] == pytest.approx(norms[0], rel=2e-3)
    assert norms[1] == pytest.approx(2.0, rel=2e-2)

import numpy as np
import pytest

from conftest import marchenko_row, reflectionless_data
from halfline.errors import DataError, SolverError, StageError
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
from halfline.numkit import fourier_kernel_to_space, quadrature_weights, solve_volterra_backward
from halfline.potentials import sech2_potential, square_well_potential


def make_input(hi, dx, func):
    g = RadialGrid.make(hi, dx)
    f = func(g.nodes)
    return MarchenkoInput(xgrid=g, fs_values=f, fd_values=np.zeros_like(f))


def soliton_input(dx=0.05, hi=80.0):
    return make_input(hi, dx, lambda x: 2 * np.exp(-x))


def soliton_kernel_exact(xg: RadialGrid) -> TransformationKernel:
    X = xg.nodes[:, None]
    Y = xg.nodes[None, :]
    A = np.where(Y >= X, -2 * np.exp(-(X + Y)) / (1 + np.exp(-2 * X)), 0.0)
    return TransformationKernel(grid=xg, block=A)


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
    F = mk.build_F(sd, 10.0, 0.05)
    assert np.max(np.abs(F.f_values)) < 1e-12


def test_build_F_pure_bound_state(kgrid_fourier):
    sd = ScatteringData(
        kgrid=kgrid_fourier,
        s_values=np.ones(kgrid_fourier.n, complex),
        bound_states=(BoundState(1.0, 2.0),),
    )
    F = mk.build_F(sd, 10.0, 0.05)
    np.testing.assert_allclose(F.f_values, 2 * np.exp(-F.xgrid.nodes), atol=1e-12)
    np.testing.assert_allclose(F.fd_values, F.f_values, atol=1e-12)


def test_build_F_residue_oracle(analytic_sech2_sd):
    # 1 - S = -2i/(k-i): single pole at k = i gives F_s = 2 e^{-x} for x > 0
    # and 0 for x < 0; with the analytic tail correction the transition
    # collapses to the grid scale and the x = 0 node carries the
    # right-sided limit (the tapered F of full_report is checked in
    # test_characterize)
    F = mk.build_F(analytic_sech2_sd, 10.0, 0.01)
    x = F.xgrid.nodes
    ref = 2 * np.exp(-x)
    mask = x >= 0.02
    assert np.max(np.abs(F.f_values - ref)[mask]) < 1e-3
    assert F.f_values[0] == pytest.approx(2.0, abs=1e-3)


def test_build_F_rejects_asymmetric(kgrid_fourier):
    s = np.ones(kgrid_fourier.n, complex)
    s += 0.05j * np.exp(-((kgrid_fourier.nodes - 3) ** 2))  # breaks S(-k) = conj S(k)
    sd = ScatteringData(kgrid=kgrid_fourier, s_values=s)
    with pytest.raises(DataError):
        mk.build_F(sd, 5.0, 0.05)


def test_build_F_flags_are_keyword_only(analytic_sech2_sd):
    # build_F takes no lower end and no options, so a call that still
    # passes a lower end fails loudly
    with pytest.raises(TypeError):
        mk.build_F(analytic_sech2_sd, 0.0, 10.0, 0.05)


# ---------------------------------------------------------------------------
# solve_kernel: single rows


def test_row_zero_F():
    F = make_input(40.0, 0.05, lambda x: np.zeros_like(x))
    row = mk.solve_kernel(F, 40.0)[20, 20:]  # x = 1
    assert np.max(np.abs(row)) == 0.0


def test_row_separable_closed_form():
    # F = 2 e^{-p} gives A(x,y) = -2 e^{-(x+y)}/(1 + e^{-2x}); the 1e-6
    # origin tolerance needs the fourth-order rule at dx = 0.025
    F = soliton_input(dx=0.025)
    A = mk.solve_kernel(F, 40.0)
    row0 = A[0]
    y = np.arange(0.0, 40.0 + 1e-9, 0.025)
    assert abs(row0[0] + 1.0) < 1e-6
    assert np.max(np.abs(row0 + np.exp(-y))) < 1e-6
    row1 = A[40, 40:]  # x = 1
    y1 = np.arange(1.0, 40.0 + 1e-9, 0.025)
    ref1 = -2 * np.exp(-(1.0 + y1)) / (1 + np.exp(-2.0))
    assert np.max(np.abs(row1 - ref1)) < 1e-6


def test_row_two_node_hand_elimination():
    # F = (1, 2, 3) on [0, 2] with dx = 1, x = 0, x_max = 1: a two-node row
    # takes the weights (1/2, 1/2), and the row system is
    #   a0 + (F(0) a0 + F(1) a1)/2 = -F(0)  ->  3/2 a0 +     a1 = -1
    #   a1 + (F(1) a0 + F(2) a1)/2 = -F(1)  ->      a0 + 5/2 a1 = -2
    # elimination: a1 = -8/11, a0 = -2/11
    F = make_input(2.0, 1.0, lambda x: x + 1.0)
    row = mk.solve_kernel(F, 1.0)[0]
    np.testing.assert_allclose(row, [-2.0 / 11.0, -8.0 / 11.0], rtol=0, atol=1e-14)


def test_row_singular_refused():
    # F = -1 with Simpson weights summing to 1 makes I + F W annihilate
    # the constant mode of the row at x = 0 exactly
    F = make_input(2.0, 0.5, lambda x: -np.ones_like(x))
    with pytest.raises(SolverError):
        mk.solve_kernel(F, 1.0)


def test_row_one_node_pivot():
    # a one-node row is -F(2x)/(1 + dx F(2x)); F = -1/dx zeroes the pivot
    F = make_input(2.0, 0.5, lambda x: np.full_like(x, -2.0))
    with pytest.raises(SolverError, match="pivot"):
        mk.solve_kernel(F, 1.0)
    F = make_input(2.0, 0.5, lambda x: np.full_like(x, 3.0))
    assert mk.solve_kernel(F, 1.0)[-1, -1:].tolist() == [-3.0 / (1.0 + 0.5 * 3.0)]


def test_row_one_node_negative_pivot_refused():
    # 1 + dx F(2 x_max) < 0: the one-node row is indefinite, like the
    # rows of indefinite data, and is refused, not solved
    F = make_input(2.0, 0.5, lambda x: np.full_like(x, -3.0))
    with pytest.raises(SolverError, match="pivot"):
        mk.solve_kernel(F, 1.0)


def test_row_grid_refinement_fourth_order():
    errs = []
    for dx in (0.1, 0.05):
        F = soliton_input(dx=dx)
        row0 = mk.solve_kernel(F, 40.0)[0]
        y = np.arange(0.0, 40.0 + 1e-9, dx)
        errs.append(np.max(np.abs(row0 + np.exp(-y))))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)


# ---------------------------------------------------------------------------
# solve_kernel against the per-row reference


def row_loop(F, x_max, rule="simpson"):
    """Reference: one marchenko_row solve per kernel row."""
    nodes = F.xgrid.dx * np.arange(int(round(x_max / F.xgrid.dx)) + 1)
    vals = np.zeros((nodes.size, nodes.size))
    for i, x in enumerate(nodes):
        vals[i, i:] = marchenko_row(F, float(x), y_max=x_max, rule=rule)
    return vals


# solve_kernel's rows are Simpson rows; the reference builds its weights by
# the rule's name
@pytest.mark.parametrize("rule", ["simpson"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 40, 41, 63, 64, 65, 129])
def test_solve_kernel_matches_row_loop(rule, n):
    # n <= 6 gives rows of one to four nodes and both parities, including
    # the four-node 3/8 row under a six-node template; 63 to 129 straddle
    # the triangular inverse's diagonal blocks of TRIL_BLOCK = 64 rows
    dx = 0.1
    F = make_input(2 * (n - 1) * dx + 1.0, dx, lambda x: 2 * np.exp(-x) + 0.5 * np.exp(-3 * x))
    got = mk.solve_kernel(F, (n - 1) * dx)
    assert got.shape == (n, n)
    np.testing.assert_allclose(got, row_loop(F, (n - 1) * dx, rule), rtol=0, atol=1e-12)


def test_solve_kernel_far_rows_keep_relative_accuracy():
    # F(2x) falls to 2e^{-80} ~ 1e-35 at x = 40: each y = x entry must
    # keep its relative accuracy there, which a form -1 + (a number near 1)
    # loses
    F = make_input(80.0, 0.25, lambda x: 2 * np.exp(-x))
    got = mk.solve_kernel(F, 40.0)
    assert got.shape == (161, 161)
    np.testing.assert_allclose(got.diagonal(), row_loop(F, 40.0).diagonal(), rtol=1e-12, atol=0)


def test_solve_kernel_short_window_is_zero_padded():
    # samples beyond the F window count as zero, as in the row reference
    F = soliton_input(dx=0.1, hi=3.0)
    np.testing.assert_allclose(mk.solve_kernel(F, 4.0), row_loop(F, 4.0), rtol=0, atol=1e-12)


def test_solve_kernel_refuses_indefinite_data():
    # F = -3 e^{-p}: I + F_x has the eigenvalue 1 - 1.5 e^{-2x}, negative
    # for x < ln(1.5)/2 ~ 0.203, where the exact A = -3 e^{-(x+y)} /
    # (1 - 1.5 e^{-2x}) passes through a pole.  The systems are invertible
    # there, so a dense solve of the row at x = 0 still returns a row.
    F = make_input(10.0, 0.05, lambda x: -3 * np.exp(-x))
    assert np.all(np.isfinite(marchenko_row(F, 0.0, y_max=5.0)))
    with pytest.raises(SolverError, match="not positive definite"):
        mk.solve_kernel(F, 5.0)


def test_solve_kernel_one_node_pivot():
    F = make_input(2.0, 0.5, lambda x: np.full_like(x, -2.0))
    with pytest.raises(SolverError, match="pivot"):
        mk.solve_kernel(F, 1.0)


def test_solve_kernel_residual_check_names_the_row(monkeypatch):
    # with a zero tolerance every row with a nonzero residual is refused:
    # the batched check reports the row and its residual
    monkeypatch.setattr(mk, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match=r"row at x = \d+\.\d{4}: .*residual \d"):
        mk.solve_kernel(soliton_input(dx=0.1, hi=8.0), 4.0)


def test_zeroed_F_matches_row_cut():
    # invert_full zeroes F beyond the tail cut; before, it cut each row to
    # [x, p_cut - x] (at least three nodes) instead
    dx, x_max = 0.05, 40.0
    F = make_input(80.0, dx, lambda x: 2 * np.exp(-x) + 0.5 * np.exp(-3 * x))
    cut, _ = mk._tail_cut(F)
    p_cut = F.xgrid.nodes[cut]
    assert 19.0 < p_cut < 19.3
    xg = RadialGrid.make(x_max, dx)
    old = np.zeros((xg.n, xg.n))
    for i, x in enumerate(xg.nodes):
        y_hi = min(x_max, max(x + 2 * dx, p_cut - x))
        steps = min(int(round((y_hi - x) / dx)), xg.n - 1 - i)
        old[i, i : i + steps + 1] = marchenko_row(F, float(x), x + steps * dx)
    f = F.f_values.copy()
    f[cut + 1 :] = 0.0
    zeroed = MarchenkoInput(xgrid=F.xgrid, fs_values=f, fd_values=np.zeros_like(f))
    assert np.max(np.abs(mk.solve_kernel(zeroed, x_max) - old)) <= 1e-7


# ---------------------------------------------------------------------------
# kernel consumers on the block


@pytest.mark.parametrize(
    "make_q, full",
    [
        (lambda: square_well_potential(RadialGrid.make(10.0, 0.01)), False),
        (lambda: square_well_potential(RadialGrid.make(10.0, 0.005), depth=64.0), False),
        # no exact zeros in q: the block is the whole grid
        (lambda: sech2_potential(RadialGrid.make(20.0, 0.02), depth=6.0), True),
    ],
    ids=["well", "deep_well", "sech2"],
)
def test_consumers_read_the_block_like_the_dense_kernel(make_q, full):
    K = fw.kernel_from_potential(make_q())
    n, nb = K.grid.n, K.block.shape[0]
    assert (nb == n) == full
    padded = np.zeros((n, n))
    padded[:nb, :nb] = K.block
    D = TransformationKernel(grid=K.grid, block=padded)
    got, want = mk.data_from_kernel(K), mk.data_from_kernel(D)
    assert got.j_count == want.j_count >= 1 and got.s_at_zero_sign == want.s_at_zero_sign
    np.testing.assert_allclose(got.s_values, want.s_values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.kappas, want.kappas, rtol=1e-12)
    np.testing.assert_allclose(got.norming, want.norming, rtol=1e-12)
    assert np.array_equal(mk.f_from_kernel(K).f_values, mk.f_from_kernel(D).f_values)


# ---------------------------------------------------------------------------
# recover_potential


def test_recover_zero_kernel():
    xg = RadialGrid.make(10.0, 0.05)
    K = TransformationKernel(grid=xg, block=np.zeros((xg.n, xg.n)))
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
    K = TransformationKernel(grid=xg, block=np.zeros((xg.n, xg.n)))
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
    K = TransformationKernel(grid=xg, block=mk.solve_kernel(Fin, 40.0))
    Frec = mk.f_from_kernel(K)
    assert np.max(np.abs(Frec.f_values - 2 * np.exp(-xg.nodes))) < 1e-5


def march_to_unit_margin(K: TransformationKernel) -> np.ndarray:
    # the march cut one unit (1/dx nodes) past the row's numerical support
    row, dx = K.row(0), K.grid.dx
    alive = np.nonzero(np.abs(row) > mk.SUPPORT_TOL * np.max(np.abs(row)))[0]
    cut = min(K.grid.n - 1, int(alive[-1]) + int(round(1.0 / dx)))
    f = np.zeros(K.grid.n)
    f[: cut + 1] = solve_volterra_backward(row[: cut + 1], row[: cut + 1], dx)
    return f


@pytest.mark.parametrize(
    "make_q",
    [
        lambda: square_well_potential(RadialGrid.make(10.0, 0.005), depth=64.0),
        lambda: square_well_potential(RadialGrid.make(40.0, 0.01)),
    ],
    ids=["deep_well", "readme_well"],
)
def test_f_from_kernel_stops_at_the_row_support(monkeypatch, make_q):
    # A(0, y) = 0 exactly past its last nonzero sample: the march stops four
    # nodes beyond it, and F there stays exactly 0
    K = fw.kernel_from_potential(make_q())
    last = int(np.flatnonzero(K.row(0))[-1])
    sizes = []
    march = mk.solve_volterra_backward
    monkeypatch.setattr(mk, "solve_volterra_backward", lambda a, g, dx: sizes.append(g.size) or march(a, g, dx))
    f = mk.f_from_kernel(K).f_values
    assert len(sizes) == 1 and sizes[0] <= last + 5
    ref = march_to_unit_margin(K)
    assert np.max(np.abs(f - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.all(f[sizes[0] :] == 0.0)


def test_f_from_kernel_without_zeros_keeps_the_unit_margin():
    # sech^2 has no exact zeros in A(0, y): the march keeps the unit margin, bit for bit
    K = fw.kernel_from_potential(sech2_potential(RadialGrid.make(20.0, 0.02), depth=6.0))
    assert K.block.shape[0] == K.grid.n
    assert np.array_equal(mk.f_from_kernel(K).f_values, march_to_unit_margin(K))


def test_invert_kernel_keeps_the_solved_block(monkeypatch, analytic_sech2_sd):
    solved = []
    solve = mk.solve_kernel
    monkeypatch.setattr(mk, "solve_kernel", lambda F, x_max: solved.append(solve(F, x_max)) or solved[-1])
    res = mk.invert_full(analytic_sech2_sd, mk.InversionConfig(x_max=10.0, dx=0.05, force=True))
    assert len(solved) == 1 and np.shares_memory(res.kernel.block, solved[0])
    assert not res.kernel.block.flags.writeable


# ---------------------------------------------------------------------------
# data_from_F


def test_extract_two_exponentials(kgrid_fourier):
    # admissible two-state data, F on [0, 20] with F(0+) at x = 0
    sd_in = reflectionless_data(kgrid_fourier, ((1.0, 2.0), (2.0, 3.0)))
    sd = mk.data_from_F(mk.build_F(sd_in, 20.0, 0.0125))
    assert sd.j_count == 2
    (b1, b2) = sd.bound_states
    assert b1.kappa == pytest.approx(1.0, abs=1e-4)
    assert b1.s == pytest.approx(2.0, abs=1e-4)
    assert b2.kappa == pytest.approx(2.0, abs=1e-4)
    assert b2.s == pytest.approx(3.0, abs=1e-4)


def test_extract_zero():
    F = make_input(40.0, 0.05, lambda x: np.zeros_like(x))
    sd = mk.data_from_F(F)
    assert sd.j_count == 0
    assert np.all(sd.s_values == 1.0)


def test_extract_one_sided_exponential():
    # F = 2 e^{-x} with F(0) = F(0+) = 2 is sech^2's F: no bound state and
    # S = (k + i)/(k - i) with the resonance sign
    F = make_input(30.0, 0.0125, lambda x: 2 * np.exp(-x))
    sd = mk.data_from_F(F)
    assert sd.j_count == 0
    assert sd.s_at_zero_sign == -1
    k = sd.kgrid.nodes
    ref = (k + 1j) / (k - 1j)
    ref[sd.kgrid.zero_index] = -1.0
    # f(k) sums A(0, y) e^{iky} by Simpson's rule, whose error grows like
    # (k dx)^4: 3.3e-4 on |k| <= 100 (k dx <= 1.25), 6.7e-3 on the whole
    # default grid (k dx up to 2.5)
    band = np.abs(k) <= 100.0
    assert np.max(np.abs(sd.s_values - ref)[band]) <= 1e-3


# ---------------------------------------------------------------------------
# data_from_kernel


def test_data_from_kernel_zero():
    xg = RadialGrid.make(10.0, 0.05)
    K = TransformationKernel(grid=xg, block=np.zeros((xg.n, xg.n)))
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 12, 13])
def test_simpson_rows_match_per_row_weights(n):
    # every row i integrates over its own n - i nodes, whatever the block
    # size; rows of one to four nodes included
    rng = np.random.default_rng(n)
    dx = 0.1
    for nb in range(1, n + 1):
        A = np.triu(rng.standard_normal((nb, nb)))
        V = rng.standard_normal((nb, 3))
        ref = np.zeros((nb, 3))
        for i in range(min(nb, n - 1)):
            w = quadrature_weights(n - i, dx, "simpson")[: nb - i]
            ref[i] = (w * A[i, i:]) @ V[i:]
        np.testing.assert_allclose(mk._simpson_rows(A, V, n, dx), ref, rtol=0, atol=1e-14)


def test_invert_and_data_from_F_share_the_kernel_path(monkeypatch, analytic_sech2_sd):
    calls = []
    core = mk._kernel_from_F
    monkeypatch.setattr(mk, "_kernel_from_F", lambda F, xg: calls.append(xg.n) or core(F, xg))
    res = mk.invert_full(analytic_sech2_sd, mk.InversionConfig(x_max=10.0, dx=0.05, force=True))
    F = mk.build_F(analytic_sech2_sd, 20.0, 0.05)
    K, _ = core(F, res.kernel.grid)
    mk.data_from_F(F)
    assert calls == [201, 201]
    assert np.array_equal(K.block, res.kernel.block)


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


def test_data_from_kernel_roots_start_from_the_scan(monkeypatch, deep_well_kernel):
    # the root finder takes f(i kappa) at the bracket ends from the scan, so
    # it evaluates f only at secant iterates: one evaluation fewer
    seen, ends = [], []
    core = fw.find_roots

    def recording(g, a, b, fa, fb, tol):
        ends.append(np.concatenate([a, b]))
        return core(lambda x: seen.append(np.array(x, dtype=float)) or g(x), a, b, fa, fb, tol)

    monkeypatch.setattr(fw, "find_roots", recording)
    _, K = deep_well_kernel
    assert mk.data_from_kernel(K, kgrid=MomentumGrid.make(20.0, 0.05)).j_count == 3
    assert len(ends) == 1 and ends[0].size == 6
    assert seen[0].size == 3 and not np.any(np.isin(np.concatenate(seen), ends[0]))


def test_data_from_kernel_flags_states_beyond_scan(monkeypatch, deep_well_kernel):
    # f(i kappa) < 0 between the two deepest zeros: a scan stopping there
    # would drop them silently
    _, K = deep_well_kernel
    monkeypatch.setattr(fw, "_kappa_scan", lambda q_max: np.arange(fw.KAPPA_MIN, 6.5 + fw.SCAN_STEP, fw.SCAN_STEP))
    with pytest.raises(SolverError):
        mk.data_from_kernel(K, kgrid=MomentumGrid.make(20.0, 0.05))


def test_data_from_kernel_refuses_an_unresolved_kernel():
    # A(x, x) ramps to 1e150 on [0, 1]: max|q| = 2 max|dA(x,x)/dx| = 2e150,
    # far past the grid's sampling limit dx sqrt(max|q|) < pi
    xg = RadialGrid.make(1.0, 0.1)
    K = TransformationKernel(grid=xg, block=np.diag(1e150 * xg.nodes))
    with pytest.raises(SolverError, match="does not resolve"):
        mk.data_from_kernel(K, kgrid=MomentumGrid.make(20.0, 0.05))


def test_data_from_kernel_flags_straddling_sign_change():
    # A(x, y) = -1.005 c e^{-c(x+y)} gives f(i kappa) ~ 1 - 1.005 c/(c + kappa):
    # f(0) ~ -5e-3 is above RESONANCE_TOL in size, but f changes sign below
    # KAPPA_MIN, so the zero-energy resonance flag sets S(0) = -1
    c = 0.1
    xg = RadialGrid.make(100.0, 0.1)
    K = TransformationKernel(grid=xg, block=np.triu(-1.005 * c * np.exp(-c * np.add.outer(xg.nodes, xg.nodes))))
    sd = mk.data_from_kernel(K)
    assert sd.j_count == 0
    assert sd.s_at_zero_sign == -1


# ---------------------------------------------------------------------------
# realness and integrability invariants


def test_inversion_products_are_real(analytic_sech2_sd):
    res = mk.invert_full(analytic_sech2_sd, mk.InversionConfig(x_max=20.0, dx=0.05))
    # A and q are produced through real arithmetic from a symmetric S; the
    # Fourier stage records the imaginary residual instead
    assert np.isrealobj(res.kernel.values)
    assert np.isrealobj(res.potential.values)
    xs = UniformGrid.make(0.5, 2.0, 0.5)
    _, resid = fourier_kernel_to_space(1.0 - analytic_sech2_sd.s_values, analytic_sech2_sd.kgrid, xs)
    assert np.max(resid) < 1e-10


def test_F_l1_stable_under_kmax_refinement(q_sech2):
    # int |F| is finite and stable when the Fourier window widens
    norms = []
    for kmax in (100.0, 200.0):
        kg = MomentumGrid.make(kmax, 0.01)
        sd = fw.s_matrix(q_sech2, kg)
        F = mk.build_F(sd, 40.0, 0.01)
        norms.append(float(np.trapezoid(np.abs(F.f_values), dx=0.01)))
    assert norms[1] == pytest.approx(norms[0], rel=2e-3)
    assert norms[1] == pytest.approx(2.0, rel=2e-2)

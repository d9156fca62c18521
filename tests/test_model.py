import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline.characterize import check_discrete, check_symmetry_unitarity
from halfline.errors import DataError, GridError
from halfline.forward import kernel_from_potential
from halfline.model import (
    BoundState,
    MarchenkoInput,
    MomentumGrid,
    Potential,
    RadialGrid,
    ScatteringData,
    TransformationKernel,
    UniformGrid,
)
from halfline.potentials import square_well_potential


def violations(sd: ScatteringData) -> list[str]:
    """Names of the structural checks (the two forward runs on its own
    output) that sd fails."""
    return [c.name for c in (check_symmetry_unitarity(sd), check_discrete(sd)) if not c.passed]


def s_defects(sd: ScatteringData) -> tuple[float, float]:
    """max ||S| - 1| and max |S(-k) - conj S(k)| of sd."""
    s = sd.s_values
    return float(np.max(np.abs(np.abs(s) - 1.0))), float(np.max(np.abs(s[::-1] - np.conj(s))))


def test_radial_grid_basics():
    g = RadialGrid.make(10.0, 0.1)
    assert g.n == 101
    assert g.x_max == pytest.approx(10.0)
    assert g.dx == pytest.approx(0.1)
    with pytest.raises(GridError):
        RadialGrid(np.array([1.0, 2.0]))  # must start at 0
    with pytest.raises(GridError):
        RadialGrid(np.array([0.0, 0.1, 0.3]))  # non-uniform


def test_momentum_grid_symmetric_and_zero_flag():
    g = MomentumGrid.make(5.0, 0.5)
    assert g.zero_index == g.n // 2
    assert g.nodes[g.zero_index] == 0.0
    np.testing.assert_allclose(g.nodes + g.nodes[::-1], 0.0, atol=1e-12)
    with pytest.raises(GridError):
        MomentumGrid(np.array([-1.0, 0.0, 2.0]))


@pytest.mark.parametrize("n", [5, 6])
def test_momentum_grid_mirror(n):
    # odd grids keep their centre node in the upper half, even grids have none
    g = MomentumGrid(np.arange(n) - 0.5 * (n - 1))
    up = g.nodes[g.upper]
    np.testing.assert_array_equal(up, g.nodes[g.nodes >= 0])
    np.testing.assert_array_equal(g.mirror(up, np.negative), g.nodes)
    np.testing.assert_array_equal(g.mirror(up * 1j, np.conj), g.nodes * 1j)


def test_uniform_grid_negative_origin():
    g = UniformGrid.make(-12.0, 40.0, 0.5)
    assert g.lo == pytest.approx(-12.0)
    assert g.hi == pytest.approx(40.0)
    # the spacing is read end to end: nodes[1] - nodes[0] of a grid far from
    # the origin carries the rounding of both nodes (0.009999999999990905)
    assert MomentumGrid.make(200.0, 0.01).dx == 0.01
    assert MomentumGrid.make(200.0, 0.02).dx == 0.02
    assert UniformGrid.make(-20.0, 80.0, 0.02).dx == 0.02


def test_grids_share_the_uniform_base():
    # one __post_init__: every grid kind refuses non-uniform and non-finite
    # nodes alike; the subclasses keep their own make formulas and names
    r, m = RadialGrid.make(10.0, 0.1), MomentumGrid.make(5.0, 0.5)
    assert isinstance(r, UniformGrid) and isinstance(m, UniformGrid)
    np.testing.assert_array_equal(r.nodes, 0.1 * np.arange(101))
    np.testing.assert_array_equal(m.nodes, 0.5 * np.arange(-10, 11))
    assert (r.x_max, r.n) == (r.hi, 101)
    assert (m.k_max, m.dk, m.n) == (m.hi, m.dx, 21)
    assert MomentumGrid(np.array([-1.5, -0.5, 0.5, 1.5])).zero_index is None
    for cls in (UniformGrid, RadialGrid, MomentumGrid):
        with pytest.raises(GridError):
            cls(np.array([-1.0, 0.0, 0.5, 1.0]))
        with pytest.raises(GridError):
            cls(np.array([0.0, np.nan, 1.0]))


@pytest.mark.parametrize("dx", [0.0, np.nan, np.inf, 1e-300])
def test_grid_make_refuses_impossible_spacings(dx):
    # 0 was a ZeroDivisionError, nan a ValueError and 1e-300 numpy's
    # "Maximum allowed size exceeded"; numpy refuses 1e-300's node count
    # before it allocates anything
    for make in (RadialGrid.make, MomentumGrid.make):
        with pytest.raises(GridError, match="grid"):
            make(10.0, dx)
    with pytest.raises(GridError, match="grid"):
        UniformGrid.make(-1.0, 1.0, dx)
    with pytest.raises(GridError, match="grid"):
        MomentumGrid.make(1e300, 0.01)


def test_arrays_are_frozen(fw_well):
    # every array a value type exposes, the derived diagonal and F and
    # forward's result included, refuses an item write
    xg = RadialGrid.make(1.0, 0.1)
    kg = MomentumGrid.make(2.0, 0.5)
    q = square_well_potential(xg, width=0.5)
    sd = ScatteringData(kgrid=kg, s_values=np.ones(kg.n, dtype=complex))
    kernel = kernel_from_potential(q)
    F = MarchenkoInput(xgrid=RadialGrid.make(2.0, 0.1), fs_values=np.ones(21), fd_values=np.ones(21))
    exposed = {
        "Potential.values": q.values,
        "ScatteringData.s_values": sd.s_values,
        "ForwardResult.f0": fw_well.f0,
        "ForwardResult.fprime0": fw_well.fprime0,
        "ForwardResult.delta": fw_well.delta,
        "TransformationKernel.values": kernel.values,
        "TransformationKernel.diagonal": kernel.diagonal,
        "MarchenkoInput.fs_values": F.fs_values,
        "MarchenkoInput.fd_values": F.fd_values,
        "MarchenkoInput.f_values": F.f_values,
    }
    for name, a in exposed.items():
        try:
            a[0] = 1.0
        except ValueError:
            continue
        pytest.fail(f"{name} accepted an item write")


def test_kernel_copies_its_block():
    xg = RadialGrid.make(1.0, 0.1)
    fresh = np.triu(np.ones((4, 4)))
    K = TransformationKernel(grid=xg, block=fresh)
    assert not np.shares_memory(K.block, fresh) and fresh.flags.writeable
    fresh[0, 0] = 5.0  # the caller's array stays its own
    assert K.block[0, 0] == 1.0
    base = np.triu(np.ones((6, 6)))
    K = TransformationKernel(grid=xg, block=base[:4, :4])
    assert not np.shares_memory(K.block, base)
    np.testing.assert_array_equal(K.block, base[:4, :4])


def test_kernel_rejects_bad_blocks():
    xg = RadialGrid.make(1.0, 0.1)  # n = 11
    for bad in (np.zeros((3, 4)), np.zeros(4), np.zeros((12, 12))):
        with pytest.raises(DataError, match="square"):
            TransformationKernel(grid=xg, block=bad)
    for value in (np.nan, np.inf):
        blk = np.zeros((3, 3))
        blk[1, 2] = value
        with pytest.raises(DataError, match="finite"):
            TransformationKernel(grid=xg, block=blk)
        assert blk.flags.writeable  # a refused array is left as it was


def test_kernel_is_zero_outside_its_block():
    xg = RadialGrid.make(1.0, 0.1)
    blk = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    K = TransformationKernel(grid=xg, block=blk.copy())
    dense = np.zeros((xg.n, xg.n))
    dense[:4, :4] = blk
    np.testing.assert_array_equal(K.values, dense)
    np.testing.assert_array_equal(K.diagonal, dense.diagonal())
    for i in (0, 3, 4, xg.n - 1, -1):
        np.testing.assert_array_equal(K.row(i), dense[i])
    for a in (K.block, K.values, K.diagonal, K.row(0), K.row(7)):
        assert not a.flags.writeable


def test_bound_state_positivity_reported_not_thrown():
    # nonpositive discrete data stay representable (the validators report
    # them); only non-finite entries are rejected at construction
    kg = MomentumGrid.make(10.0, 0.5)
    s = np.ones(kg.n, dtype=complex)
    sd = ScatteringData(kgrid=kg, s_values=s, bound_states=(BoundState(1.0, -2.0),))
    assert violations(sd) == ["discrete_data"]
    with pytest.raises(DataError):
        BoundState(kappa=np.nan, s=1.0)


def test_bound_states_sorted_and_ties_rejected():
    kg = MomentumGrid.make(10.0, 0.5)
    s = np.ones(kg.n, dtype=complex)
    with pytest.raises(DataError):
        ScatteringData(kgrid=kg, s_values=s, bound_states=(BoundState(2.0, 1.0), BoundState(1.0, 1.0)))
    with pytest.raises(DataError):
        ScatteringData(kgrid=kg, s_values=s, bound_states=(BoundState(1.0, 1.0), BoundState(1.0, 2.0)))


def test_marchenko_input_sums_f_once():
    g = RadialGrid.make(1.0, 0.1)
    fs, fd = np.sin(g.nodes), np.exp(-g.nodes)
    F = MarchenkoInput(xgrid=g, fs_values=fs, fd_values=fd)
    np.testing.assert_array_equal(F.f_values, fs + fd)
    with pytest.raises(DataError, match="match the grid"):
        MarchenkoInput(xgrid=g, fs_values=fs, fd_values=fd[:-1])


def test_marchenko_input_needs_a_radial_grid():
    # F lives on the half-line: a grid reaching x < 0 is refused by type
    g = UniformGrid.make(-1.0, 1.0, 0.1)
    with pytest.raises(GridError, match="radial grid"):
        MarchenkoInput(xgrid=g, fs_values=np.ones(g.n), fd_values=np.zeros(g.n))


def test_marchenko_input_rejects_nonfinite():
    # a non-finite sample in either term, or an overflowing sum, is refused
    g = RadialGrid.make(1.0, 0.1)
    zero = np.zeros(g.n)
    for bad in (np.nan, np.inf):
        f = zero.copy()
        f[4] = bad
        for fs, fd in ((f, zero), (zero, f)):
            with pytest.raises(DataError, match="finite"):
                MarchenkoInput(xgrid=g, fs_values=fs, fd_values=fd)
    big = np.full(g.n, 1e308)
    with pytest.raises(DataError, match="finite"):
        MarchenkoInput(xgrid=g, fs_values=big, fd_values=big)


def test_validate_identity_data():
    kg = MomentumGrid.make(50.0, 0.05)
    sd = ScatteringData(kgrid=kg, s_values=np.ones(kg.n, dtype=complex))
    assert violations(sd) == []
    assert max(s_defects(sd)) <= 1e-10


def test_validate_unitarity_violation():
    kg = MomentumGrid.make(50.0, 0.05)
    sd = ScatteringData(kgrid=kg, s_values=2.0 * np.ones(kg.n, dtype=complex))
    assert violations(sd) == ["symmetry_unitarity"]
    assert "|S|-1: 1.00e+00" in check_symmetry_unitarity(sd).note


def test_validate_blaschke_data_clean():
    # S = (k+i)/(k-i) sampled on [-50, 50], n = 4001
    kg = MomentumGrid.make(50.0, 0.025)
    assert kg.n == 4001
    s = (kg.nodes + 1j) / (kg.nodes - 1j)
    s[kg.zero_index] = -1.0
    sd = ScatteringData(kgrid=kg, s_values=s, s_at_zero_sign=-1)
    assert violations(sd) == []
    assert max(s_defects(sd)) <= 1e-12


def test_potential_rejects_nonfinite():
    g = RadialGrid.make(1.0, 0.1)
    v = np.zeros(g.n)
    v[3] = np.nan
    with pytest.raises(DataError):
        Potential(grid=g, values=v)


def test_scattering_data_rejects_nonfinite():
    kg = MomentumGrid.make(10.0, 0.5)
    s = np.ones(kg.n, dtype=complex)
    s[3] = complex(np.nan, 0.0)
    with pytest.raises(DataError):
        ScatteringData(kgrid=kg, s_values=s)
    s[3] = complex(1.0, np.inf)
    with pytest.raises(DataError):
        ScatteringData(kgrid=kg, s_values=s)


@settings(max_examples=25, deadline=None)
@given(
    amp=st.floats(0.01, 2.0),
    scale=st.floats(0.3, 3.0),
    kap=st.floats(0.1, 3.0),
    s=st.floats(0.1, 5.0),
)
def test_validate_passes_on_synthetic_unitary_data(amp, scale, kap, s):
    # any unimodular S = e^{2 i delta} with odd decaying delta and positive
    # discrete data is structurally valid
    kg = MomentumGrid.make(60.0, 0.05)
    delta = amp * kg.nodes / (kg.nodes**2 + scale**2) ** 1.5
    sv = np.exp(2j * delta)
    sd = ScatteringData(
        kgrid=kg, s_values=sv, bound_states=(BoundState(kap, s),), s_at_zero_sign=1
    )
    assert violations(sd) == []
    assert max(s_defects(sd)) <= 1e-10


def test_forward_data_pass_validation(fw_sech2, fw_well, fw_zero):
    # forward's S is symmetric bit for bit and unimodular to 1e-15
    # (test_forward's test_forward_s_is_conjugate_symmetric_bit_for_bit)
    for r in (fw_sech2, fw_well, fw_zero):
        assert violations(r.sd) == []

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline.characterize import ConditionThresholds, check_discrete, check_symmetry_unitarity
from halfline.errors import DataError, GridError
from halfline.forward import FORWARD_THRESHOLDS
from halfline.model import (
    BoundState,
    MarchenkoInput,
    MomentumGrid,
    Potential,
    RadialGrid,
    ScatteringData,
    UniformGrid,
    l11_moment,
)
from halfline.potentials import sech2_potential, square_well_potential, zero_potential


def violations(sd: ScatteringData, tol: float = 1e-8) -> list[str]:
    """Names of the structural checks (the two forward runs on its own
    output) that sd fails with unitarity and symmetry tolerance tol."""
    t = ConditionThresholds(unitarity_tol=tol, symmetry_tol=tol)
    return [c.name for c in (check_symmetry_unitarity(sd, t), check_discrete(sd, t)) if not c.passed]


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


def test_uniform_grid_negative_origin():
    g = UniformGrid.make(-12.0, 40.0, 0.5)
    assert g.lo == pytest.approx(-12.0)
    assert g.hi == pytest.approx(40.0)


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


def test_arrays_are_frozen():
    q = zero_potential(RadialGrid.make(1.0, 0.1))
    with pytest.raises(ValueError):
        q.values[0] = 1.0


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


def test_marchenko_input_sum_invariant():
    g = UniformGrid.make(0.0, 1.0, 0.1)
    f = np.ones(g.n)
    with pytest.raises(DataError):
        MarchenkoInput(xgrid=g, f_values=f, fs_values=f, fd_values=f)


def test_marchenko_input_rejects_nonfinite():
    # a NaN makes the F = F_s + F_d comparison false, so it must be refused
    # on its own
    g = UniformGrid.make(0.0, 1.0, 0.1)
    zero = np.zeros(g.n)
    for bad in (np.nan, np.inf):
        f = zero.copy()
        f[4] = bad
        with pytest.raises(DataError, match="finite"):
            MarchenkoInput(xgrid=g, f_values=f, fs_values=f, fd_values=zero)


def test_validate_identity_data():
    kg = MomentumGrid.make(50.0, 0.05)
    sd = ScatteringData(kgrid=kg, s_values=np.ones(kg.n, dtype=complex))
    assert violations(sd, tol=1e-10) == []


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
    assert violations(sd, tol=1e-12) == []


def test_l11_moment_zero():
    assert l11_moment(zero_potential(RadialGrid.make(40.0, 0.01))) == 0.0


def test_l11_moment_sech2():
    # oracle: integral of x * 2 sech^2 x over [0, inf) = 2 ln 2 by the
    # antiderivative x*2tanh(x) - 2 ln cosh x
    q = sech2_potential(RadialGrid.make(40.0, 0.01))
    assert l11_moment(q) == pytest.approx(2.0 * np.log(2.0), abs=1e-4)


def test_l11_moment_square_well():
    q = square_well_potential(RadialGrid.make(40.0, 0.01))
    assert l11_moment(q) == pytest.approx(2.0, abs=1e-6)


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
    assert violations(sd, tol=1e-10) == []


def test_forward_data_pass_validation(fw_sech2, fw_well, fw_zero):
    assert (FORWARD_THRESHOLDS.unitarity_tol, FORWARD_THRESHOLDS.symmetry_tol) == (1e-8, 1e-8)
    for r in (fw_sech2, fw_well, fw_zero):
        assert violations(r.sd, tol=1e-8) == []

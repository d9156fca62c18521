import re

import numpy as np
import pytest

from halfline.errors import DataError, IndexMismatchError
from halfline import cli
from halfline import forward as fw
from halfline import riemann as rm
from halfline.characterize import check_index
from halfline.model import BoundState, MomentumGrid, ScatteringData
from halfline.numkit import winding_number


@pytest.fixture(scope="module")
def kg():
    return MomentumGrid.make(200.0, 0.05)


def identity_data(kg):
    return ScatteringData(kgrid=kg, s_values=np.ones(kg.n, dtype=complex))


def blaschke_squared_data(kg):
    s = ((kg.nodes + 1j) / (kg.nodes - 1j)) ** 2
    return ScatteringData(kgrid=kg, s_values=s, bound_states=(BoundState(1.0, 1.0),))


def resonance_data(kg):
    s = (kg.nodes + 1j) / (kg.nodes - 1j)
    s[kg.zero_index] = -1.0
    return ScatteringData(kgrid=kg, s_values=s, s_at_zero_sign=-1)


# ---------------------------------------------------------------------------
# Blaschke factors


def test_blaschke_values():
    assert rm.blaschke([1.0], 0.0) == pytest.approx(-1.0)
    assert rm.blaschke([1.0], 1e9) == pytest.approx(1.0, abs=1e-8)


def test_blaschke_unimodular_on_axis():
    k = np.linspace(-50.0, 50.0, 2001)
    assert np.max(np.abs(np.abs(rm.blaschke([1.0, 2.5], k)) - 1.0)) < 1e-14


def test_blaschke_pole_rejected():
    with pytest.raises(DataError):
        rm.blaschke([1.0], -1j)


def test_blaschke_shifted_index_convention(kg):
    # the index bookkeeping behind the resonance case: with
    # W = w k/(k + i shift), the ratio
    # W(k)/W(-k) = w^2(k) (k - i shift)/(k + i shift) has no zero on the
    # axis and winds 2J + 1 times
    k = kg.nodes
    ratio = rm.blaschke([1.0], k) ** 2 * (k - 2j) / (k + 2j)
    assert winding_number(ratio).value == 3


# ---------------------------------------------------------------------------
# solve_riemann


def test_riemann_identity(kg):
    sd = identity_data(kg)
    sol = rm.solve_riemann(sd)
    assert sol.case == "generic" and sol.index == 0
    assert np.max(np.abs(sol.f0 - 1.0)) < 1e-12
    rep = rm.verify_factorization(sol)
    assert rep["boundary_residual"] < 1e-12


def test_riemann_blaschke_squared(kg):
    # S(-k)/w^2 == 1 exactly, so phi_+ == 1 and f = w = (k-i)/(k+i)
    sd = blaschke_squared_data(kg)
    sol = rm.solve_riemann(sd)
    assert sol.case == "generic" and sol.index == -2
    ref = (kg.nodes - 1j) / (kg.nodes + 1j)
    band = np.abs(kg.nodes) <= 20.0
    assert np.max(np.abs(sol.f0 - ref)[band]) < 1e-6
    phi_plus = sol.f0 / rm.blaschke(sol.sd.kappas, kg.nodes)
    assert np.max(np.abs(np.abs(phi_plus) - 1.0)) < 1e-6


def test_riemann_resonance(kg):
    # with shift = 1 the reduced jump is identically 1 and
    # f = W = k/(k+i) exactly, vanishing at the origin
    sd = resonance_data(kg)
    sol = rm.solve_riemann(sd)
    assert sol.case == "resonance" and sol.index == -1
    ref = kg.nodes / (kg.nodes + 1j)
    band = np.abs(kg.nodes) <= 20.0
    assert np.max(np.abs(sol.f0 - ref)[band]) < 1e-4
    assert abs(sol.f0[kg.zero_index]) <= 1e-3
    rep = rm.verify_factorization(sol)
    assert rep["boundary_residual"] <= 1e-4
    # the reconstruction reproduces S away from the flagged node
    mask = np.abs(kg.nodes) > 0.1
    s_back = sol.f0[::-1][mask] / sol.f0[mask]
    assert np.max(np.abs(s_back - sd.s_values[mask])) < 1e-4


def test_riemann_index_mismatch(kg):
    # Blaschke-squared data with no declared bound state: winding -2 but
    # J = 0 expects 0 or -1
    s = ((kg.nodes + 1j) / (kg.nodes - 1j)) ** 2
    sd = ScatteringData(kgrid=kg, s_values=s)
    with pytest.raises(IndexMismatchError):
        rm.solve_riemann(sd)


def test_riemann_square_well_vs_forward(kg, q_well):
    sd = fw.s_matrix(q_well, kg)
    f0, _ = fw.jost_boundary(q_well, kg)
    sol = rm.solve_riemann(sd)
    band = np.abs(kg.nodes) <= 20.0
    assert np.max(np.abs(sol.f0 - f0)[band]) < 1e-3
    rep = rm.verify_factorization(sol)
    assert rep["boundary_residual"] < 1e-10


def test_riemann_winding_of_f_counts_zeros(kg, q_well):
    # argument principle: f has J zeros in the upper half-plane, so its
    # boundary path (closed through f(inf) = 1) winds J times
    sol2 = rm.solve_riemann(blaschke_squared_data(kg))
    assert winding_number(sol2.f0).value == 1
    sdw = fw.s_matrix(q_well, kg)
    solw = rm.solve_riemann(sdw)
    assert winding_number(solw.f0).value == 1


def with_appended_state(sd, kap_new=1.7):
    """sd with S multiplied by a Blaschke-squared factor at kap_new and the
    state (kap_new, 1) appended."""
    k = sd.kgrid.nodes
    s2 = sd.s_values * ((k + 1j * kap_new) / (k - 1j * kap_new)) ** 2
    bound = tuple(sorted(sd.bound_states + (BoundState(kap_new, 1.0),)))
    return ScatteringData(kgrid=sd.kgrid, s_values=s2, bound_states=bound, s_at_zero_sign=sd.s_at_zero_sign)


def test_riemann_appending_blaschke_shifts_index(kg, q_well):
    # multiplying S by a Blaschke-squared factor with a new kappa and
    # appending the state moves the winding index by exactly -2
    sd = fw.s_matrix(q_well, kg)
    idx0 = winding_number(sd.s_values).value
    sd2 = with_appended_state(sd)
    idx2 = winding_number(sd2.s_values).value
    assert idx2 == idx0 - 2
    sol = rm.solve_riemann(sd2)
    assert sol.index == idx2


def with_sign(sd, sign):
    return ScatteringData(kgrid=sd.kgrid, s_values=sd.s_values, bound_states=sd.bound_states, s_at_zero_sign=sign)


def test_riemann_unresolved_phase_is_an_index_mismatch(kg):
    # S = -1, +1, -1, ... jumps by pi between samples: the index entry is
    # inconclusive, and the factorization refuses the data as a mismatch
    sd = ScatteringData(kgrid=kg, s_values=np.where(np.arange(kg.n) % 2, 1.0, -1.0).astype(complex))
    with pytest.raises(IndexMismatchError, match="inconclusive"):
        rm.solve_riemann(sd)


def test_riemann_raises_iff_check_index_fails(kg, q_well):
    # solve_riemann refuses exactly the data failing check_index, with the
    # entry's note; the S(0) sign flag, not the winding alone, names the
    # case, so a resonance S flagged +1 and a Blaschke-squared S with J = 1
    # flagged -1 are refused
    well = fw.s_matrix(q_well, kg)
    corpus = [
        identity_data(kg),
        blaschke_squared_data(kg),
        resonance_data(kg),
        ScatteringData(kgrid=kg, s_values=blaschke_squared_data(kg).s_values),  # winding -2, J = 0
        well,
        with_appended_state(well),
        with_sign(resonance_data(kg), 1),
        with_sign(blaschke_squared_data(kg), -1),
    ]
    entries = [check_index(sd) for sd in corpus]
    assert [e.passed for e in entries] == [True, True, True, False, True, True, False, False]
    for sd, entry in zip(corpus, entries):
        if entry.passed:
            rm.solve_riemann(sd)
        else:
            with pytest.raises(IndexMismatchError, match=re.escape(entry.note)):
                rm.solve_riemann(sd)


@pytest.mark.parametrize("name", ["well", "sech2", "blaschke_squared"])
def test_riemann_f0_mirrors_exactly(kg, q_well, q_sech2, name):
    # f0 is formed on k >= 0 and filled by f(-k) = conj f(k): the k < 0 half
    # is the conjugate of the k > 0 half bit for bit (the centre node aside),
    # on the README well, sech^2 of depth 2 (the resonance case) and the
    # Blaschke-squared data
    sd = {
        "well": lambda: fw.s_matrix(q_well, kg),
        "sech2": lambda: fw.s_matrix(q_sech2, kg),
        "blaschke_squared": lambda: blaschke_squared_data(kg),
    }[name]()
    f0 = rm.solve_riemann(sd).f0
    h = kg.n // 2
    assert np.array_equal(f0[:h][::-1], np.conj(f0[kg.n - h :]))


def resonance_cubed_data(kg, kappa):
    """Resonance data (S(0) = -1, winding -3) with one state at kappa."""
    s = ((kg.nodes + 1j) / (kg.nodes - 1j)) ** 3
    s[kg.zero_index] = -1.0
    return ScatteringData(kgrid=kg, s_values=s, bound_states=(BoundState(kappa, 1.0),), s_at_zero_sign=-1)


NONPOSITIVE_KAPPA = {
    # check_index passes (winding -2, J = 1), and the reduced jump winds 4
    "blaschke_squared": lambda kg: ScatteringData(
        kgrid=kg, s_values=blaschke_squared_data(kg).s_values, bound_states=(BoundState(-1.0, 1.0),)
    ),
    # check_index passes (winding -3, J = 1), and the largest kappa is -1
    "resonance": lambda kg: resonance_cubed_data(kg, -1.0),
}


@pytest.mark.parametrize("name", sorted(NONPOSITIVE_KAPPA))
def test_riemann_refuses_nonpositive_kappa(kg, tmp_path, name):
    # the prescribed zeros i kappa_j must lie in the upper half-plane: a
    # kappa <= 0 is refused up front, in both cases, and riemann exits 5
    sd = NONPOSITIVE_KAPPA[name](kg)
    assert check_index(sd).passed
    with pytest.raises(DataError, match="must be positive"):
        rm.solve_riemann(sd)
    path = tmp_path / "sd.json"
    cli.write_scattering_json(path, sd)
    assert cli.main(["riemann", "--data", str(path), "--out", str(tmp_path / "r")]) == cli.EXIT_RIEMANN

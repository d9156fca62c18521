import numpy as np
import pytest

from halfline import characterize as ch
from halfline import forward as fw
from halfline import marchenko as mk
from halfline.model import BoundState, MarchenkoInput, MomentumGrid, ScatteringData, UniformGrid


def entry_by_name(report, name):
    return next(e for e in report.entries if e.name == name)


# ---------------------------------------------------------------------------
# individual checks


def test_symmetry_unitarity_identity(kgrid_coarse):
    sd = ScatteringData(kgrid=kgrid_coarse, s_values=np.ones(kgrid_coarse.n, complex))
    assert ch.check_symmetry_unitarity(sd).passed


def test_symmetry_unitarity_nondecaying_phase(kgrid_coarse):
    # S = e^{ik} is unimodular and symmetric but never settles to 1
    sd = ScatteringData(kgrid=kgrid_coarse, s_values=np.exp(1j * kgrid_coarse.nodes))
    entry = ch.check_symmetry_unitarity(sd)
    assert not entry.passed
    assert "tail" in entry.note


def test_symmetry_unitarity_blaschke(kgrid_coarse):
    s = (kgrid_coarse.nodes + 1j) / (kgrid_coarse.nodes - 1j)
    s[kgrid_coarse.zero_index] = -1.0
    sd = ScatteringData(kgrid=kgrid_coarse, s_values=s, s_at_zero_sign=-1)
    assert ch.check_symmetry_unitarity(sd).passed


def test_discrete_empty(kgrid_coarse):
    sd = ScatteringData(kgrid=kgrid_coarse, s_values=np.ones(kgrid_coarse.n, complex))
    assert ch.check_discrete(sd).passed


def test_discrete_ordering(kgrid_coarse):
    sd = ScatteringData(
        kgrid=kgrid_coarse,
        s_values=np.ones(kgrid_coarse.n, complex),
        bound_states=(BoundState(1.0, 2.0), BoundState(2.0, 3.0)),
    )
    assert ch.check_discrete(sd).passed


def test_integrability_zero():
    g = UniformGrid.make(-20.0, 40.0, 0.01)
    z = np.zeros(g.n)
    F = MarchenkoInput(xgrid=g, f_values=z, fs_values=z, fd_values=z)
    entry = ch.check_integrability(F)
    assert entry.passed and entry.measured == 0.0


def test_integrability_exponential():
    g = UniformGrid.make(-20.0, 40.0, 0.01)
    f = np.where(g.nodes > 0, 2.0 * np.exp(-g.nodes), 0.0)
    f[np.abs(g.nodes) < 1e-12] = 1.0
    F = MarchenkoInput(xgrid=g, f_values=f, fs_values=f, fd_values=np.zeros_like(f))
    entry = ch.check_integrability(F)
    assert entry.passed
    # I1 = int |F_s| = 2 and I2 = int x |F'| = 2 up to the jump cell
    assert "I1 = 2" in entry.note and "I2 = 2" in entry.note


def test_integrability_slow_decay_fails():
    # F_s ~ 1/(1+|x|) has log-divergent L1 norm: the window growth test fails
    g = UniformGrid.make(-20.0, 40.0, 0.01)
    fs = 1.0 / (1.0 + np.abs(g.nodes))
    F = MarchenkoInput(xgrid=g, f_values=fs, fs_values=fs, fd_values=np.zeros_like(fs))
    assert not ch.check_integrability(F).passed


def test_index_identity(kgrid_coarse):
    sd = ScatteringData(kgrid=kgrid_coarse, s_values=np.ones(kgrid_coarse.n, complex))
    entry = ch.check_index(sd)
    assert entry.passed and entry.measured == 0.0


def test_index_blaschke_squared(kgrid_coarse):
    k = kgrid_coarse.nodes
    sd = ScatteringData(
        kgrid=kgrid_coarse,
        s_values=((k + 1j) / (k - 1j)) ** 2,
        bound_states=(BoundState(1.0, 1.0),),
    )
    entry = ch.check_index(sd)
    assert entry.passed and entry.measured == -2.0


def test_index_resonance(kgrid_coarse):
    k = kgrid_coarse.nodes
    s = (k + 1j) / (k - 1j)
    s[kgrid_coarse.zero_index] = -1.0
    sd = ScatteringData(kgrid=kgrid_coarse, s_values=s, s_at_zero_sign=-1)
    entry = ch.check_index(sd)
    assert entry.passed and entry.measured == -1.0


def test_index_flag_mismatch(kgrid_coarse):
    # resonance-type winding with a generic flag must fail the consistency
    k = kgrid_coarse.nodes
    s = (k + 1j) / (k - 1j)
    s[kgrid_coarse.zero_index] = -1.0
    sd = ScatteringData(kgrid=kgrid_coarse, s_values=s, s_at_zero_sign=1)
    assert not ch.check_index(sd).passed


# ---------------------------------------------------------------------------
# full_report


def test_full_report_corpus(fw_zero, fw_sech2, fw_well):
    for r, idx in ((fw_zero, 0), (fw_sech2, -1), (fw_well, -2)):
        rep = ch.full_report(r.sd)
        assert rep.passed, rep.failures()
        assert rep.index == idx


def test_check_discrete_negative_s(kgrid_coarse):
    sd = ScatteringData(
        kgrid=kgrid_coarse,
        s_values=np.ones(kgrid_coarse.n, complex),
        bound_states=(BoundState(1.0, -2.0),),
    )
    assert not ch.check_discrete(sd).passed


def test_full_report_tampered_norming(fw_well):
    # negating s_1 flips exactly the discrete-data condition
    sd = fw_well.sd
    b = sd.bound_states[0]
    tampered = ScatteringData(
        kgrid=sd.kgrid,
        s_values=sd.s_values,
        bound_states=(BoundState(b.kappa, -b.s),),
        s_at_zero_sign=sd.s_at_zero_sign,
    )
    rep = ch.full_report(tampered)
    assert rep.failures() == ["discrete_data"]


def test_full_report_tampered_scaling(fw_well):
    sd = fw_well.sd
    tampered = ScatteringData(
        kgrid=sd.kgrid,
        s_values=1.01 * sd.s_values,
        bound_states=sd.bound_states,
        s_at_zero_sign=sd.s_at_zero_sign,
    )
    rep = ch.full_report(tampered)
    assert rep.failures() == ["symmetry_unitarity"]


def test_full_report_tampered_index(fw_well):
    # an index-inconsistent Blaschke factor (state not appended) breaks only
    # the index/bound-state consistency
    sd = fw_well.sd
    k = sd.kgrid.nodes
    s2 = sd.s_values * ((k + 1.5j) / (k - 1.5j)) ** 2
    tampered = ScatteringData(
        kgrid=sd.kgrid, s_values=s2, bound_states=sd.bound_states, s_at_zero_sign=sd.s_at_zero_sign
    )
    rep = ch.full_report(tampered)
    assert rep.failures() == ["index"]


def test_full_report_grid_refinement_stable(q_sech2):
    # halving dk must not flip any verdict entry
    verdicts = []
    for dk in (0.02, 0.01):
        sd = fw.s_matrix(q_sech2, MomentumGrid.make(200.0, dk))
        rep = ch.full_report(sd)
        verdicts.append([e.passed for e in rep.entries])
    assert verdicts[0] == verdicts[1]


def test_report_matches_riemann_index(fw_well):
    from halfline.riemann import solve_riemann

    rep = ch.full_report(fw_well.sd)
    sol = solve_riemann(fw_well.sd)
    assert rep.index == sol.index


def test_report_serialization(fw_zero):
    rep = ch.full_report(fw_zero.sd)
    doc = rep.to_dict()
    assert doc["passed"] is True
    assert {e["name"] for e in doc["entries"]} == {
        "symmetry_unitarity",
        "discrete_data",
        "integrability",
        "index",
    }


def test_thresholds_positive():
    with pytest.raises(ValueError):
        ch.ConditionThresholds(unitarity_tol=0.0)

import numpy as np
import pytest

from conftest import displaced_data
from halfline import characterize as ch
from halfline import forward as fw
from halfline import marchenko as mk
from halfline.errors import DataError
from halfline.model import BoundState, MarchenkoInput, MomentumGrid, RadialGrid, ScatteringData
from halfline.numkit import _oscillatory_sum, quadrature_weights


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
    g = RadialGrid.make(40.0, 0.01)
    z = np.zeros(g.n)
    F = MarchenkoInput(xgrid=g, fs_values=z, fd_values=z)
    entry = ch.check_integrability(F)
    assert entry.passed and entry.measured == 0.0


def test_integrability_exponential():
    # F_s = 2 e^{-x} on the half-line, with F(0+) = 2 at x = 0
    g = RadialGrid.make(40.0, 0.01)
    f = 2.0 * np.exp(-g.nodes)
    F = MarchenkoInput(xgrid=g, fs_values=f, fd_values=np.zeros_like(f))
    entry = ch.check_integrability(F)
    assert entry.passed
    # I1 = int |F_s| = 2 and I2 = int x |F'| = 2
    assert "I1 = 2" in entry.note and "I2 = 2" in entry.note


def test_integrability_slow_decay_fails():
    # F_s ~ 1/(1+x) has log-divergent L1 norm: the window growth test fails
    g = RadialGrid.make(40.0, 0.01)
    fs = 1.0 / (1.0 + g.nodes)
    F = MarchenkoInput(xgrid=g, fs_values=fs, fd_values=np.zeros_like(fs))
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


FAR_WELL = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="integrability: F's structure reaches x = 22, past the half window's end at 20; and index",
)


@pytest.mark.parametrize("a", [0.0, 2.0, 4.0, pytest.param(10.0, marks=FAR_WELL)])
def test_full_report_displaced_wells(a):
    # the half-line windows read the well's F wherever the well sits
    rep = ch.full_report(displaced_data(a))
    assert rep.passed, rep.failures()
    assert entry_by_name(rep, "integrability").measured <= 1e-3


def with_states(sd, states):
    return ScatteringData(kgrid=sd.kgrid, s_values=sd.s_values, bound_states=states, s_at_zero_sign=sd.s_at_zero_sign)


@pytest.mark.parametrize("a", [0.0, 2.0, 4.0])
def test_full_report_displaced_wells_tampered(monkeypatch, a):
    # each tampering fails its own entry and no other
    sd = displaced_data(a)
    b = sd.bound_states[0]
    flipped = with_states(sd, (BoundState(b.kappa, -b.s),) + sd.bound_states[1:])
    assert ch.full_report(flipped).failures() == ["discrete_data"]
    assert ch.full_report(with_states(sd, sd.bound_states[1:])).failures() == ["index"]

    build_F = mk.build_F

    def slow_tail(*args, **kwargs):
        # F_s + 1/(1 + x): a log-divergent L1 norm
        F = build_F(*args, **kwargs)
        fs = F.fs_values + 1.0 / (1.0 + F.xgrid.nodes)
        return MarchenkoInput(xgrid=F.xgrid, fs_values=fs, fd_values=F.fd_values)

    monkeypatch.setattr(mk, "build_F", slow_tail)
    assert ch.full_report(sd).failures() == ["integrability"]


def _report_F(monkeypatch, sd):
    # the F that full_report builds, caught on its way out of build_F
    caught = []
    build_F = mk.build_F

    def spy(*args, **kwargs):
        caught.append(build_F(*args, **kwargs))
        return caught[-1]

    monkeypatch.setattr(mk, "build_F", spy)
    ch.full_report(sd)
    return caught[0]


def test_full_report_F_residue_oracle(monkeypatch):
    # 1 - S = -2i/(k-i): single pole at k = i gives F_s = 2 e^{-x} for x > 0
    # and 0 for x < 0; the taper smooths the jump over ~pi/(TAPER_FRAC *
    # k_max), so the pointwise check stays off that band
    kg = MomentumGrid.make(200.0, 0.01)
    s = (kg.nodes + 1j) / (kg.nodes - 1j)
    s[kg.zero_index] = -1.0
    F = _report_F(monkeypatch, ScatteringData(kgrid=kg, s_values=s, s_at_zero_sign=-1))
    x = F.xgrid.nodes
    mask = x >= 0.25
    assert np.max(np.abs(F.f_values - 2 * np.exp(-x))[mask]) < 1e-3
    # the tapered x = 0 node carries the midpoint of the jump, 1
    assert F.f_values[0] == pytest.approx(1.0, abs=1e-2)


def test_full_report_F_is_tapered_transform(monkeypatch, fw_well):
    # full_report's F is the trapezoid transform of the windowed 1 - S
    # plus F_d: build_F's tail terms add nothing to a window that is 0 at
    # both grid ends
    sd = fw_well.sd
    F = _report_F(monkeypatch, sd)
    kg, x = sd.kgrid, F.xgrid.nodes
    w = quadrature_weights(kg.n, kg.dx) * ch._taper_window(kg.n)
    fs = _oscillatory_sum(w * (1.0 - sd.s_values), kg.nodes, kg.dx, x, F.xgrid.dx).real / (2 * np.pi)
    fd = np.exp(-np.outer(x, sd.kappas)) @ sd.norming
    assert np.max(np.abs(F.f_values - (fs + fd))) <= 1e-13


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


def test_thresholds_positive(kgrid_coarse):
    sd = ScatteringData(kgrid=kgrid_coarse, s_values=np.ones(kgrid_coarse.n, complex))
    for tol in (0.0, -1e-6):
        with pytest.raises(DataError, match="tol must be positive"):
            ch.check_symmetry_unitarity(sd, tol)

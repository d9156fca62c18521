"""Acceptance suite: every exit criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute.  Default working grids: x in [0, 40] with dx = 0.01, k in
[-200, 200] with dk = 0.01 for Fourier steps and dk = 0.05 elsewhere;
deviations (finer F sampling for the extraction roundtrip, coarser rows
for the dense solves) are stated inline where the numerics require them.
"""

import numpy as np
import pytest

from conftest import reflectionless_data, well_oracle
from halfline import characterize as ch
from halfline import forward as fw
from halfline import marchenko as mk
from halfline import riemann as rm
from halfline.model import (
    BoundState,
    MarchenkoInput,
    MomentumGrid,
    RadialGrid,
    ScatteringData,
    TransformationKernel,
)
from halfline.numkit import winding_number
from halfline.potentials import sech2_potential, square_well_potential


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {description}: {status}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def soliton_marchenko_input(dx: float, hi: float = 80.0) -> MarchenkoInput:
    g = RadialGrid.make(hi, dx)
    f = 2.0 * np.exp(-g.nodes)
    return MarchenkoInput(xgrid=g, fs_values=f, fd_values=np.zeros_like(f))


def invert_from_input(F: MarchenkoInput, x_max: float):
    """data-free inversion: Marchenko rows from a given F, then the diagonal
    derivative (the F => A => q part of the pipeline)."""
    xg = RadialGrid.make(x_max, F.xgrid.dx)
    K = TransformationKernel(grid=xg, block=mk.solve_kernel(F, x_max))
    return mk.recover_potential(K), K


def analytic_sech2_data(kgrid: MomentumGrid) -> ScatteringData:
    s = (kgrid.nodes + 1j) / (kgrid.nodes - 1j)
    if kgrid.zero_index is not None:
        s[kgrid.zero_index] = -1.0
    return ScatteringData(kgrid=kgrid, s_values=s, s_at_zero_sign=-1)


def test_criterion_1_zero_case(fw_zero, kgrid_fourier):
    s_dev = float(np.max(np.abs(fw_zero.sd.s_values - 1.0)))
    sd = ScatteringData(kgrid=kgrid_fourier, s_values=np.ones(kgrid_fourier.n, complex))
    q = mk.invert(sd, mk.InversionConfig(x_max=40.0, dx=0.05))
    q_dev = float(np.max(np.abs(q.values)))
    ok = s_dev < 1e-10 and fw_zero.sd.j_count == 0 and q_dev < 1e-8
    report(1, "zero potential forward and inverse", ok, f"max|S-1|={s_dev:.1e}, J={fw_zero.sd.j_count}, max|q|={q_dev:.1e}")


def test_criterion_2_soliton_closed_form():
    # invert of the data F(p) = 2 e^{-p} (the closed-form route the
    # criterion names as equivalent to sd with S = (k+i)/(k-i), J = 0)
    # A(0,0) from the kernel on [0, 20]: the row's tail beyond y = 20 is
    # e^{-20}, and |A(0,0) + 1| equals that of the [0, 40] row to 1e-15
    F = soliton_marchenko_input(dx=0.025)
    a00_err = abs(mk.solve_kernel(F, 20.0)[0, 0] + 1.0)
    F2 = soliton_marchenko_input(dx=0.05)
    q, _ = invert_from_input(F2, x_max=40.0)
    ref = -2.0 / np.cosh(q.grid.nodes) ** 2
    mask = q.grid.nodes <= 8.0
    q_err = float(np.max(np.abs(q.values - ref)[mask]))
    ok = a00_err <= 1e-6 and q_err <= 5e-3
    report(2, "soliton-type closed-form inversion", ok, f"|A(0,0)+1|={a00_err:.2e}, max|q+2sech^2|={q_err:.2e} on [0,8]")


def test_criterion_3_forward_oracle(fw_sech2):
    kg = fw_sech2.sd.kgrid
    band = np.abs(kg.nodes) <= 20.0
    f_err = float(np.max(np.abs(fw_sech2.f0 - kg.nodes / (kg.nodes + 1j))[band]))
    ref_s = (kg.nodes + 1j) / (kg.nodes - 1j)
    ref_s[kg.zero_index] = -1.0
    # S amplifies the f error by 1/|f| near the resonance zero; compare S
    # off the innermost nodes and f uniformly
    s_band = band & (np.abs(kg.nodes) >= 0.2)
    s_err = float(np.max(np.abs(fw_sech2.sd.s_values - ref_s)[s_band]))
    idx, _ = winding_number(fw_sech2.sd.s_values)
    ok = (
        f_err <= 1e-4
        and s_err <= 1e-4
        and fw_sech2.sd.s_at_zero_sign == -1
        and idx == -1
    )
    report(3, "sech^2 forward oracle", ok, f"max|f-k/(k+i)|={f_err:.2e}, max|S-ref|={s_err:.2e}, index={idx}")


def test_criterion_4_square_well_roundtrip(q_well, fw_well):
    kappa_ref = well_oracle().kappas()[0]
    scan = fw.find_bound_states(q_well)
    kappa_err = abs(scan.kappas[0] - kappa_ref) if scan.kappas else np.inf
    _, norm_report = fw.norming_constants(q_well, scan.kappas)
    rel = norm_report[0]["rel_diff"]
    idx, _ = winding_number(fw_well.sd.s_values)
    res = mk.invert_full(fw_well.sd, mk.InversionConfig(dx=0.05))
    q = res.potential
    ref = np.interp(q.grid.nodes, q_well.grid.nodes, q_well.values)
    l1 = float(
        np.trapezoid(np.abs(q.values - ref), dx=q.grid.dx)
        / np.trapezoid(np.abs(ref), dx=q.grid.dx)
    )
    ok = len(scan.kappas) == 1 and kappa_err <= 1e-6 and rel <= 1e-3 and idx == -2 and l1 <= 0.05
    report(
        4,
        "square-well round trip",
        ok,
        f"|kappa-oracle|={kappa_err:.1e}, norming cross-check={rel:.1e}, index={idx}, relL1={l1:.2%}",
    )


def test_criterion_5_reversibility_suite(fw_sech2, fw_well, fw_zero, kgrid_fourier):
    details = []
    ok = True

    def kernel_roundtrip(sd, y_max):
        # A -> F -> A seeded by Marchenko rows of the built F: Simpson rows
        # both ways, and the default support cut of f_from_kernel
        F = mk.build_F(sd, 2 * y_max, 0.05)
        xg = RadialGrid.make(y_max, 0.05)
        vals = mk.solve_kernel(F, y_max)
        K = TransformationKernel(grid=xg, block=vals)
        F_rec = mk.f_from_kernel(K)
        vals2 = mk.solve_kernel(F_rec, y_max)
        return float(np.max(np.abs(vals2 - vals)))

    for name, r in (("zero", fw_zero), ("sech2", fw_sech2)):
        afa = kernel_roundtrip(r.sd, 40.0)
        ok &= afa <= 1e-5
        details.append(f"{name}: A->F->A={afa:.1e}")
    # with a bound state the half-line A => F map carries a homogeneous
    # e^{-kappa p} mode (f(i kappa) = 0), amplifying far-tail data errors by
    # e^{kappa y_max}; the roundtrip is evaluated on a domain matched to the
    # kernel support (A vanishes beyond x + y = 2 for the well), with the
    # norming constant resolved on a dx = 0.005 forward grid
    q_fine = square_well_potential(RadialGrid.make(40.0, 0.005))
    sd_fine = fw.s_matrix(q_fine, MomentumGrid.make(200.0, 0.01))
    afa = kernel_roundtrip(sd_fine, 4.0)
    ok &= afa <= 1e-5
    details.append(f"well: A->F->A={afa:.1e}")
    # F -> data on admissible two-state data (S = conj(w)/w with the
    # reflectionless w = prod (k - i kappa_j)/(k + i kappa_j)): F on
    # [0, 20] at dx = 0.0125, read through the kernel on [0, 10]
    states = ((1.0, 2.0), (2.0, 3.0))
    F = mk.build_F(reflectionless_data(kgrid_fourier, states), 20.0, 0.0125)
    sd = mk.data_from_F(F)
    got = [(b.kappa, b.s) for b in sd.bound_states]
    err = np.max(np.abs(np.subtract(got, states)), axis=0) if sd.j_count == 2 else np.full(2, np.inf)
    ok &= bool(np.all(err <= 1e-4))
    details.append(f"F -> data on {{(1,2),(2,3)}}: J={sd.j_count}, |dkappa|={err[0]:.1e}, |ds|={err[1]:.1e}")
    # S -> F -> S on the corpus: the half-line F on [0, 2 x_max] at
    # dx = 0.0125, compared on |k| <= 100, where k dx <= 1.25 keeps the
    # Simpson sums of e^{iky} accurate
    for name, r, x_max in (("sech2", fw_sech2, 15.0), ("well", fw_well, 10.0)):
        F = mk.build_F(r.sd, 2 * x_max, 0.0125)
        sd2 = mk.data_from_F(F)
        k2 = sd2.kgrid.nodes
        idx = np.round((k2 - r.sd.kgrid.nodes[0]) / r.sd.kgrid.dk).astype(int)
        band = np.abs(k2) <= 100.0
        ds = float(np.max(np.abs(sd2.s_values - r.sd.s_values[idx])[band]))
        ok &= ds <= 1e-3
        details.append(f"{name}: S->F->S={ds:.1e}")
    report(5, "reversibility suite", ok, "; ".join(details))


def test_criterion_6_riemann_factorization(q_well):
    kg = MomentumGrid.make(200.0, 0.05)
    k = kg.nodes
    # Blaschke-squared case: exact algebraic cancellation
    sd2 = ScatteringData(
        kgrid=kg, s_values=((k + 1j) / (k - 1j)) ** 2, bound_states=(BoundState(1.0, 1.0),)
    )
    sol2 = rm.solve_riemann(sd2)
    band = np.abs(k) <= 20.0
    blaschke_err = float(np.max(np.abs(sol2.f0 - (k - 1j) / (k + 1j))[band]))
    # resonance case
    sd3 = analytic_sech2_data(kg)
    sol3 = rm.solve_riemann(sd3)
    rep3 = rm.verify_factorization(sol3)
    f0_at_zero = abs(sol3.f0[kg.zero_index])
    res_resid = rep3["boundary_residual"]
    h = kg.n // 2
    mirrored = np.array_equal(sol3.f0[:h][::-1], np.conj(sol3.f0[kg.n - h :]))
    # forward cross-check on the square well
    sdw = fw.s_matrix(q_well, kg)
    f0w, _ = fw.jost_boundary(q_well, kg)
    solw = rm.solve_riemann(sdw)
    well_err = float(np.max(np.abs(solw.f0 - f0w)[band]))
    ok = blaschke_err <= 1e-6 and f0_at_zero <= 1e-3 and res_resid <= 1e-4 and mirrored and well_err <= 1e-3
    report(
        6,
        "Riemann factorization",
        ok,
        f"Blaschke^2={blaschke_err:.1e}, |f(0)|={f0_at_zero:.1e}, residual={res_resid:.1e}, "
        f"f(-k) = conj f(k): {mirrored}, well vs forward={well_err:.1e}",
    )


def test_criterion_7_characterization(fw_zero, fw_sech2, fw_well):
    ok = True
    details = []
    for name, r in (("zero", fw_zero), ("sech2", fw_sech2), ("well", fw_well)):
        rep = ch.full_report(r.sd)
        ok &= rep.passed
        details.append(f"{name}: {'pass' if rep.passed else rep.failures()}")
    sd = fw_well.sd
    b = sd.bound_states[0]
    tampers = {
        "negated s": (
            ScatteringData(
                kgrid=sd.kgrid, s_values=sd.s_values,
                bound_states=(BoundState(b.kappa, -b.s),), s_at_zero_sign=sd.s_at_zero_sign,
            ),
            "discrete_data",
        ),
        "S scaled 1.01": (
            ScatteringData(
                kgrid=sd.kgrid, s_values=1.01 * sd.s_values,
                bound_states=sd.bound_states, s_at_zero_sign=sd.s_at_zero_sign,
            ),
            "symmetry_unitarity",
        ),
        "Blaschke injected": (
            ScatteringData(
                kgrid=sd.kgrid,
                s_values=sd.s_values * ((sd.kgrid.nodes + 1.5j) / (sd.kgrid.nodes - 1.5j)) ** 2,
                bound_states=sd.bound_states,
                s_at_zero_sign=sd.s_at_zero_sign,
            ),
            "index",
        ),
    }
    for name, (tampered, expected) in tampers.items():
        rep = ch.full_report(tampered)
        single_fault = rep.failures() == [expected]
        ok &= single_fault
        details.append(f"{name} -> {rep.failures()}")
    report(7, "characterization necessity and tampers", ok, "; ".join(details))


def test_criterion_8_convergence():
    # convergence sanity on the closed-form inversion (Simpson rows, the
    # five-point derivative): halving dx must cut the sup error by at
    # least 3x
    errs = []
    for dx in (0.1, 0.05):
        F = soliton_marchenko_input(dx=dx)
        q, _ = invert_from_input(F, x_max=40.0)
        ref = -2.0 / np.cosh(q.grid.nodes) ** 2
        mask = q.grid.nodes <= 8.0
        errs.append(float(np.max(np.abs(q.values - ref)[mask])))
    ratio = errs[0] / errs[1]
    ok = ratio >= 3.0
    report(8, "grid convergence of the inversion", ok, f"sup errors {errs[0]:.2e} -> {errs[1]:.2e}, ratio {ratio:.2f}")

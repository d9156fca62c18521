"""The piecewise-constant oracle of conftest, pinned against values computed
independently of it: roots of closed-form bound-state equations, the
closed-form Jost function of the wall well, and mpmath norming constants."""

import numpy as np
import pytest

from conftest import PiecewiseOracle, well_oracle


def test_oracle_kappa_of_the_wall_and_continuum_wells():
    # brentq on the matching conditions: omega cot(omega) = -kappa,
    # omega = sqrt(4 - kappa^2), for the wall well, and sinh(kappa x) matched
    # across [4, 5) to e^{-kappa x} for the displaced one
    assert well_oracle(0.0).kappas() == pytest.approx((0.638045048285,), abs=5e-13)
    assert well_oracle(4.0).kappas() == pytest.approx((1.34721488619,), abs=5e-12)


@pytest.mark.parametrize(
    "a, s",
    [(0.0, 2.5069135), (2.0, 1420.9138), (4.0, 3.1195245e5), (6.0, 6.8306431e7), (8.0, 1.4956484e10), (10.0, 3.2748952e12), (20.0, 1.6483024e24)],
)
def test_oracle_norming_constant_of_displaced_wells(a, s):
    # 60-digit mpmath values; s grows like e^{2 kappa a}, and the matched
    # integrals carry it without cancellation up to a = 20
    assert well_oracle(a).norming() == pytest.approx((s,), rel=1e-7)


def test_oracle_jost_of_the_wall_well():
    # plane-wave matching at the edge, omega = sqrt(k^2 + 4):
    # f(0,k) = e^{ik} [cos omega - i (k/omega) sin omega] and
    # f'(0,k) = e^{ik} [i k cos omega + omega sin omega]
    oracle = well_oracle(0.0)
    for k in (0.0, 0.5, 2.0, 30.0):
        om = np.sqrt(k * k + 4.0)
        f_ref = np.exp(1j * k) * (np.cos(om) - 1j * (k / om) * np.sin(om))
        fp_ref = np.exp(1j * k) * (1j * k * np.cos(om) + om * np.sin(om))
        f0, fp0 = oracle.jost(k)
        assert abs(f0 - f_ref) <= 1e-13 * max(1.0, k)
        assert abs(fp0 - fp_ref) <= 1e-13 * max(1.0, k * k)


@pytest.mark.parametrize(
    "width, depth, count",
    [(1, 64, 3), (1, 200, 5), (2, 100, 6), (2, 200, 9), (2, 400, 13), (3, 64, 8), (3, 100, 10), (3, 400, 19)],
)
def test_oracle_counts_the_states_of_deep_wall_wells(width, depth, count):
    # a wall well -V on [0, w] has one state for each half-period of
    # sin(p w), p = sqrt(V - kappa^2), past the first quarter: the kappa_j
    # solve p cot(p w) = -kappa, and their number is ceil(w sqrt(V)/pi - 1/2)
    kappas = PiecewiseOracle([0.0, width], [-depth]).kappas()
    assert len(kappas) == count == int(np.ceil(width * np.sqrt(depth) / np.pi - 0.5))
    p = np.sqrt(depth - np.square(kappas))
    assert np.all(np.diff(kappas) > 0) and 0 < kappas[0] and kappas[-1] < np.sqrt(depth)
    # the residual's slope in kappa is of order w V: a kappa good to a few
    # ulps leaves about 1e-14 w V
    residual = p * np.cos(p * width) + np.asarray(kappas) * np.sin(p * width)
    np.testing.assert_allclose(residual, 0.0, atol=1e-14 * width * depth)


@pytest.mark.parametrize(
    "a, gap, kappas",
    [(6.0, 3.0, (1.314962, 1.374922)), (6.0, 5.0, (1.345197, 1.349214)), (6.0, 7.0, (1.347088, 1.347359)), (10.0, 9.0, (1.347214, 1.347233))],
)
def test_oracle_separates_the_pairs_of_double_wells(a, gap, kappas):
    # depth-4, width-1 wells on [a, a + 1) and [a + gap, a + gap + 1): the
    # pairs split by 6e-2 down to 1.9e-5, most of them below the library's
    # scan step; the Sturm count brackets each state alone.  The reference
    # values were computed independently and are truncated to 6 decimals.
    oracle = PiecewiseOracle([0.0, a, a + 1.0, a + gap, a + gap + 1.0], [0.0, -4.0, 0.0, -4.0])
    got = oracle.kappas()
    assert len(got) == 2
    assert np.all((np.array(kappas) <= got) & (np.array(got) < np.array(kappas) + 1e-6))


def test_oracle_norming_constants_of_a_far_double_well():
    # wells on [3, 4) and [16, 17): the upper state lives in the right well,
    # and matching at the left well would cost it 3e-4 of s.  The reference
    # is 80-digit mpmath, with f marched from the right all the way to 0
    # (its cancellation is harmless there) and kappa refined by findroot.
    oracle = PiecewiseOracle([0.0, 3.0, 4.0, 16.0, 17.0], [0.0, -4.0, 0.0, -4.0])
    assert oracle.kappas() == pytest.approx((1.3470882244837832, 1.3472240583793564), abs=1e-12)
    assert oracle.norming() == pytest.approx((3267893768082.4087, 3.4379619321613505e19), rel=1e-8)

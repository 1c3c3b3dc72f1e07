import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdfactor.ballantine import FactorOptions, factor_rotation2, verify
from pdfactor.errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidParams,
    InvalidStep,
    NotARotation,
    NotPositiveDefinite,
    NumericalFailure,
    TargetUnreachable,
)
from pdfactor.matfun import SPD_RTOL, expm, spd_sqrt
from pdfactor.planar import (
    ChainParams,
    FactorChain,
    _LAM_GRID,
    _chain_factors,
    _max_phi,
    build_chain,
    chain_covariances,
    chain_product,
    gradient_generator,
    net_rotation,
    phi_sweep,
    plan_scheme,
    rotation2,
    solve_theta,
)
from pdfactor.flowsim import FlowSegment, ParticleCloud, segments_from_chain, simulate
from pdfactor.transport import ot_map, ot_residual

from _helpers import chain_angle_oracle, product_right_to_left, rng

DEG = math.pi / 180.0
EPS = np.finfo(float).eps

# Where the lam=30, k=5 net angle actually crosses pi, and what it actually
# is at theta = 70.3 deg. The 70.3 figure quoted alongside this scheme is a
# coarser estimate; measured values below are stable to ~1e-9 deg.
TRUE_CROSSING_DEG = 70.863998775932
PHI_AT_70P3_DEG = 179.292480890782

# Two-decimal reference factors for the -I instance. Their sign convention
# corresponds to theta = -70.3 deg under this package's rotation direction.
DISPLAY_FACTORS = [
    np.array([[5.48, 0.0], [0.0, 0.18]]),
    np.array([[0.34, 0.92], [0.92, 5.50]]),
    np.array([[4.33, -2.35], [-2.35, 1.50]]),
    np.array([[3.32, 2.71], [2.71, 2.52]]),
    np.array([[1.58, -2.34], [-2.34, 4.08]]),
]


class TestChainParams:
    def test_rejects_lam_below_one(self):
        with pytest.raises(InvalidParams):
            ChainParams(lam=0.5, theta=0.3, k=3)

    def test_rejects_small_k(self):
        with pytest.raises(InvalidParams):
            ChainParams(lam=2.0, theta=0.3, k=2)

    def test_rejects_fractional_k(self):
        with pytest.raises(InvalidParams):
            ChainParams(lam=2.0, theta=0.3, k=3.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParams):
            ChainParams(lam=math.inf, theta=0.3, k=3)
        with pytest.raises(InvalidParams):
            ChainParams(lam=2.0, theta=math.nan, k=3)

    def test_fields_are_frozen(self):
        # build_chain trusts its params: k = 2 set afterwards would build a
        # two-factor chain. replace makes a new, checked ChainParams.
        p = ChainParams(lam=2.0, theta=0.3, k=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.k = 2
        with pytest.raises(InvalidParams):
            dataclasses.replace(p, k=2)
        assert len(build_chain(p).factors) == 3

    def test_negative_theta_allowed(self):
        p = ChainParams(lam=2.0, theta=-1.0, k=4)
        assert p.theta == -1.0


@pytest.mark.parametrize(
    "k, lam",
    [(2, 2.0), (3.5, 2.0), ("x", 2.0), (None, 2.0),
     (3, 0.5), (3, math.nan), (3, math.inf), (3, "x"), (10**20, 2.0)],
)
def test_every_entry_point_validates_k_and_lam_alike(k, lam):
    calls = [
        lambda: ChainParams(lam, 0.3, k),
        lambda: phi_sweep(lam, k, 1.0, 10),
        lambda: solve_theta(lam, k, 0.5),
        lambda: plan_scheme(0.5, k, lam),
        lambda: FactorOptions(k_rotation=k, lam_budget=lam),
    ]
    for call in calls:
        with pytest.raises(InvalidParams):
            call()


@pytest.mark.parametrize(
    "value",
    [None, "x", 1j, 10**400, math.nan, math.inf],
    ids=["none", "str", "complex", "huge_int", "nan", "inf"],
)
def test_every_scalar_parameter_rejects_non_numbers(value):
    # One validator turns each scalar into a finite float, so a value that
    # is not one raises the package's own error, not a bare TypeError.
    I2 = np.eye(2)
    calls = [
        (lambda: ChainParams(2.0, value, 3), InvalidParams),
        (lambda: rotation2(value), InvalidParams),
        (lambda: phi_sweep(2.0, 3, value, 10), InvalidParams),
        (lambda: phi_sweep(2.0, 3, 1.0, value), InvalidParams),
        (lambda: solve_theta(1.25, 5, value), InvalidParams),
        (lambda: plan_scheme(value, 5, 100.0), InvalidParams),
        (lambda: gradient_generator(I2, 0.5, value), InvalidParams),
        (lambda: factor_rotation2(value), InvalidParams),
        (lambda: FactorOptions(tol_verify=value), InvalidParams),
        (lambda: verify(FactorChain([I2]), I2, value), InvalidParams),
        (lambda: FlowSegment(np.zeros((2, 2)), value), InvalidParams),
        (lambda: segments_from_chain(FactorChain([I2]), [value]), InvalidParams),
        (lambda: simulate([FlowSegment(np.zeros((2, 2)))], ParticleCloud(I2), dt=value),
         InvalidStep),
        (lambda: ParticleCloud(I2, time=value), InvalidInput),
    ]
    for call, error in calls:
        with pytest.raises(error):
            call()


class TestChainCovariances:
    def test_lam_one_all_identity(self):
        covs = chain_covariances(ChainParams(1.0, 0.77, 3))
        assert len(covs) == 4
        for S in covs:
            assert np.array_equal(S, np.eye(2))

    def test_quarter_turn_swaps_axes(self):
        covs = chain_covariances(ChainParams(4.0, math.pi / 2.0, 3))
        assert_allclose(covs[1], np.diag([4.0, 0.25]), atol=1e-15)
        assert_allclose(covs[2], np.diag([0.25, 4.0]), atol=1e-12)

    def test_interior_spectra_and_dets(self):
        covs = chain_covariances(ChainParams(30.0, 70.3 * DEG, 5))
        assert len(covs) == 6
        for S in covs[1:-1]:
            assert_allclose(
                np.linalg.eigvalsh(S), [1.0 / 30.0, 30.0], atol=1e-12
            )
        for S in covs:
            assert abs(np.linalg.det(S) - 1.0) <= 1e-12


class TestBuildChain:
    def test_lam_one_identity_factors_exact(self):
        ch = build_chain(ChainParams(1.0, 0.3, 4))
        assert len(ch.factors) == 4
        for M in ch.factors:
            assert np.array_equal(M, np.eye(2))

    def test_first_and_last_factor_forms(self):
        p = ChainParams(9.0, 0.7, 4)
        ch = build_chain(p)
        assert_allclose(ch.factors[0], np.diag([3.0, 1.0 / 3.0]), atol=0)
        covs = chain_covariances(p)
        last = np.linalg.inv(spd_sqrt(covs[-2]))
        assert_allclose(ch.factors[-1], last, atol=1e-12)

    def test_matches_two_decimal_reference(self):
        ch = build_chain(ChainParams(30.0, -70.3 * DEG, 5))
        for M, ref in zip(ch.factors, DISPLAY_FACTORS):
            assert np.max(np.abs(M - ref)) <= 0.01

    def test_theta_sign_flip_conjugates_by_reflection(self):
        J = np.diag([1.0, -1.0])
        pos = build_chain(ChainParams(5.0, 0.9, 5)).factors
        neg = build_chain(ChainParams(5.0, -0.9, 5)).factors
        for Mp, Mn in zip(pos, neg):
            assert_allclose(Mn, J @ Mp @ J, atol=1e-12)

    def test_product_orthogonal(self):
        P = build_chain(ChainParams(4.0, 0.6, 3)).product()
        assert np.linalg.norm(P @ P.T - np.eye(2)) <= 1e-10

    def test_telescope_and_unimodularity(self):
        r = rng(30)
        for _ in range(20):
            lam = float(np.exp(r.uniform(0.0, np.log(50.0))))
            theta = float(r.uniform(-math.pi, math.pi))
            k = int(r.integers(3, 8))
            p = ChainParams(lam, theta, k)
            covs = chain_covariances(p)
            ch = build_chain(p)
            for j, M in enumerate(ch.factors, start=1):
                assert ot_residual(M, covs[j - 1], covs[j]) <= 1e-9 * (
                    1 + np.linalg.norm(covs[j])
                )
                # det M rounds with the conditioning of the waypoints
                # (condition lam^2): the closed form leaves |det M - 1| up
                # to 3.3 lam^3 eps over 301 base seeds of this stream
                # (lam in [1, 50]; the general transport map left 11.4), so
                # the gate scales with lam^3 as the one above scales with
                # |Sb|.
                assert abs(np.linalg.det(M) - 1.0) <= 32.0 * lam**3 * EPS
            P = ch.product()
            assert np.linalg.norm(P @ P.T - np.eye(2)) <= 1e-9

    def test_endpoint_spectra(self):
        for lam in (2.0, 17.5, 400.0):
            ch = build_chain(ChainParams(lam, 1.1, 5))
            ends = [ch.factors[0], ch.factors[-1]]
            expected = np.array([1.0 / math.sqrt(lam), math.sqrt(lam)])
            for M in ends:
                assert_allclose(np.linalg.eigvalsh(M), expected, atol=1e-10)

    def test_extreme_lam_fails_certification(self):
        # The first factor diag(sqrt(lam), 1/sqrt(lam)) has condition lam,
        # which the SPD certificate refuses past 1/SPD_RTOL = 1e12.
        with pytest.raises(NumericalFailure):
            build_chain(ChainParams(1e13, 80.0 * DEG, 4))

    def test_lost_certificate_names_first_failing_factor(self):
        # A quarter turn maps diag(lam, 1/lam) to diag(1/lam, lam), so the
        # second factor has condition lam^2 while the first has lam. On a
        # grid of planes the error names the first plane that fails.
        with pytest.raises(NumericalFailure) as one:
            build_chain(ChainParams(1e7, math.pi / 2.0, 3))
        assert str(one.value).startswith("factor 2 lost SPD certification at lam=1e+07;")
        with pytest.raises(NumericalFailure) as grid:
            _chain_factors(np.array([4.0, 1e7, 1e13]),
                           np.array([0.3, math.pi / 2.0, 0.3]), 3)
        assert str(grid.value) == str(one.value)

    def test_lam_1e4_builds_certified(self):
        ch = build_chain(ChainParams(1e4, 80.0 * DEG, 4))
        for M in ch.factors:
            d = np.linalg.eigvalsh(M)
            assert d[0] > SPD_RTOL * max(1.0, d[-1])
        P = ch.product()
        assert np.linalg.norm(P @ P.T - np.eye(2)) <= 1e-10
        assert abs(np.linalg.det(P) - 1.0) <= 1e-10

    def test_seeded_factors_certified_and_match_transport_route(self):
        # Every factor clears the SPD certificate and solves
        # M S_{j-1} M = S_j within the gate of the test above. For lam <= 30
        # it also matches the general map ot_map, whose intermediate
        # S^{1/2} S' S^{1/2} has condition lam^4: the relative gap is at most
        # 1.3e-11 over 301 base seeds of this stream (21,949 factors).
        r = rng(43)
        for _ in range(30):
            lam = float(np.exp(r.uniform(0.0, math.log(1e3))))
            theta = math.pi - float(r.uniform(0.0, 2.0 * math.pi))
            k = int(r.integers(3, 8))
            p = ChainParams(lam, theta, k)
            covs = chain_covariances(p)
            for j, M in enumerate(build_chain(p).factors, start=1):
                d = np.linalg.eigvalsh(M)
                assert d[0] > SPD_RTOL * max(1.0, d[-1])
                assert ot_residual(M, covs[j - 1], covs[j]) <= 1e-9 * (
                    1 + np.linalg.norm(covs[j])
                )
                if lam <= 30.0:
                    ref = ot_map(covs[j - 1], covs[j])
                    assert np.linalg.norm(M - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_three_factor_closed_forms(self):
        lam, theta = 6.0, 0.8
        U = rotation2(theta)
        M1 = np.diag([math.sqrt(lam), 1.0 / math.sqrt(lam)])
        M1i = np.linalg.inv(M1)
        M2 = M1i @ spd_sqrt(M1 @ U @ M1 @ M1 @ U.T @ M1) @ M1i
        S1 = np.diag([lam, 1.0 / lam])
        M3 = np.linalg.inv(spd_sqrt(U @ S1 @ U.T))
        ch = build_chain(ChainParams(lam, theta, 3))
        assert_allclose(ch.factors[0], M1, atol=1e-11)
        assert_allclose(ch.factors[1], M2, atol=1e-11)
        assert_allclose(ch.factors[2], M3, atol=1e-11)

    def test_four_factor_closed_forms(self):
        lam, theta = 6.0, 0.8
        U = rotation2(theta)
        S1 = np.diag([lam, 1.0 / lam])
        U2 = rotation2(2.0 * theta)
        ch = build_chain(ChainParams(lam, theta, 4))
        # Middle factors are rotated copies of each other; the closer is
        # conjugation by one step angle.
        assert_allclose(ch.factors[2], U @ ch.factors[1] @ U.T, atol=1e-11)
        M4 = np.linalg.inv(spd_sqrt(U2 @ S1 @ U2.T))
        assert_allclose(ch.factors[3], M4, atol=1e-11)


class TestNetRotation:
    def test_identity_chain(self):
        assert net_rotation(FactorChain([np.eye(2)] * 3)) == 0.0

    def test_intro_three_factor_chain(self):
        chain = FactorChain(
            [
                np.diag([0.5, 2.0]),
                np.array([[2.0, 1.0], [1.0, 1.0]]),
                np.array([[1.5652, -1.3416], [-1.3416, 1.7889]]),
            ]
        )
        phi = net_rotation(chain)
        assert abs(phi / DEG - 26.565) <= 0.05

    def test_angle_at_70p3(self):
        ch = build_chain(ChainParams(30.0, 70.3 * DEG, 5))
        assert abs(net_rotation(ch) / DEG - PHI_AT_70P3_DEG) <= 1e-6

    def test_minus_identity_at_solved_theta(self):
        th = solve_theta(30.0, 5, math.pi)
        ch = build_chain(ChainParams(30.0, th, 5))
        assert np.linalg.norm(ch.product() + np.eye(2)) <= 1e-10
        assert abs(net_rotation(ch) - math.pi) <= 1e-9

    def test_reversal_realizes_negative_angle(self):
        ch = build_chain(ChainParams(12.0, 0.8, 5))
        phi = net_rotation(ch)
        reversed_product = chain_product(list(reversed(ch.factors)))
        assert_allclose(reversed_product, rotation2(-phi), atol=1e-9)

    def test_odd_symmetry_in_theta(self):
        for lam, theta, k in [(6.0, 0.4, 3), (30.0, 0.9, 5)]:
            pos = net_rotation(build_chain(ChainParams(lam, theta, k)))
            neg = net_rotation(build_chain(ChainParams(lam, -theta, k)))
            assert abs(pos + neg) <= 1e-9

    def test_nonrotation_rejected(self):
        with pytest.raises(NotARotation):
            net_rotation(FactorChain([np.diag([2.0, 1.0])]))

    def test_product_past_the_range_rejected_without_warning(self):
        # P P^T and det P of 1e200 I are past the double range: both read
        # inf, with no overflow warning in place of the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotARotation, match="defect inf, det inf"):
                net_rotation(FactorChain([1e200 * np.eye(2)]))

    def test_half_turn_past_the_cut_reads_pi(self):
        # A product a rounding error past pi reads pi, not -pi; an angle
        # genuinely short of -pi keeps its sign.
        assert net_rotation(FactorChain([rotation2(math.pi + 1e-13)])) == math.pi
        assert net_rotation(FactorChain([rotation2(-math.pi + 1e-6)])) < 0.0

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            net_rotation(FactorChain([np.eye(3)]))


class TestPhiSweep:
    def test_lam_one_is_flat_zero(self):
        t = phi_sweep(1.0, 4, 1.5, 50)
        assert np.array_equal(t.phi, np.zeros(50))

    def test_starts_at_zero(self):
        t = phi_sweep(4.0, 3, math.pi / 2.0, 64)
        assert t.phi[0] == 0.0
        assert t.theta[0] == 0.0
        assert np.all(np.diff(t.theta) > 0)

    def test_continuity_invariant(self):
        t = phi_sweep(30.0, 5, math.pi, 2000)
        assert np.max(np.abs(np.diff(t.phi))) <= math.pi / 2.0

    def test_pi_crossing_location(self):
        t = phi_sweep(30.0, 5, math.pi / 2.0, 2000)
        g = t.phi - math.pi
        i = int(np.nonzero(g[:-1] * g[1:] < 0)[0][0])
        frac = -g[i] / (g[i + 1] - g[i])
        crossing = t.theta[i] + frac * (t.theta[i + 1] - t.theta[i])
        assert abs(crossing / DEG - TRUE_CROSSING_DEG) <= 2e-3

    def test_matches_angle_oracle(self):
        t = phi_sweep(7.0, 4, 2.0, 300)
        expected = np.array([chain_angle_oracle(x, 7.0, 4) for x in t.theta])
        assert_allclose(t.phi, expected, atol=1e-9)

    def test_matches_built_chain_mod_two_pi(self):
        # The closed-form angle against the product of the built factors,
        # on both halves of the theta period.
        r = rng(41)
        cases = [(200.0, 7, 1.5 * math.pi), (1.0, 3, 4.0)]
        for _ in range(100):
            cases.append((float(r.uniform(1.0, 200.0)), int(r.integers(3, 8)),
                          float(r.uniform(0.0, 2.0 * math.pi))))
        for lam, k, theta in cases:
            swept = phi_sweep(lam, k, theta, 4001).phi[-1]
            built = net_rotation(build_chain(ChainParams(lam, theta, k)))
            assert abs(math.remainder(swept - built, 2.0 * math.pi)) <= 2e-7

    def test_coarse_grid_fails_loudly(self):
        with pytest.raises(NumericalFailure):
            phi_sweep(1e4, 4, math.pi / 2.0, 40)

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            phi_sweep(0.5, 3, 1.0, 10)
        with pytest.raises(InvalidParams):
            phi_sweep(2.0, 2, 1.0, 10)
        with pytest.raises(InvalidParams):
            phi_sweep(2.0, 3, -1.0, 10)
        with pytest.raises(InvalidParams):
            phi_sweep(2.0, 3, 1.0, 1)


class TestSolveTheta:
    def test_zero_target(self):
        assert solve_theta(8.0, 4, 0.0) == 0.0

    def test_pi_target_at_lam_30(self):
        th = solve_theta(30.0, 5, math.pi)
        assert abs(th / DEG - TRUE_CROSSING_DEG) <= 1e-6

    def test_forward_evaluation(self):
        th = solve_theta(10.0, 4, 0.5)
        phi = net_rotation(build_chain(ChainParams(10.0, th, 4)))
        assert abs(phi - 0.5) <= 1e-9

    def test_unreachable_reports_max(self):
        with pytest.raises(TargetUnreachable) as info:
            solve_theta(2.0, 3, 3.0)
        assert 0.0 < info.value.max_phi < 3.0

    def test_negative_target_rejected(self):
        with pytest.raises(InvalidParams):
            solve_theta(2.0, 3, -0.1)


# Factor counts of the plan scans: every small k, and two large ones where
# the k-free reach table must hold too.
SCAN_KS = [*range(3, 10), 17, 40]


def _scan_targets(k):
    """The largest net angles of the k-factor chain on the lam grid, and the
    angles in [0, pi] at the first 400 of them and one ulp either side."""
    peaks = _max_phi(_LAM_GRID, k).tolist()
    targets = {
        float(psi)
        for peak in peaks[:400]
        for psi in (np.nextafter(peak, -np.inf), peak, np.nextafter(peak, np.inf))
        if 0.0 <= psi <= math.pi
    }
    return peaks, sorted(targets)


class TestPlanScheme:
    def test_zero_target(self):
        p = plan_scheme(0.0, 4, 100.0)
        assert p.lam == 1.0 and p.theta == 0.0 and p.k == 4

    def test_pi_with_five_factors(self):
        p = plan_scheme(math.pi, 5, 30.0)
        assert p.lam == 1.25**15
        P = build_chain(p).product()
        assert np.linalg.norm(P - rotation2(math.pi)) <= 1e-9

    def test_build_and_measure(self):
        p = plan_scheme(2.0, 4, 100.0)
        assert p.lam <= 100.0
        phi = net_rotation(build_chain(p))
        assert abs(phi - 2.0) <= 1e-8

    def test_smallest_grid_value_wins(self):
        p = plan_scheme(0.05, 5, 100.0)
        q = plan_scheme(0.05, 5, 100.0)
        assert p.lam == q.lam
        # The next grid value down must not reach the target.
        smaller = p.lam / 1.25
        if smaller >= 1.0:
            with pytest.raises(TargetUnreachable):
                solve_theta(smaller, 5, 0.05)

    def test_seeded_plans_take_the_first_grid_value_that_reaches(self):
        def peak(lam, k):
            # Largest value of chain_angle_oracle, at tan(theta) = 1/sqrt(c).
            c = 2.0 / (lam + 1.0 / lam)
            return (k - 2) * math.atan((1.0 - c) / (2.0 * math.sqrt(c)))

        r = rng(42)
        cases = [(math.pi, 5, 30.0), (math.pi, 4, 1e4), (math.pi, 3, 1e4),
                 (170.0 * DEG, 4, 2000.0)]
        for _ in range(150):
            cases.append((math.pi - float(r.uniform(0.0, math.pi)),
                          int(r.integers(3, 8)),
                          float(np.exp(r.uniform(0.0, math.log(1e4))))))
        for psi, k, budget in cases:
            j = 0
            while 1.25**j <= budget and peak(1.25**j, k) < psi:
                j += 1
            lam = 1.25**j
            if lam > budget:
                with pytest.raises(TargetUnreachable) as info:
                    plan_scheme(psi, k, budget)
                assert info.value.max_phi == pytest.approx(
                    peak(1.25 ** (j - 1), k), rel=1e-12
                )
                continue
            p = plan_scheme(psi, k, budget)
            assert (p.lam, p.k) == (lam, k)
            alpha = psi / (k - 2)
            lam_min = math.exp(math.acosh(math.tan(math.pi / 4 + alpha / 2) ** 2))
            assert lam / 1.25 < lam_min * (1 + 1e-9)
            assert lam_min <= lam * (1 + 1e-9)
            # Smallest root: on the rising side of the curve.
            c = 2.0 / (lam + 1.0 / lam)
            assert p.theta <= math.atan(1.0 / math.sqrt(c)) + 1e-12
            assert abs(net_rotation(build_chain(p)) - psi) <= 1e-8
            with pytest.raises(TargetUnreachable) as info:
                solve_theta(1.25 ** (j - 1), k, psi)
            assert info.value.max_phi == pytest.approx(
                peak(1.25 ** (j - 1), k), rel=1e-12
            )

    def test_plans_match_a_scan_from_the_first_grid_value(self):
        # At the largest net angle of each of the first 400 grid values, and
        # one ulp either side of it, the plan is the first grid value from
        # j = 0 on whose largest net angle reaches psi (the scan above, on
        # the closed form as evaluated); past the budget, or at alpha =
        # psi/(k-2) = pi/2, which no lam reaches although the largest angle
        # rounds up to it (k = 3 at pi/2, k = 4 at pi), there is no plan and
        # max_phi is the largest net angle at a grid value within the budget.
        for k in SCAN_KS:
            peaks, targets = _scan_targets(k)
            for psi in targets:
                j = 0
                while j < len(peaks) and peaks[j] < psi:
                    j += 1
                for budget in (1000.0, 1e300):
                    j_top = int(np.searchsorted(_LAM_GRID, budget, side="right")) - 1
                    if j <= j_top and psi / (k - 2) < math.pi / 2.0:
                        assert plan_scheme(psi, k, budget).lam == _LAM_GRID[j]
                        continue
                    with pytest.raises(TargetUnreachable) as info:
                        plan_scheme(psi, k, budget)
                    assert info.value.max_phi == peaks[j_top]

    def test_plan_theta_is_solve_theta_at_the_plan(self):
        # plan_scheme and solve_theta apply one reach rule: every plan's
        # theta is solve_theta's at its lam, bit for bit, and at alpha = pi/2
        # neither reaches the angle, at any budget or lam.
        for k in SCAN_KS:
            for psi in _scan_targets(k)[1]:
                for budget in (1000.0, 1e300):
                    try:
                        p = plan_scheme(psi, k, budget)
                    except TargetUnreachable:
                        continue
                    assert solve_theta(p.lam, k, psi) == p.theta
        for k, psi in ((3, math.pi / 2.0), (4, math.pi)):
            for budget in (1.0, 1000.0, 2.92e32, 1e300):
                with pytest.raises(TargetUnreachable, match="every lam,"):
                    plan_scheme(psi, k, budget)
            for lam in (1.0, 1000.0, 1.25**335, 1e300):
                with pytest.raises(TargetUnreachable, match="every lam,"):
                    solve_theta(lam, k, psi)

    def test_angles_below_the_rounding_of_tan(self):
        # tan^2(pi/4 + alpha/2) rounds below 1 for alpha under about eps;
        # lam_min is 1 there, and the plan takes the first grid step.
        for psi in (1e-300, 1e-17, 1e-16):
            p = plan_scheme(psi, 5, 1000.0)
            assert p.lam == 1.25
            assert abs(net_rotation(build_chain(p)) - psi) <= 1e-15

    def test_pi_unreachable_with_four_factors(self):
        with pytest.raises(TargetUnreachable) as info:
            plan_scheme(math.pi, 4, 50.0)
        assert 2.0 < info.value.max_phi < math.pi

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            plan_scheme(3.5, 5, 100.0)
        with pytest.raises(InvalidParams):
            plan_scheme(-0.1, 5, 100.0)
        with pytest.raises(InvalidParams):
            plan_scheme(1.0, 5, 0.5)


class TestGradientGenerator:
    def test_identity_covariance_gives_zero(self):
        A = gradient_generator(np.eye(2), 1.3, 1.0)
        assert np.max(np.abs(A)) <= 1e-14

    def test_zero_angle_gives_zero(self):
        A = gradient_generator(np.diag([4.0, 1.0]), 0.0, 1.0)
        assert np.max(np.abs(A)) <= 1e-14

    def test_forward_map(self):
        S0 = np.diag([4.0, 1.0])
        for t_fn in (1.0, 0.25):
            A = gradient_generator(S0, 0.5, t_fn)
            assert abs(np.trace(A)) <= 1e-12
            assert np.allclose(A, A.T)
            E = expm(A * t_fn)
            U = rotation2(0.5)
            S1 = U @ S0 @ U.T
            assert np.linalg.norm(E @ S0 @ E - S1) <= 1e-10 * (
                1 + np.linalg.norm(S1)
            )

    def test_exponential_is_transport_map(self):
        r = rng(31)
        for _ in range(5):
            Q = rotation2(float(r.uniform(0, math.pi)))
            S0 = Q @ np.diag(np.exp(r.uniform(-1.5, 1.5, 2))) @ Q.T
            S0 = (S0 + S0.T) / 2.0
            theta = float(r.uniform(-math.pi, math.pi))
            t_fn = float(np.exp(r.uniform(-2.0, 1.0)))
            A = gradient_generator(S0, theta, t_fn)
            U = rotation2(theta)
            target = U @ S0 @ U.T
            M = ot_map(S0, (target + target.T) / 2.0)
            assert np.linalg.norm(expm(A * t_fn) - M) <= 1e-10 * (
                1 + np.linalg.norm(M)
            )

    def test_tiny_duration_stays_traceless(self):
        A = gradient_generator(np.diag([4.0, 1.0]), 0.5, 1e-6)
        assert abs(np.trace(A)) <= 1e-12

    def test_validation(self):
        with pytest.raises(NotPositiveDefinite):
            gradient_generator(np.diag([1.0, -1.0]), 0.5, 1.0)
        with pytest.raises(DimensionMismatch):
            gradient_generator(np.eye(3), 0.5, 1.0)
        with pytest.raises(InvalidParams):
            gradient_generator(np.eye(2), 0.5, 0.0)


class TestFactorChainType:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            FactorChain([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DimensionMismatch):
            FactorChain([np.eye(2), np.eye(3)])

    def test_product_order_is_right_to_left(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert_allclose(FactorChain([A, B]).product(), B @ A, atol=0)

    def test_product_is_the_plain_product_in_the_normal_range(self):
        # Powers of two on a column commute with left multiplication, so
        # the product in per-column binary units is the loop from the
        # identity at full scale, byte for byte, rescales (from the 9th
        # factor on) and signed zeros included.
        r = rng(127)
        for _ in range(400):
            n = int(r.integers(1, 9))
            factors = []
            for _ in range(int(r.integers(1, 21))):
                M = r.standard_normal((n, n))
                M *= 2.0 ** r.uniform(-30.0, 30.0) / np.abs(M).max()
                M[r.random((n, n)) < 0.2] = -0.0
                factors.append(M)
            want = product_right_to_left(factors)
            assert FactorChain(factors).product().tobytes() == want.tobytes()
            assert chain_product(factors).tobytes() == want.tobytes()

    def test_product_whose_partial_products_leave_the_range(self):
        # 1e200 I twice, then 1e-200 I twice, is I; at full scale the
        # partial products overflow to inf, and inf times 1e-200 plus
        # inf times 0 is NaN. Any warning would be an error here.
        factors = [1e200 * np.eye(2)] * 2 + [1e-200 * np.eye(2)] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = chain_product(factors)
        assert P.tobytes() == np.eye(2).tobytes()

    @pytest.mark.parametrize("factors, error", [
        ([[[1.0, 2.0], [3.0]]], InvalidInput),
        ([[["a", "b"], ["c", "d"]]], InvalidInput),
        ([np.ones((2, 3))], InvalidInput),
        ([], InvalidInput),
        ([np.eye(2), np.eye(3)], DimensionMismatch),
    ], ids=["ragged", "non_numeric", "non_square", "empty", "size_change"])
    def test_chain_product_checks_factors(self, factors, error):
        with pytest.raises(error):
            chain_product(factors)

    @pytest.mark.parametrize("call", [
        lambda: FactorChain(factors=np.eye(2)),
        lambda: FactorChain(factors=5),
        lambda: FactorChain(factors=np.empty((0, 2, 2))),
        lambda: chain_product(None),
        lambda: verify(5, np.eye(2), 1e-8),
        lambda: net_rotation(None),
        lambda: segments_from_chain(3.0),
    ], ids=["matrix_not_stack", "number", "empty_stack", "chain_product_none",
            "verify_number", "net_rotation_none", "segments_number"])
    def test_non_chains_are_invalid_input(self, call):
        # Every entry point converts its chain through FactorChain, which
        # turns a non-iterable or a bare matrix into InvalidInput.
        with pytest.raises(InvalidInput):
            call()

    def test_params_must_be_chain_params(self):
        # A dict would pass here and break save_chain with AttributeError.
        with pytest.raises(InvalidParams, match="expected ChainParams, got dict"):
            FactorChain([np.eye(2)], params={"lam": 2})
        params = ChainParams(30.0, 1.227, 5)
        assert FactorChain([np.eye(2)], params=params).params is params

    def test_stack_is_a_chain_of_its_matrices(self):
        stack = np.stack([np.eye(2), np.diag([2.0, 0.5]), np.eye(2)])
        chain = FactorChain(factors=stack)
        assert len(chain.factors) == 3 and chain.n == 2
        assert_allclose(chain.product(), np.diag([2.0, 0.5]), atol=0)
        assert verify(stack, np.diag([2.0, 0.5]), 1e-12).passed

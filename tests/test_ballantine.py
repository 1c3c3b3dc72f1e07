import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdfactor.ballantine import (
    FactorOptions,
    factor_matrix,
    factor_orthogonal,
    factor_rotation2,
    verify,
)
from pdfactor.errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidParams,
    NegativeDeterminant,
    NonPositiveDeterminant,
    NotOrthogonal,
    NumericalFailure,
    SingularInput,
    TargetUnreachable,
)
from pdfactor.planar import FactorChain, _plan, build_chain, plan_scheme, rotation2
from pdfactor.spectral import _planes, block_diagonalize

from _helpers import hilbert, random_rotation, random_spd, rng

# Product of the two-decimal reference factors against -I. Rounding at two
# decimals already costs more than the underlying construction error.
DISPLAY_RESIDUAL = 0.08426217052851065

DISPLAY_FACTORS = [
    np.array([[5.48, 0.0], [0.0, 0.18]]),
    np.array([[0.34, 0.92], [0.92, 5.50]]),
    np.array([[4.33, -2.35], [-2.35, 1.50]]),
    np.array([[3.32, 2.71], [2.71, 2.52]]),
    np.array([[1.58, -2.34], [-2.34, 4.08]]),
]


def rotation_with_angles(r, n, angles):
    """Q diag(R(angles[0]), R(angles[1]), ..., 1, ...) Q^T for a random Q."""
    D = np.eye(n)
    for p, t in enumerate(angles):
        D[2 * p : 2 * p + 2, 2 * p : 2 * p + 2] = rotation2(t)
    Q = random_rotation(r, n)
    return Q @ D @ Q.T


def all_spd(factors):
    for M in factors:
        if not np.allclose(M, M.T, atol=1e-12):
            return False
        if np.min(np.linalg.eigvalsh((M + M.T) / 2.0)) <= 0.0:
            return False
    return True


class TestFactorRotation2:
    def test_zero_angle(self):
        ch = factor_rotation2(0.0)
        assert len(ch.factors) == 1
        assert np.array_equal(ch.factors[0], np.eye(2))

    def test_half_turn_with_budget_30(self):
        ch = factor_rotation2(math.pi, FactorOptions(k_rotation=5, lam_budget=30.0))
        assert len(ch.factors) == 5
        assert ch.params.lam == 1.25**15
        assert np.linalg.norm(ch.product() + np.eye(2)) <= 1e-9
        assert all_spd(ch.factors)

    def test_negative_angle_reverses_factors(self):
        pos = factor_rotation2(1.0)
        neg = factor_rotation2(-1.0)
        for A, B in zip(neg.factors, reversed(pos.factors)):
            assert np.array_equal(A, B)
        assert np.linalg.norm(neg.product() - rotation2(-1.0)) <= 1e-8

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParams):
            factor_rotation2(-math.pi)
        with pytest.raises(InvalidParams):
            factor_rotation2(3.5)

    def test_170_degrees_with_four_factors(self):
        # lam_min is about 1049, so the plan lands on 1.25^32 = 1262.
        psi = 170.0 * math.pi / 180.0
        ch = factor_rotation2(psi, FactorOptions(k_rotation=4, lam_budget=2000.0))
        assert len(ch.factors) == 4
        assert ch.params.lam == 1.25**32
        assert all_spd(ch.factors)
        assert np.linalg.norm(ch.product() - rotation2(psi)) <= 1e-9

    def test_half_turn_needs_five_factors(self):
        with pytest.raises(TargetUnreachable):
            factor_rotation2(math.pi, FactorOptions(k_rotation=4))


    def test_documented_budget_call(self):
        chain = factor_rotation2(math.pi, FactorOptions(lam_budget=30.0))
        assert len(chain.factors) == 5
        assert np.linalg.norm(chain.product() + np.eye(2)) <= 1e-10


class TestFactorOrthogonal:
    def test_identity_is_single_factor(self):
        ch = factor_orthogonal(np.eye(4))
        assert len(ch.factors) == 1
        assert np.array_equal(ch.factors[0], np.eye(4))

    def test_minus_identity_2x2(self):
        ch = factor_orthogonal(-np.eye(2))
        assert len(ch.factors) == 5
        assert np.linalg.norm(ch.product() + np.eye(2)) <= 1e-8
        assert all_spd(ch.factors)

    def test_random_so6(self):
        V = random_rotation(rng(50), 6)
        ch = factor_orthogonal(V)
        assert len(ch.factors) <= 5
        assert all_spd(ch.factors)
        rep = verify(ch, V, 1e-8)
        assert rep.passed

    def test_stage_count_is_max_not_sum(self):
        # Two rotation planes still need only one scheme's worth of stages.
        V = np.eye(4)
        V[:2, :2] = rotation2(0.9)
        V[2:, 2:] = rotation2(1.7)
        ch = factor_orthogonal(V)
        assert len(ch.factors) == 5
        assert verify(ch, V, 1e-8).passed

    def test_small_angles_plan_small_lam(self):
        V = np.eye(2)
        V[:2, :2] = rotation2(1e-3)
        ch = factor_orthogonal(V)
        conds = [np.linalg.cond(M) for M in ch.factors]
        assert max(conds) < 1.5
        assert verify(ch, V, 1e-8).passed

    def test_stacked_planes_match_one_plane_chains(self):
        # All planes are planned and built at once. Each plane's plan must be
        # plan_scheme's, on the exact grid value, and every stage restricted
        # to the plane's columns must be build_chain's factor for it.
        r = rng(59)
        for draw in range(60):
            n = int(r.integers(2, 25))
            angles = r.uniform(0.0, math.pi, n // 2)
            m = max(1, angles.size // 2)
            if draw % 3 == 1:  # half turns, exact and within 1e-12..1e-4
                angles[:m] = math.pi - r.integers(0, 2, m) * 10.0 ** r.uniform(-12.0, -4.0, m)
            elif draw % 3 == 2:  # tiny angles, 1e-12..1e-4
                angles[:m] = 10.0 ** r.uniform(-12.0, -4.0, m)
            V = rotation_with_angles(r, n, angles)
            chain = factor_orthogonal(V)
            decomp = block_diagonalize(V)
            theta, rows = _planes(decomp)
            if not theta.size:
                assert len(chain.factors) == 1
                continue
            lam, tilt = _plan(theta, 5, 1000.0)
            assert len(chain.factors) == 5
            for p, t in enumerate(theta):
                params = plan_scheme(t, 5, 1000.0)
                assert params.lam == lam[p]
                j = round(math.log(lam[p]) / math.log(1.25))
                assert lam[p] == 1.25**j
                assert params.theta == tilt[p]
                Up = decomp.U[:, rows[p]]
                for N, M in zip(chain.factors, build_chain(params).factors):
                    assert np.max(np.abs(Up.T @ N @ Up - M)) <= 1e-13

    def test_unreachable_names_the_largest_angle(self):
        # Two planes out of reach at k = 4 within lam 50, one in reach: the
        # error is plan_scheme's for the largest angle.
        opts = FactorOptions(k_rotation=4, lam_budget=50.0)
        V = rotation_with_angles(rng(60), 7, [2.9, math.pi, 0.4])
        largest = float(np.max(_planes(block_diagonalize(V))[0]))
        with pytest.raises(TargetUnreachable) as ref:
            plan_scheme(largest, 4, 50.0)
        with pytest.raises(TargetUnreachable) as info:
            factor_orthogonal(V, opts)
        assert str(info.value) == str(ref.value)
        assert info.value.max_phi == ref.value.max_phi

    def test_lost_certificate_names_factor_and_lam(self):
        # At k = 3 an angle 1e-6 short of a quarter turn plans lam near 1e13,
        # past the SPD certificate: the error is build_chain's for the
        # largest angle.
        opts = FactorOptions(k_rotation=3, lam_budget=1e300)
        V = rotation_with_angles(rng(61), 6, [math.pi / 2.0 - 1e-6, 0.3])
        largest = float(np.max(_planes(block_diagonalize(V))[0]))
        params = plan_scheme(largest, 3, 1e300)
        with pytest.raises(NumericalFailure) as ref:
            build_chain(params)
        with pytest.raises(NumericalFailure) as info:
            factor_orthogonal(V, opts)
        assert str(info.value) == str(ref.value)
        assert str(info.value).startswith(
            f"factor 1 lost SPD certification at lam={params.lam:.6g};"
        )

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            factor_orthogonal(np.diag([2.0, 0.5]))

    def test_rejects_reflection(self):
        with pytest.raises(NegativeDeterminant):
            factor_orthogonal(np.diag([1.0, -1.0]))


class TestFactorMatrix:
    def test_spd_input_is_single_factor(self):
        S = random_spd(rng(51), 3)
        ch = factor_matrix(S)
        assert len(ch.factors) == 1
        assert_allclose(ch.factors[0], S, atol=1e-10 * (1 + np.linalg.norm(S)))

    def test_minus_identity_absorbs_stretch(self):
        ch = factor_matrix(-np.eye(2))
        assert len(ch.factors) == 5
        assert np.linalg.norm(ch.product() + np.eye(2)) <= 1e-8

    def test_orthogonal_input_drops_stretch(self):
        V = random_rotation(rng(52), 3)
        ch = factor_matrix(V)
        assert len(ch.factors) <= 5

    def test_random_4x4(self):
        r = rng(53)
        Phi = r.standard_normal((4, 4))
        if np.linalg.det(Phi) < 0:
            Phi[:, 0] = -Phi[:, 0]
        ch = factor_matrix(Phi)
        assert len(ch.factors) <= 6
        assert all_spd(ch.factors)
        rep = verify(ch, Phi, 1e-8)
        assert rep.passed

    def test_soundness_sample(self):
        r = rng(54)
        for _ in range(25):
            n = int(r.integers(2, 9))
            Phi = r.standard_normal((n, n))
            while np.linalg.det(Phi) <= 0:
                Phi = r.standard_normal((n, n))
            ch = factor_matrix(Phi)
            assert len(ch.factors) <= 6
            assert all_spd(ch.factors)
            assert verify(ch, Phi, 1e-8).passed

    def test_ill_conditioned_inputs(self):
        # Phi = U diag(logspace) W^T with cond 1e2..1e10. polar works on Phi
        # itself, so these factor within tol. From cond 1e12 on the stretch
        # S has an eigenvalue ratio at the SPD certificate's limit
        # (1 / SPD_RTOL), and factor_matrix raises NumericalFailure; see
        # test_condition_sweep_verifies_or_fails_numerically.
        r = rng(56)
        for _ in range(30):
            n = int(r.integers(2, 17))
            c = 10.0 ** r.uniform(2.0, 10.0)
            U, W = random_rotation(r, n), random_rotation(r, n)
            Phi = (U * np.logspace(0.0, -math.log10(c), n)) @ W.T
            ch = factor_matrix(Phi)
            assert verify(ch, Phi, 1e-8).passed

    @pytest.mark.parametrize("kappa", [1e12, 1e13], ids=["1e12", "1e13"])
    def test_stretch_past_certificate_fails_numerically(self, kappa):
        # The product is right, but a chain holding this stretch would fail
        # its own verify; the error names the condition number and limit.
        root = math.sqrt(kappa)
        Phi = np.diag([root, 1.0 / root]) @ rotation2(math.pi / 2)
        with pytest.raises(NumericalFailure, match=r"condition number .*limit 1e\+12"):
            factor_matrix(Phi)

    def test_condition_sweep_verifies_or_fails_numerically(self):
        # Every input either factors within tol or raises NumericalFailure;
        # below the certificate's limit 1e12 it always factors.
        r = rng(64)
        outcomes = set()
        for e in np.linspace(2.2, 13.8, 30):
            n = int(r.integers(2, 9))
            c = 10.0 ** (e + r.uniform(-0.2, 0.2))
            U, W = random_rotation(r, n), random_rotation(r, n)
            Phi = (U * np.logspace(0.0, -math.log10(c), n)) @ W.T
            try:
                ch = factor_matrix(Phi)
            except NumericalFailure:
                assert c > 0.99e12, (n, c)
                outcomes.add("failed")
                continue
            rep = verify(ch, Phi, 1e-8)
            assert rep.passed, (n, c, rep.residual)
            outcomes.add("passed")
        assert outcomes == {"passed", "failed"}

    def test_stretch_certificate_edge(self):
        # The certificate reads sigma_1 / sigma_n from polar's SVD, verify
        # reads the eigenvalues of S; both have absolute error about eps sigma_1,
        # so within 1e-3 of the limit 1e12 they can round to opposite sides.
        # Outside that window every input below verifies, and every input
        # above raises NumericalFailure naming Phi's condition number.
        r = rng(65)
        edge = 1e12 * np.array([0.998, 1.002])
        for c in np.append(np.logspace(11.0, 13.0, 38), edge):
            n = int(r.integers(2, 9))
            U, W = random_rotation(r, n), random_rotation(r, n)
            Phi = (U * np.logspace(0.0, -math.log10(c), n)) @ W.T
            if c < 1e12:
                assert verify(factor_matrix(Phi), Phi, 1e-8).passed, (n, c)
                continue
            with pytest.raises(NumericalFailure) as err:
                factor_matrix(Phi)
            quoted = re.search(r"condition number (\S+),", str(err.value)).group(1)
            assert float(quoted) == pytest.approx(np.linalg.cond(Phi), rel=1e-3)

    def test_huge_entries(self):
        # det(Phi) and ||Phi||_F^2 overflow at this scale; the rescaled
        # polar SVD, det V and verify's power-of-two units do not.
        Phi = rng(57).standard_normal((4, 4))
        if np.linalg.det(Phi) < 0:
            Phi[:, 0] = -Phi[:, 0]
        Phi = Phi * 1e200
        with np.errstate(over="ignore"):
            ch = factor_matrix(Phi)
            assert verify(ch, Phi, 1e-8).passed

    def test_power_of_two_scale_is_exact(self):
        # polar factors Phi times a power of two, and nothing downstream
        # depends on the scale: Phi 2^e gives the stretch times 2^e and
        # bit-identical rotation stages, while every entry stays normal.
        r = rng(62)
        for _ in range(10):
            n = int(r.integers(2, 9))
            Phi = r.standard_normal((n, n))
            if np.linalg.det(Phi) < 0:
                Phi[:, 0] = -Phi[:, 0]
            base = factor_matrix(Phi).factors
            for e in (-900, -300, -40, 40, 300, 900):
                scaled = factor_matrix(np.ldexp(Phi, e)).factors
                assert len(scaled) == len(base)
                assert np.array_equal(scaled[0], np.ldexp(base[0], e))
                for A, B in zip(scaled[1:], base[1:]):
                    assert np.array_equal(A, B)

    def test_extreme_decimal_scales_verify(self):
        # det Phi scales as s^n, so no determinant floor can tell these
        # well-conditioned inputs from singular ones; they all factor.
        r = rng(63)
        for _ in range(10):
            n = int(r.integers(2, 9))
            Phi = r.standard_normal((n, n))
            if np.linalg.det(Phi) < 0:
                Phi[:, 0] = -Phi[:, 0]
            for e in (100, 150, 200, 300):
                for scale in (10.0**e, 10.0**-e):
                    A = Phi * scale
                    rep = verify(factor_matrix(A), A, 1e-8)
                    assert rep.passed, (n, scale, rep.residual)

    def test_det_telescope(self):
        r = rng(55)
        Phi = r.standard_normal((3, 3))
        if np.linalg.det(Phi) < 0:
            Phi[:, 0] = -Phi[:, 0]
        ch = factor_matrix(Phi)
        prod_dets = math.prod(float(np.linalg.det(M)) for M in ch.factors)
        assert abs(prod_dets - np.linalg.det(Phi)) <= 1e-6 * abs(
            np.linalg.det(Phi)
        )

    def test_rejects_negative_determinant(self):
        with pytest.raises(NonPositiveDeterminant):
            factor_matrix(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(SingularInput):
            factor_matrix(np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [14, 16])
    def test_numerically_singular_spd_is_singular(self, n):
        # The Hilbert matrix is SPD with condition 1e18..1e22, where the
        # sign of its computed determinant is roundoff. The singular gate
        # runs before the sign is read.
        with pytest.raises(SingularInput):
            factor_matrix(hilbert(n))

    @pytest.mark.parametrize("Phi", [
        rotation2(3e-12) @ np.diag([2.0, 0.5]),
        rotation2(5e-12) @ np.diag([2.0, 0.5]),
        hilbert(6),
    ], ids=["rotated_3e-12", "rotated_5e-12", "hilbert6"])
    def test_pure_stretch_is_one_factor(self, Phi):
        # V differs from I by more than roundoff but holds no rotation
        # plane, so the chain is the stretch alone.
        ch = factor_matrix(Phi)
        assert len(ch.factors) == 1
        assert verify(ch, Phi, 1e-8).passed

    def test_past_two_norm_gate_fails_numerically(self):
        # kappa_2 = 1e15 passes polar's gate 1 / (4 eps); the stretch then
        # fails the SPD certificate.
        with pytest.raises(NumericalFailure, match="stretch"):
            factor_matrix(np.diag([1.0, 1.0, 1.0, 1e-15]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            factor_matrix(np.ones((2, 3)))

    def test_one_call_of_each_linalg_routine(self, monkeypatch):
        # On a generic input the factor path takes one SVD (polar, whose
        # sigma_1 / sigma_n is also the stretch certificate), one det (the
        # sign and SO(n) gates) and one eigh (the rotation split), and no
        # eigvalsh or norm; verify takes one stacked eigvalsh and nothing
        # else, its norms included.
        Phi = rng(70).standard_normal((6, 6))
        if np.linalg.det(Phi) < 0.0:
            Phi[0] = -Phi[0]
        calls = {}
        for name in ("svd", "eigh", "eigvalsh", "det", "slogdet", "norm",
                     "qr", "solve", "inv"):
            def counted(*args, _name=name, _routine=getattr(np.linalg, name), **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _routine(*args, **kw)

            monkeypatch.setattr(np.linalg, name, counted)
        chain = factor_matrix(Phi)
        assert calls == {"svd": 1, "eigh": 1, "det": 1}
        calls.clear()
        assert verify(chain, Phi, 1e-8).passed
        assert calls == {"eigvalsh": 1}


class TestVerify:
    def test_identity_chain_passes(self):
        rep = verify(FactorChain([np.eye(2)]), np.eye(2), 1e-12)
        assert rep.passed
        assert rep.residual == 0.0
        assert rep.factor_count == 1

    def test_two_decimal_reference_residual(self):
        rep = verify(FactorChain(DISPLAY_FACTORS), -np.eye(2), 0.1)
        assert abs(rep.residual - DISPLAY_RESIDUAL) <= 1e-12
        assert rep.passed

    def test_two_decimal_reference_fails_tight_tol(self):
        rep = verify(FactorChain(DISPLAY_FACTORS), -np.eye(2), 1e-8)
        assert not rep.passed

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_tol_must_be_positive(self, tol):
        # The rule FactorOptions applies to tol_verify: no residual passes
        # a tolerance of zero or below, so it is an input error.
        with pytest.raises(InvalidParams, match="tol must be positive"):
            verify(FactorChain(DISPLAY_FACTORS), -np.eye(2), tol)

    def test_corrupted_factor_fails(self):
        ch = factor_matrix(np.diag([2.0, 3.0]))
        bad = [M.copy() for M in ch.factors]
        bad[0][0, 0] += 0.1
        rep = verify(FactorChain(bad), np.diag([2.0, 3.0]), 1e-8)
        assert not rep.passed
        assert rep.residual > 1e-8

    def test_asymmetric_factor_reported_not_raised(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        rep = verify(FactorChain([A]), A, 1.0)
        assert not rep.passed
        assert rep.factors[0].symmetry_defect > 1e-3

    def test_indefinite_factor_reported(self):
        M = np.diag([1.0, -1.0])
        rep = verify(FactorChain([M]), np.diag([1.0, -1.0]), 1.0)
        assert not rep.passed
        assert rep.factors[0].min_eigenvalue < 0
        assert math.isinf(rep.factors[0].condition)

    def test_stats_match_per_factor_eigvalsh(self):
        # verify takes every factor's eigenvalues in one stacked call, each
        # factor in units of its own power of two; the report must still
        # give each factor's own extremes, also with one factor near 1e200.
        r = rng(58)
        for scale in (1.0, 1e200):
            for _ in range(10):
                n = int(r.integers(2, 9))
                factors = [
                    random_spd(r, n, cond_max=1e4) * 10.0 ** r.uniform(-3.0, 3.0)
                    for _ in range(int(r.integers(1, 7)))
                ]
                factors[0] = factors[0] * scale
                chain = FactorChain(factors)
                rep = verify(chain, chain.product(), 1e-12)
                assert rep.passed
                for M, st in zip(factors, rep.factors):
                    d = np.linalg.eigvalsh(M)
                    assert abs(st.min_eigenvalue - d[0]) <= 1e-13 * d[-1]
                    assert_allclose(st.condition, d[-1] / d[0], rtol=1e-9)

    def test_report_serializes(self):
        rep = verify(FactorChain([np.eye(2)]), np.eye(2), 1e-10)
        d = rep.as_dict()
        assert d["passed"] is True
        assert len(d["factors"]) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify(FactorChain([np.eye(2)]), np.eye(3), 1e-8)


class TestFactorOptions:
    def test_defaults(self):
        o = FactorOptions()
        assert o.k_rotation == 5
        assert o.lam_budget == 1000.0
        assert o.tol_verify == 1e-8

    @pytest.mark.parametrize("name, value", [
        ("k_rotation", 2), ("k_rotation", 3.5), ("lam_budget", -5), ("tol_verify", 0.0),
    ])
    def test_fields_are_checked_and_frozen(self, name, value):
        # A field set after construction would reach the factor path
        # unchecked, so none can be set; replace makes a checked copy.
        opts = FactorOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(opts, name, value)
        with pytest.raises(InvalidParams):
            dataclasses.replace(opts, **{name: value})
        quarter = rotation2(math.pi / 2)
        assert verify(factor_matrix(quarter, opts), quarter, opts.tol_verify).passed

    def test_validation(self):
        with pytest.raises(InvalidParams):
            FactorOptions(k_rotation=2)
        with pytest.raises(InvalidParams):
            FactorOptions(lam_budget=0.5)
        with pytest.raises(InvalidParams):
            FactorOptions(tol_verify=0.0)

    @pytest.mark.parametrize("entry, arg", [
        (factor_rotation2, 1.0),
        (factor_orthogonal, rotation2(1.0)),
        (factor_matrix, np.diag([2.0, 3.0])),
    ], ids=["factor_rotation2", "factor_orthogonal", "factor_matrix"])
    @pytest.mark.parametrize("opts", [1000, 0, "fast"])
    def test_options_must_be_factor_options(self, entry, arg, opts):
        with pytest.raises(InvalidParams, match="expected FactorOptions"):
            entry(arg, opts)

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdfactor.errors import (
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
    SingularInput,
)
from pdfactor.ballantine import factor_matrix, verify
from pdfactor.flowsim import ParticleCloud, Trajectory
from pdfactor.matfun import (
    _frob,
    cond,
    expm,
    polar,
    spd_log,
    spd_sqrt,
    sym_eig,
    sym_exp,
)
from pdfactor.planar import FactorChain
from pdfactor.transport import ot_map

from _helpers import (
    random_orthogonal,
    random_spd,
    random_symmetric,
    rng,
    taylor_expm,
)

EPS = float(np.finfo(float).eps)


def assert_eig_contract(S, Q, d):
    """Descending order, sign convention, orthogonality, reconstruction."""
    n = S.shape[0]
    assert np.all(np.diff(d) <= 0.0)
    lead = np.abs(Q).argmax(axis=0)
    assert np.all(Q[lead, np.arange(n)] > 0.0)
    assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 10.0 * n * EPS
    assert np.linalg.norm((Q * d) @ Q.T - S) <= 10.0 * n * EPS * np.linalg.norm(S)


class TestSymEig:
    def test_already_diagonal(self):
        Q, d = sym_eig(np.diag([3.0, 1.0]))
        assert_allclose(d, [3.0, 1.0], rtol=0, atol=0)
        assert_allclose(Q, np.eye(2), rtol=0, atol=0)

    def test_classic_2x2(self):
        Q, d = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert_allclose(d, [3.0, 1.0], atol=1e-14)
        r = 1.0 / math.sqrt(2.0)
        assert_allclose(Q, [[r, r], [r, -r]], atol=1e-14)

    def test_reconstruction_6x6(self):
        S = random_symmetric(rng(1), 6, scale=3.0)
        Q, d = sym_eig(S)
        assert_allclose(Q @ np.diag(d) @ Q.T, S, atol=1e-10 * (1 + np.linalg.norm(S)))

    def test_orthogonality_and_sort(self):
        r = rng(2)
        for n in range(1, 13):
            S = random_symmetric(r, n, scale=2.0)
            Q, d = sym_eig(S)
            assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-12 * n
            assert np.all(np.diff(d) <= 0)

    def test_eigenvalues_match_lapack(self):
        S = random_symmetric(rng(3), 8)
        _, d = sym_eig(S)
        assert_allclose(d, np.linalg.eigvalsh(S)[::-1], atol=1e-12)

    def test_bit_identical_reruns(self):
        S = random_symmetric(rng(4), 7)
        a = sym_eig(S)
        b = sym_eig(S)
        assert a.Q.tobytes() == b.Q.tobytes()
        assert a.d.tobytes() == b.d.tobytes()

    def test_sign_convention(self):
        # Largest-magnitude component of every eigenvector column positive.
        S = random_symmetric(rng(5), 9)
        Q, _ = sym_eig(S)
        for j in range(9):
            assert Q[int(np.argmax(np.abs(Q[:, j]))), j] > 0

    def test_contract_with_repeated_and_clustered_eigenvalues(self):
        # Exact repeats leave the eigenvectors free inside each eigenspace,
        # and near repeats (gaps 1e-13..1e-9) make them ill-determined;
        # order, sign and orthogonality must hold regardless.
        r = rng(14)
        for n in (2, 3, 5, 8, 13, 24):
            base = r.choice([-2.0, 0.5, 3.0], size=n)
            for spread in (0.0, 1e-13, 1e-9):
                d_true = base + spread * r.standard_normal(n)
                Q0 = random_orthogonal(r, n)
                S = (Q0 * d_true) @ Q0.T
                S = (S + S.T) / 2.0
                Q, d = sym_eig(S)
                assert_eig_contract(S, Q, d)
                assert_allclose(d, np.sort(d_true)[::-1], rtol=0, atol=1e-13 * n)

    def test_contract_on_transport_covariances(self):
        # The cond-1e4 covariances that acceptance criterion 08 feeds to
        # the Monge map, n from 2 to 10.
        r = rng(15)
        for _ in range(40):
            n = int(r.integers(2, 11))
            S = random_spd(r, n, cond_max=1e4)
            Q, d = sym_eig(S)
            assert_eig_contract(S, Q, d)
            assert d[-1] > 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_asymmetric_at_extreme_scale(self):
        # The symmetry defect is measured in units of a power of two near
        # the largest entry, so its norm cannot overflow and let any
        # matrix through as symmetric.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]) * 1e300)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_nonconvergence_is_numerical_failure(self, monkeypatch):
        # LAPACK's error surfaces as the library's own, so the CLI maps it
        # to exit code 2 like every other numerical failure.
        def eigh(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(NumericalFailure, match="eigh did not converge"):
            sym_eig(np.eye(2))


class TestSqrtLogExp:
    def test_sqrt_diagonal(self):
        assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_sqrt_identity(self):
        assert_allclose(spd_sqrt(np.eye(3)), np.eye(3), atol=0)

    def test_sqrt_squares_back(self):
        S = random_spd(rng(6), 5)
        R = spd_sqrt(S)
        assert_allclose(R @ R, S, atol=1e-10 * (1 + np.linalg.norm(S)))
        assert np.min(np.linalg.eigvalsh(R)) > 0

    def test_sqrt_squares_back_up_to_n12(self):
        r = rng(7)
        for n in range(2, 13):
            S = random_spd(r, n)
            R = spd_sqrt(S)
            assert np.linalg.norm(R @ R - S) <= 1e-10 * (1 + np.linalg.norm(S))

    def test_log_diagonal(self):
        S = np.diag([math.e, 1.0 / math.e])
        assert_allclose(spd_log(S), np.diag([1.0, -1.0]), atol=1e-14)

    def test_log_identity_is_zero(self):
        assert_allclose(spd_log(np.eye(4)), np.zeros((4, 4)), atol=0)

    def test_exp_log_round_trips(self):
        r = rng(8)
        for n in (2, 4, 7):
            S = random_spd(r, n, cond_max=1e4)
            assert_allclose(
                sym_exp(spd_log(S)), S, atol=1e-10 * (1 + np.linalg.norm(S))
            )
            A = random_symmetric(r, n, scale=3.0)
            assert_allclose(
                spd_log(sym_exp(A)), A, atol=1e-10 * (1 + np.linalg.norm(A))
            )

    def test_sym_exp_diagonal(self):
        A = np.diag([math.log(2.0), -math.log(2.0)])
        assert_allclose(sym_exp(A), np.diag([2.0, 0.5]), atol=1e-14)

    def test_sym_exp_zero(self):
        assert_allclose(sym_exp(np.zeros((3, 3))), np.eye(3), atol=0)

    def test_sym_exp_matches_general_expm(self):
        A = random_symmetric(rng(9), 5)
        assert_allclose(sym_exp(A), expm(A), atol=1e-10 * (1 + np.linalg.norm(A)))

    def test_not_spd_rejected(self):
        bad = np.diag([1.0, -1.0])
        for fn in (spd_sqrt, spd_log, cond):
            with pytest.raises(NotPositiveDefinite):
                fn(bad)

    def test_certificate_is_relative(self):
        # The SPD certificate compares the smallest eigenvalue with the
        # largest, so a matrix passes or fails it alike at every scale.
        for scale in (1e-300, 1e-13, 1.0, 1e13, 1e150, 1e300):
            assert cond(np.diag([2.0, 1.0]) * scale) == pytest.approx(2.0)
            with pytest.raises(NotPositiveDefinite):
                cond(np.diag([1.0, 1e-13]) * scale)


@pytest.mark.parametrize("call", [
    lambda: factor_matrix([[1.0, 2.0], [3.0]]),
    lambda: sym_eig("abc"),
    lambda: verify(FactorChain([np.eye(2)]), "ab", 1e-8),
    lambda: FactorChain([[[1.0, 2.0], [3.0]]]),
    lambda: ot_map(np.eye(2), [[1.0, "x"], [0.0, 1.0]]),
    lambda: ParticleCloud([[1.0, 2.0], [3.0]]),
    lambda: ParticleCloud("abc"),
    lambda: Trajectory([0.0, 1.0], [[[1.0, 2.0]], [[3.0]]], np.zeros((2, 2, 2))),
], ids=["factor_matrix", "sym_eig", "verify", "FactorChain", "ot_map",
        "ParticleCloud_ragged", "ParticleCloud_string", "Trajectory"])
def test_ragged_or_non_numeric_matrix_is_invalid_input(call):
    # The conversion to a float array fails; that is the caller's input.
    with pytest.raises(InvalidInput, match="must be an array of real numbers"):
        call()


class TestExpm:
    def test_skew_2x2_closed_form(self):
        t = 0.5
        expected = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
        assert_allclose(expm([[0.0, t], [-t, 0.0]]), expected, atol=1e-12)

    def test_zero(self):
        assert_allclose(expm(np.zeros((4, 4))), np.eye(4), atol=0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_is_exactly_identity(self, n):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
    def test_norm_sweep_at_roundoff(self, symmetric):
        # 1-norms 1e-8 to 10, n 2 to 8: the small norms are where every
        # simulate substep runs; past theta_13 = 5.37 the scaling path runs.
        r = rng(18 if symmetric else 19)
        for n in range(2, 9):
            for norm in np.logspace(-8, 1, 19):
                A = r.standard_normal((n, n))
                if symmetric:
                    A = A + A.T
                A *= norm / np.linalg.norm(A, 1)
                T = taylor_expm(A)
                assert np.linalg.norm(expm(A) - T) <= 1e-13 * np.linalg.norm(T)

    def test_matches_taylor_oracle(self):
        A = rng(10).standard_normal((4, 4))
        assert_allclose(expm(A), taylor_expm(A), atol=1e-10 * np.linalg.norm(taylor_expm(A)))

    def test_large_norm_uses_squaring(self):
        # 1-norm well above the top Pade threshold exercises the scaling path.
        A = rng(11).standard_normal((5, 5)) * 4.0
        E = expm(A)
        assert_allclose(E, taylor_expm(A), atol=1e-9 * np.linalg.norm(E))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            expm(np.ones((3, 2)))


class TestPolar:
    def test_diagonal(self):
        V, S = polar(np.diag([2.0, 3.0]))
        assert_allclose(V, np.eye(2), atol=1e-14)
        assert_allclose(S, np.diag([2.0, 3.0]), atol=1e-14)

    def test_pure_rotation(self):
        t = 1.1
        R = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        V, S = polar(R)
        assert_allclose(V, R, atol=1e-12)
        assert_allclose(S, np.eye(2), atol=1e-12)

    def test_construct_then_split(self):
        t = 0.7
        U = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        D = np.diag([2.0, 0.5])
        V, S = polar(U @ D)
        assert_allclose(V, U, atol=1e-10)
        assert_allclose(S, D, atol=1e-10)

    def test_reassembly_property(self):
        r = rng(12)
        for n in (2, 3, 5, 8):
            Phi = r.standard_normal((n, n))
            V, S = polar(Phi)
            assert_allclose(V @ S, Phi, atol=1e-10 * (1 + np.linalg.norm(Phi)))
            assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-10
            assert np.sign(np.linalg.det(V)) == np.sign(np.linalg.det(Phi))

    def test_singular_rejected(self):
        with pytest.raises(SingularInput):
            polar([[1.0, 1.0], [1.0, 1.0]])

    def test_ill_conditioned_inputs(self):
        # The SVD works on Phi itself, so condition numbers up to 1e14 stay
        # well inside the 1 / (n eps) singularity gate. V is
        # only determined to roundoff times 2 / (sigma_{n-1} + sigma_n).
        r = rng(16)
        for n in (2, 3, 5, 8, 16):
            for c in (1e4, 1e8, 1e14):
                U, W = random_orthogonal(r, n), random_orthogonal(r, n)
                sigma = np.logspace(0.0, -math.log10(c), n)
                Phi = (U * sigma) @ W.T
                V, S = polar(Phi)
                err = 10.0 * n * EPS * np.linalg.norm(Phi)
                assert np.linalg.norm(V.T @ V - np.eye(n)) <= 10.0 * n * EPS
                assert np.linalg.norm(V @ S - Phi) <= err
                assert_allclose(V, U @ W.T, atol=2.0 * err / (sigma[-2] + sigma[-1]))
                assert np.array_equal(S, S.T)

    def test_extreme_scales(self):
        # The result does not depend on the overall scale, even far beyond
        # where ||Phi||_F^2 over- or underflows.
        Phi = rng(17).standard_normal((4, 4))
        V, S = polar(Phi)
        for s in (1e-200, 1e200):
            Vs, Ss = polar(Phi * s)
            assert_allclose(Vs, V, rtol=0, atol=1e-14)
            assert_allclose(Ss / s, S, rtol=0, atol=1e-14 * np.linalg.norm(Phi))

    def test_numerically_singular_rejected(self):
        with pytest.raises(SingularInput):
            polar(np.diag([1.0, 1e-17]))

    def test_gate_is_two_norm_condition(self):
        # ||X||_F ||X^{-1}||_F would read 3e16 and 3e15 here. The gate and
        # its message use sigma_1 / sigma_n, and 1e15 is inside 1 / (4 eps).
        with pytest.raises(SingularInput, match=r"condition number 1\.000e\+16"):
            polar(np.diag([1.0, 1.0, 1.0, 1e-16]))
        Phi = np.diag([1.0, 1.0, 1.0, 1e-15])
        V, S = polar(Phi)
        assert_allclose(V, np.eye(4), rtol=0, atol=1e-15)
        assert_allclose(S, Phi, rtol=0, atol=1e-15)

    def test_svd_failure_is_numerical_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalFailure, match="SVD"):
            polar(np.eye(3))


class TestCond:
    def test_identity(self):
        assert cond(np.eye(5)) == 1.0

    def test_lambda_30_factor(self):
        s = math.sqrt(30.0)
        assert_allclose(cond(np.diag([s, 1.0 / s])), 30.0, rtol=1e-12)

    def test_matches_eigen_extremes(self):
        S = random_spd(rng(13), 6, cond_max=500.0)
        w = np.linalg.eigvalsh(S)
        assert_allclose(cond(S), w[-1] / w[0], rtol=1e-10)


class TestFrob:
    def test_bitwise_equal_to_numpy_fro_norm(self):
        # _frob is numpy's "fro" code path without its wrapper: equal bit for
        # bit on C-order, transposed and reversed views, also where the
        # squares overflow (1e200) or underflow (1e-200).
        r = rng(71)
        for _ in range(50):
            A = r.standard_normal(tuple(r.integers(1, 9, 2)))
            for scale in (1.0, 1e200, 1e-200):
                B = A * scale
                for view in (B, B.T, B[::-1, ::-1]):
                    with np.errstate(over="ignore", under="ignore"):
                        got, want = _frob(view), np.linalg.norm(view, "fro")
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()

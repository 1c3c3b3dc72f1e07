import decimal
import hashlib
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdfactor import matfun
from pdfactor.ballantine import factor_matrix
from pdfactor.errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidParams,
    InvalidStep,
    NotPositiveDefinite,
)
from pdfactor.flowsim import (
    _REMAINDER_TOL,
    FlowSegment,
    ParticleCloud,
    Trajectory,
    segments_from_chain,
    simulate,
    transition_matrix,
    write_trajectory_csv,
)
from pdfactor.matfun import expm, spd_log, sym_exp
from pdfactor.planar import FactorChain, build_chain, plan_scheme, rotation2

from _helpers import rng

DEG = math.pi / 180.0

INTRO_FACTORS = [
    np.diag([0.5, 2.0]),
    np.array([[2.0, 1.0], [1.0, 1.0]]),
    np.array([[1.5652, -1.3416], [-1.3416, 1.7889]]),
]


def minus_identity_chain():
    return build_chain(plan_scheme(math.pi, 5, 30.0))


def unit_cross_cloud():
    # four points on the axes whose population covariance is exactly I
    s = math.sqrt(2.0)
    return ParticleCloud(
        np.array([[s, 0.0], [-s, 0.0], [0.0, s], [0.0, -s]])
    )


def lyapunov_rk4(Sigma, A, h):
    # Classical RK4 on Sigma' = A Sigma + Sigma A^T, one step, symmetrized.
    def f(S):
        return A @ S + S @ A.T

    k1 = f(Sigma)
    k2 = f(Sigma + 0.5 * h * k1)
    k3 = f(Sigma + 0.5 * h * k2)
    k4 = f(Sigma + h * k3)
    S = Sigma + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (S + S.T) / 2.0


def stepwise_reference(segs, cloud, dt):
    """simulate step by step: whole dt steps in one loop, then a separate
    remainder step; each step applies the Pade exponential to the particles
    and one RK4 step to the covariance."""
    X, Sigma = cloud.positions.copy(), cloud.covariance()
    times, positions, covariances = [cloud.time], [X.copy()], [Sigma.copy()]
    seg_start = cloud.time
    for seg in segs:
        A, delta = seg.A, seg.duration
        m = int(math.floor(delta / dt + 1e-9))
        rem = delta - m * dt
        if rem <= _REMAINDER_TOL * max(1.0, delta):
            rem = 0.0
        E = expm(A * dt)
        for j in range(1, m + 1):
            X = X @ E.T
            Sigma = lyapunov_rk4(Sigma, A, dt)
            t = seg_start + delta if j == m and rem == 0.0 else seg_start + j * dt
            times.append(t)
            positions.append(X.copy())
            covariances.append(Sigma.copy())
        if rem > 0.0:
            X = X @ expm(A * rem).T
            Sigma = lyapunov_rk4(Sigma, A, rem)
            times.append(seg_start + delta)
            positions.append(X.copy())
            covariances.append(Sigma.copy())
        seg_start = seg_start + delta
    return np.array(times), np.array(positions), np.array(covariances)


def worst_relative_gap(a, b):
    """The largest Frobenius distance between samples a[i] and b[i],
    relative to b[i]."""
    axes = tuple(range(1, a.ndim))
    return np.max(np.linalg.norm(a - b, axis=axes) / np.linalg.norm(b, axis=axes))


def boundary_index(times, t):
    hits = np.nonzero(times == t)[0]
    assert hits.size == 1
    return int(hits[0])


class TestFlowSegment:
    def test_symmetrizes_and_stores(self):
        seg = FlowSegment(np.diag([1.0, -1.0]), 2.0)
        assert seg.n == 2
        assert seg.duration == 2.0
        assert np.array_equal(seg.A, seg.A.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            FlowSegment(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_duration(self):
        with pytest.raises(InvalidParams):
            FlowSegment(np.zeros((2, 2)), 0.0)
        with pytest.raises(InvalidParams):
            FlowSegment(np.zeros((2, 2)), -1.0)
        with pytest.raises(InvalidParams):
            FlowSegment(np.zeros((2, 2)), math.inf)


class TestParticleCloud:
    def test_single_vector_promoted_to_row(self):
        c = ParticleCloud(np.array([1.0, 2.0, 3.0]))
        assert c.count == 1
        assert c.n == 3

    def test_covariance_is_population(self):
        c = ParticleCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert_allclose(c.covariance(), np.diag([1.0, 0.0]), atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            ParticleCloud(np.array([[1.0, math.nan]]))

    def test_rejects_bad_time(self):
        with pytest.raises(InvalidInput):
            ParticleCloud(np.eye(2), time=math.inf)


class TestSegmentsFromChain:
    def test_identity_chain(self):
        segs = segments_from_chain(FactorChain([np.eye(2)]))
        assert len(segs) == 1
        assert np.array_equal(segs[0].A, np.zeros((2, 2)))
        assert segs[0].duration == 1.0

    def test_intro_first_factor(self):
        segs = segments_from_chain(FactorChain(INTRO_FACTORS))
        ln2 = math.log(2.0)
        assert_allclose(segs[0].A, np.diag([-ln2, ln2]), atol=1e-14)

    def test_minus_identity_generators_traceless(self):
        ch = minus_identity_chain()
        segs = segments_from_chain(ch)
        assert len(segs) == 5
        for seg in segs:
            assert abs(np.trace(seg.A)) <= 1e-10

    def test_exp_back_recovers_factors(self):
        ch = minus_identity_chain()
        for seg, M in zip(segments_from_chain(ch), ch.factors):
            back = sym_exp(seg.A * seg.duration)
            assert np.linalg.norm(back - M) <= 1e-10 * np.linalg.norm(M)

    def test_durations_rescale_generators(self):
        ch = FactorChain([np.diag([4.0, 0.25])])
        fast = segments_from_chain(ch)[0]
        slow = segments_from_chain(ch, durations=[2.0])[0]
        assert_allclose(slow.A, fast.A / 2.0, atol=1e-15)
        assert_allclose(
            sym_exp(slow.A * slow.duration), ch.factors[0], atol=1e-12
        )

    def test_duration_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            segments_from_chain(FactorChain([np.eye(2)]), durations=[1.0, 1.0])

    def test_nonpositive_duration(self):
        with pytest.raises(InvalidParams):
            segments_from_chain(FactorChain([np.eye(2)]), durations=[0.0])

    def test_non_spd_factor(self):
        with pytest.raises(NotPositiveDefinite):
            segments_from_chain(FactorChain([np.diag([1.0, -1.0])]))

    def test_one_symmetry_check_per_factor(self, monkeypatch):
        # spd_log checks each factor; its exactly symmetric logarithm is
        # not checked again, and the generators are the ones the public
        # FlowSegment constructor gives, bit for bit.
        ch = minus_identity_chain()
        durations = [0.5, 1.0, 2.0, 0.25, 3.0]
        calls = []

        def sym_check(F):
            calls.append(F.shape)
            return real_sym_check(F)

        real_sym_check = matfun._sym_check
        monkeypatch.setattr(matfun, "_sym_check", sym_check)
        segs = segments_from_chain(ch, durations)
        assert len(calls) == len(ch.factors)
        monkeypatch.undo()
        for seg, M, d in zip(segs, ch.factors, durations):
            ref = FlowSegment(spd_log(M) / d, d)
            assert np.array_equal(seg.A, ref.A) and seg.duration == ref.duration


class TestSimulate:
    def test_zero_generator_holds_positions(self):
        segs = [FlowSegment(np.zeros((2, 2)), 1.0)]
        cloud = ParticleCloud(np.array([[1.0, 0.0], [0.3, -0.7]]))
        traj = simulate(segs, cloud, dt=1e-2)
        assert traj.sample_count == 101
        for it in range(traj.sample_count):
            assert np.array_equal(traj.positions[it], cloud.positions)

    def test_trajectory_owns_its_arrays(self):
        # simulate samples the cloud's own array without copying it; the
        # trajectory must still not write through to the cloud.
        start = np.array([[1.0, 0.0], [0.3, -0.7]])
        cloud = ParticleCloud(start)
        traj = simulate([FlowSegment(np.zeros((2, 2)), 1.0)], cloud, dt=0.5)
        traj.positions[:] = 7.0
        assert np.array_equal(cloud.positions, start)

    def test_intro_chain_rotates_basepoint(self):
        segs = segments_from_chain(FactorChain(INTRO_FACTORS))
        traj = simulate(segs, ParticleCloud(np.array([1.0, 0.0])), dt=1e-3)
        target = rotation2(26.565 * DEG) @ np.array([1.0, 0.0])
        assert np.linalg.norm(traj.positions[-1, 0] - target) <= 1e-3

    def test_diagonal_covariance_closed_form(self):
        ln2 = math.log(2.0)
        seg = FlowSegment(np.diag([-ln2, ln2]), 1.0)
        traj = simulate([seg], unit_cross_cloud(), dt=1e-3)
        assert_allclose(traj.covariances[0], np.eye(2), atol=1e-15)
        assert np.linalg.norm(
            traj.covariances[-1] - np.diag([0.25, 4.0])
        ) <= 1e-6

    def test_boundary_positions_match_partial_products(self):
        ch = minus_identity_chain()
        segs = segments_from_chain(ch)
        X0 = rng(60).standard_normal((6, 2))
        traj = simulate(segs, ParticleCloud(X0), dt=1e-3)
        run = np.eye(2)
        for i, M in enumerate(ch.factors):
            run = M @ run
            idx = boundary_index(traj.times, float(i + 1))
            assert np.linalg.norm(traj.positions[idx] - X0 @ run.T) <= 1e-9

    def test_segment_end_covariance_matches_conjugation(self):
        ch = minus_identity_chain()
        segs = segments_from_chain(ch)
        X0 = rng(61).standard_normal((8, 2))
        traj = simulate(segs, ParticleCloud(X0), dt=1e-3)
        Sig = traj.covariances[0]
        run = np.eye(2)
        for i, M in enumerate(ch.factors):
            run = M @ run
            idx = boundary_index(traj.times, float(i + 1))
            assert np.linalg.norm(
                traj.covariances[idx] - run @ Sig @ run.T
            ) <= 1e-6

    def test_rk4_fourth_order(self):
        lam = 30.0
        A = np.diag([math.log(lam) / 2.0, -math.log(lam) / 2.0])
        cloud = unit_cross_cloud()
        E = sym_exp(A)
        exact = E @ cloud.covariance() @ E
        errs = {}
        for dt in (1e-2, 1e-3):
            traj = simulate([FlowSegment(A, 1.0)], cloud, dt=dt)
            errs[dt] = np.linalg.norm(traj.covariances[-1] - exact)
        assert errs[1e-3] <= 1e-6
        order = math.log10(errs[1e-2] / errs[1e-3])
        assert order >= 3.7

    def test_determinant_preserved_for_unimodular_chain(self):
        segs = segments_from_chain(minus_identity_chain())
        X0 = rng(62).standard_normal((10, 2)) * np.array([1.4, 0.6])
        traj = simulate(segs, ParticleCloud(X0), dt=1e-3)
        dets = np.linalg.det(traj.covariances)
        assert np.max(np.abs(dets - dets[0])) <= 1e-6 * abs(dets[0])

    def test_remainder_step_pins_segment_end(self):
        A = np.diag([0.5, -0.5])
        traj = simulate(
            [FlowSegment(A, 1.0)],
            ParticleCloud(np.array([1.0, 1.0])),
            dt=0.3,
        )
        assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=0.0)
        end = sym_exp(A) @ np.array([1.0, 1.0])
        assert np.linalg.norm(traj.positions[-1, 0] - end) <= 1e-12

    @pytest.mark.parametrize("dt", [1e-2, 0.1, 0.07, 0.25, 0.3])
    def test_matches_two_branch_reference(self, dt):
        # simulate evaluates the steps in closed form on each generator's
        # eigenbasis; the step-by-step loop is the reference. The times are
        # the same floats; positions and covariances differ by the roundoff
        # that the loop compounds from step to step. Durations 1, 0.7 and
        # 2.5 are divided by some of the dt values and not by others.
        ch = minus_identity_chain()
        segs = segments_from_chain(FactorChain(ch.factors[:3]), [1.0, 0.7, 2.5])
        cloud = ParticleCloud(rng(63).standard_normal((5, 2)), time=0.3)
        traj = simulate(segs, cloud, dt=dt)
        times, positions, covariances = stepwise_reference(segs, cloud, dt)
        assert np.array_equal(traj.times, times)
        assert worst_relative_gap(traj.positions, positions) <= 1e-12
        assert worst_relative_gap(traj.covariances, covariances) <= 1e-12

    def test_diagonal_covariance_is_rk4_power(self):
        # On a diagonal generator diag(d), the j-th RK4 step multiplies each
        # covariance entry (p, q) by T4(h (d_p + d_q))^j, and the remainder
        # step of 5e-4 multiplies it by T4(5e-4 (d_p + d_q)) once more. The
        # reference powers are taken in 40-digit decimals: simulate keeps
        # them to a few ulps over the 1000 steps, where a power of the
        # rounded T4 can be off by hundreds.
        d = [0.7, -0.2, -1.1]
        cloud = ParticleCloud(rng(64).standard_normal((6, 3)))
        dt, delta, m = 1e-3, 1.0005, 1000
        traj = simulate([FlowSegment(np.diag(d), delta)], cloud, dt=dt)
        assert traj.sample_count == m + 2
        gains = np.empty((m + 2, 3, 3))
        with decimal.localcontext(decimal.Context(prec=40)):
            def t4(x):
                return 1 + x + x**2 / 2 + x**3 / 6 + x**4 / 24

            for p in range(3):
                for q in range(3):
                    z = Decimal(d[p]) + Decimal(d[q])
                    powers = [t4(Decimal(dt) * z) ** j for j in range(m + 1)]
                    powers.append(powers[m] * t4(Decimal(delta - m * dt) * z))
                    gains[:, p, q] = powers
        assert_allclose(traj.covariances, cloud.covariance() * gains, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("case", range(6))
    def test_final_positions_match_transition_matrix(self, case):
        # Particles move by exact exponentials on each generator's
        # eigenbasis, so no error compounds over the 1000 steps of a
        # segment: the final positions are the Pade transition matrix
        # applied to the initial ones, to roundoff.
        r = rng(65 + case)
        n = 2 + case % 5
        while True:
            A = r.standard_normal((n, n))
            if np.linalg.det(A) > 0.0:
                break
        segs = segments_from_chain(factor_matrix(A))
        X0 = r.standard_normal((16, n))
        traj = simulate(segs, ParticleCloud(X0), dt=1e-3)
        expected = X0 @ transition_matrix(segs).T
        gap = np.linalg.norm(traj.positions[-1] - expected)
        assert gap <= 1e-13 * np.linalg.norm(expected)

    def test_start_time_offsets_samples(self):
        segs = [FlowSegment(np.zeros((2, 2)), 1.0)]
        traj = simulate(segs, ParticleCloud(np.eye(2), time=2.5), dt=0.5)
        assert_allclose(traj.times, [2.5, 3.0, 3.5], atol=0.0)

    def test_times_strictly_increasing(self):
        segs = segments_from_chain(minus_identity_chain())
        traj = simulate(segs, ParticleCloud(np.eye(2)), dt=7e-3)
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[-1] == 5.0

    def test_invalid_dt(self):
        segs = [FlowSegment(np.zeros((2, 2)), 1.0)]
        cloud = ParticleCloud(np.eye(2))
        for dt in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(InvalidStep):
                simulate(segs, cloud, dt=dt)

    def test_dt_longer_than_shortest_segment(self):
        segs = [
            FlowSegment(np.zeros((2, 2)), 1.0),
            FlowSegment(np.zeros((2, 2)), 0.25),
        ]
        with pytest.raises(InvalidStep):
            simulate(segs, ParticleCloud(np.eye(2)), dt=0.5)

    def test_dimension_mismatch(self):
        segs = [FlowSegment(np.zeros((2, 2)), 1.0)]
        with pytest.raises(DimensionMismatch):
            simulate(segs, ParticleCloud(np.array([1.0, 2.0, 3.0])), dt=0.1)

    def test_empty_segments(self):
        with pytest.raises(InvalidInput):
            simulate([], ParticleCloud(np.eye(2)), dt=0.1)


class TestTransitionMatrix:
    def test_zero_generator(self):
        P = transition_matrix([FlowSegment(np.zeros((3, 3)), 1.0)])
        assert np.array_equal(P, np.eye(3))

    def test_intro_chain_display(self):
        segs = segments_from_chain(FactorChain(INTRO_FACTORS))
        P = transition_matrix(segs)
        display = np.array([[0.8944, 0.4472], [-0.4472, 0.8944]])
        assert np.linalg.norm(P - display) <= 5e-4

    def test_minus_identity_chain(self):
        segs = segments_from_chain(minus_identity_chain())
        assert np.linalg.norm(
            transition_matrix(segs) + np.eye(2)
        ) <= 1e-8

    def test_durations_do_not_change_endpoint(self):
        ch = FactorChain([np.diag([3.0, 1.0 / 3.0]), np.eye(2)])
        fast = transition_matrix(segments_from_chain(ch))
        slow = transition_matrix(
            segments_from_chain(ch, durations=[0.5, 4.0])
        )
        assert np.linalg.norm(fast - slow) <= 1e-12

    def test_empty(self):
        with pytest.raises(InvalidInput):
            transition_matrix([])


class TestTrajectoryType:
    def test_rejects_unsorted_times(self):
        with pytest.raises(InvalidInput):
            Trajectory(
                np.array([0.0, 0.0]),
                np.zeros((2, 1, 2)),
                np.zeros((2, 2, 2)),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Trajectory(
                np.array([0.0, 1.0]),
                np.zeros((2, 1, 2)),
                np.zeros((2, 3, 3)),
            )


class TestCsvExport:
    def test_files_headers_and_roundtrip(self, tmp_path):
        A = np.diag([0.5, -0.5])
        traj = simulate(
            [FlowSegment(A, 1.0)], unit_cross_cloud(), dt=0.25
        )
        tp, cp = write_trajectory_csv(traj, str(tmp_path / "flow"))
        assert tp.endswith("_trajectory.csv")
        assert cp.endswith("_covariance.csv")
        with open(tp, "rb") as fh:
            raw = fh.read()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "t,particle_id,x1,x2"
        assert len(lines) == 1 + traj.sample_count * 4
        back = np.loadtxt(tp, delimiter=",", skiprows=1)
        assert np.array_equal(
            back[:, 2:].reshape(traj.positions.shape), traj.positions
        )
        with open(cp, encoding="utf-8") as fh:
            head = fh.readline().strip()
        assert head == "t,sigma_11,sigma_12,sigma_21,sigma_22"
        cov_back = np.loadtxt(cp, delimiter=",", skiprows=1)
        assert np.array_equal(cov_back[:, 0], traj.times)
        assert np.array_equal(
            cov_back[:, 1:].reshape(traj.covariances.shape),
            traj.covariances,
        )

    @pytest.mark.parametrize("T, N, n", [(700, 7, 3), (3, 4100, 2)],
                             ids=["blocks_of_steps", "particles_past_block"])
    def test_bytes_match_per_row_reference(self, tmp_path, T, N, n):
        # The writer formats blocks of rows with one % each; this per-row
        # writer is the reference, and the two files must have the same
        # sha256. The shapes cross block boundaries, and one has more
        # particles than a block has rows.
        def reference(traj, prefix):
            opts = {"encoding": "utf-8", "newline": "\n"}
            with open(f"{prefix}_trajectory.csv", "w", **opts) as fh:
                fh.write("t,particle_id,")
                fh.write(",".join(f"x{i + 1}" for i in range(n)) + "\n")
                for it in range(T):
                    for p in range(N):
                        coords = ",".join("%.17g" % v for v in traj.positions[it, p])
                        fh.write("%.17g,%d,%s\n" % (traj.times[it], p, coords))
            with open(f"{prefix}_covariance.csv", "w", **opts) as fh:
                fh.write("t,")
                fh.write(",".join(
                    f"sigma_{i + 1}{j + 1}" for i in range(n) for j in range(n)
                ) + "\n")
                for it in range(T):
                    entries = ",".join("%.17g" % v for v in traj.covariances[it].ravel())
                    fh.write("%.17g,%s\n" % (traj.times[it], entries))

        r = np.random.default_rng(72)
        # Values over many decades, with exact zeros and integers, exercise
        # every branch of %.17g.
        P = r.standard_normal((T, N, n)) * 10.0 ** r.integers(-30, 30, (T, N, n))
        P[0] = 0.0
        P[1] = np.round(P[1] * 1e-30)
        traj = Trajectory(
            np.cumsum(r.uniform(1e-3, 1.0, T)), P, r.standard_normal((T, n, n))
        )
        new = write_trajectory_csv(traj, str(tmp_path / "new"))
        reference(traj, str(tmp_path / "ref"))
        for path, kind in zip(new, ("trajectory", "covariance")):
            ref = tmp_path / f"ref_{kind}.csv"
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            assert digest == hashlib.sha256(ref.read_bytes()).hexdigest()

"""Piecewise-constant gradient flows realizing a factor chain.

Every SPD factor M_i is the time-Delta_i endpoint map of the linear flow
x' = A_i x with symmetric generator A_i = log(M_i)/Delta_i, so running the
segments back to back transports a particle cloud exactly the way the
factor product does. Particles advance by exact exponential substeps;
the covariance integrates the Lyapunov equation Sigma' = A Sigma + Sigma A
with classical RK4 over the same partition, and the two views are expected
to agree at segment ends.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidStep,
)
from .matfun import _floats, _positive, _real, _require_symmetric, expm, spd_log
from .planar import _as_chain

__all__ = [
    "FlowSegment",
    "ParticleCloud",
    "Trajectory",
    "segments_from_chain",
    "simulate",
    "transition_matrix",
    "write_trajectory_csv",
]

# A remainder below this fraction of the segment is roundoff from dt
# dividing the duration evenly, not a genuine partial step.
_REMAINDER_TOL = 1e-12
# The CSV files are written in blocks of whole samples, about this many
# rows each: the per-block cost vanishes, and a block is too small to
# raise peak memory.
_BLOCK_ROWS = 4096


@dataclass
class FlowSegment:
    """Constant symmetric generator driving x' = A x for a fixed duration."""

    A: np.ndarray
    duration: float = 1.0

    def __post_init__(self):
        self.A = _require_symmetric(self.A, "flow generator")
        self.duration = _positive(self.duration, "duration")

    @classmethod
    def _trusted(cls, A, duration) -> FlowSegment:
        """A checked generator and duration, taken without copy or checks."""
        seg = cls.__new__(cls)
        seg.A, seg.duration = A, duration
        return seg

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass
class ParticleCloud:
    """Point ensemble at a common time, one n-vector per row."""

    positions: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        P = _floats(self.positions, "positions")
        if P.ndim == 1:
            P = P[np.newaxis, :]
        if P.ndim != 2 or P.shape[0] < 1 or P.shape[1] < 1:
            raise InvalidInput("positions must form an (N, n) array")
        if not np.all(np.isfinite(P)):
            raise InvalidInput("particle coordinates must be finite")
        self.positions = P
        self.time = _real(self.time, "time stamp", InvalidInput)

    @property
    def n(self) -> int:
        return self.positions.shape[1]

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    def covariance(self) -> np.ndarray:
        """Population covariance (1/N) about the ensemble mean."""
        X = self.positions - self.positions.mean(axis=0)
        return (X.T @ X) / self.positions.shape[0]


@dataclass
class Trajectory:
    """Sampled flow history.

    times has shape (T,), positions (T, N, n), covariances (T, n, n);
    index 0 is the initial state.
    """

    times: np.ndarray
    positions: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        t = _floats(self.times, "times", copy=None)
        if t.ndim != 1 or t.size == 0:
            raise InvalidInput("times must be a nonempty 1-D array")
        _require_increasing(t)
        P = _floats(self.positions, "positions", copy=None)
        C = _floats(self.covariances, "covariances", copy=None)
        if P.ndim != 3 or P.shape[0] != t.size:
            raise DimensionMismatch(
                "positions must be (T, N, n) matching the sample count"
            )
        n = P.shape[2]
        if C.shape != (t.size, n, n):
            raise DimensionMismatch(
                "covariances must be (T, n, n) matching positions"
            )
        self.times = t
        self.positions = P
        self.covariances = C

    @property
    def sample_count(self) -> int:
        return self.times.size


def _require_increasing(t, after=-math.inf) -> None:
    """Raise InvalidInput unless the times t strictly increase from after."""
    if np.any(np.diff(t, prepend=after) <= 0.0):
        raise InvalidInput("sample times must be strictly increasing")


def segments_from_chain(chain, durations=None) -> list:
    """Recover one generator per factor so that M_i = exp(A_i * Delta_i).

    With no durations given every segment runs for unit time; durations
    only rescale the generators, never the endpoint maps.
    """
    chain = _as_chain(chain)
    k = len(chain.factors)
    durs = [1.0] * k if durations is None else list(durations)
    if len(durs) != k:
        raise DimensionMismatch(f"{len(durs)} durations for {k} factors")
    durs = [_positive(d, "duration") for d in durs]
    # spd_log returns an exactly symmetric matrix, and so does its quotient.
    return [
        FlowSegment._trusted(spd_log(M) / d, d)
        for M, d in zip(chain.factors, durs)
    ]


def _segments(segments) -> list:
    """The segments as a list: nonempty, FlowSegments of one size."""
    segs = list(segments)
    if not segs:
        raise InvalidInput("no segments")
    for seg in segs:
        if not isinstance(seg, FlowSegment):
            raise InvalidInput("segments must be FlowSegment instances")
        if seg.n != segs[0].n:
            raise DimensionMismatch("segment generators differ in size")
    return segs


def _lyapunov_rk4(Sigma, A, h):
    # Classical RK4 on Sigma' = A Sigma + Sigma A^T; symmetrize to stop
    # roundoff from accumulating an antisymmetric part over many steps.
    def f(S):
        return A @ S + S @ A.T

    k1 = f(Sigma)
    k2 = f(Sigma + 0.5 * h * k1)
    k3 = f(Sigma + 0.5 * h * k2)
    k4 = f(Sigma + h * k3)
    S = Sigma + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (S + S.T) / 2.0


def _flow(segments, cloud, dt) -> tuple:
    """Check a run and form every propagator, then return the shape
    (T, N, n) of its samples and a generator of them: (t, X, Sigma) for
    each, the initial state first."""
    segs = _segments(segments)
    n = segs[0].n
    if not isinstance(cloud, ParticleCloud):
        cloud = ParticleCloud(cloud)
    if cloud.n != n:
        raise DimensionMismatch(
            f"cloud dimension {cloud.n} does not match generators ({n})"
        )
    dt = _positive(dt, "dt", InvalidStep)
    shortest = min(seg.duration for seg in segs)
    if dt > shortest:
        raise InvalidStep(
            f"dt={dt} exceeds the shortest segment duration {shortest}"
        )
    # Per segment: m steps of dt, then at most one of the remainder.
    plan = []
    for seg in segs:
        delta = seg.duration
        m = int(math.floor(delta / dt + 1e-9))
        rem = delta - m * dt
        sizes = [dt, rem] if rem > _REMAINDER_TOL * max(1.0, delta) else [dt]
        plan.append((seg.A, delta, m, [(h, expm(seg.A * h).T) for h in sizes]))
    T = 1 + sum(m + len(steps) - 1 for _, _, m, steps in plan)
    return (T, cloud.count, n), _samples(cloud, dt, plan)


def _samples(cloud, dt, plan):
    """The samples of a run that _flow has checked and planned."""
    X = cloud.positions
    Sigma = cloud.covariance()
    seg_start = cloud.time
    yield seg_start, X, Sigma
    for A, delta, m, steps in plan:
        last = m + len(steps) - 1
        for j in range(1, last + 1):
            h, E = steps[0 if j <= m else 1]
            X = X @ E
            Sigma = _lyapunov_rk4(Sigma, A, h)
            # pin the last sample to the boundary so later segments see no drift
            yield (seg_start + delta if j == last else seg_start + j * dt), X, Sigma
        seg_start = seg_start + delta


def _fill(samples, t, P, C) -> int:
    """Copy the next samples into t, P and C until they are full or the
    samples run out; returns how many were copied."""
    count = 0
    for sample in itertools.islice(samples, t.size):
        t[count], P[count], C[count] = sample
        count += 1
    return count


def simulate(segments, cloud, dt=1e-3) -> Trajectory:
    """Run the segments back to back, sampling every substep boundary.

    Particle positions advance by the exact exponential of each substep,
    so boundary positions match the factor products up to roundoff. The
    covariance is integrated with RK4 instead, which makes segment ends a
    genuine accuracy check rather than a restatement of the same formula.
    """
    (T, N, n), samples = _flow(segments, cloud, dt)
    trajectory = (np.empty(T), np.empty((T, N, n)), np.empty((T, n, n)))
    _fill(samples, *trajectory)
    return Trajectory(*trajectory)


def transition_matrix(segments) -> np.ndarray:
    """Endpoint map of the whole protocol: product of segment exponentials,
    applied right to left."""
    segs = _segments(segments)
    P = np.eye(segs[0].n)
    for seg in segs:
        P = expm(seg.A * seg.duration) @ P
    return P


def _csv_rows(fmt, rows) -> str:
    """The rows of a 2-D array as CSV lines, each formatted by fmt (one
    %-conversion per column, comma-separated); one % formats them all."""
    return ((fmt + "\n") * len(rows)) % tuple(rows.ravel().tolist())


def write_trajectory_csv(trajectory, prefix) -> tuple:
    """Write <prefix>_trajectory.csv and <prefix>_covariance.csv.

    The trajectory file holds one row per (time, particle); the covariance
    file one row per time with the full matrix flattened row-major. Both
    use 17 significant digits, UTF-8, LF line endings.
    """
    if not isinstance(trajectory, Trajectory):
        raise InvalidInput("expected a Trajectory")
    t, P, C = trajectory.times, trajectory.positions, trajectory.covariances
    step = max(1, _BLOCK_ROWS // P.shape[1])
    return _write_csv(prefix, P.shape[1:], (
        (t[b:b + step], P[b:b + step], C[b:b + step])
        for b in range(0, t.size, step)
    ))


def _stream_csv(segments, cloud, dt, prefix) -> tuple:
    """write_trajectory_csv(simulate(segments, cloud, dt), prefix), byte for
    byte, holding one block of samples at a time. Every check and every
    propagator comes before the first byte is written."""
    (_, N, n), samples = _flow(segments, cloud, dt)
    step = max(1, _BLOCK_ROWS // N)
    block = (np.empty(step), np.empty((step, N, n)), np.empty((step, n, n)))

    def blocks():
        # The times strictly increase, as in a Trajectory: within each
        # block and across block boundaries.
        last = -math.inf
        while count := _fill(samples, *block):
            _require_increasing(block[0][:count], last)
            last = block[0][count - 1]
            yield tuple(a[:count] for a in block)

    return _write_csv(prefix, (N, n), blocks())


def _write_csv(prefix, shape, blocks) -> tuple:
    """Write blocks (t, P, C) of samples, shaped (b,), (b, N, n) and
    (b, n, n) for shape (N, n), as write_trajectory_csv describes. If a
    block fails, both files are removed again."""
    N, n = shape
    paths = (f"{prefix}_trajectory.csv", f"{prefix}_covariance.csv")
    ids = np.arange(N)
    traj_fmt = ",".join(["%.17g", "%d"] + ["%.17g"] * n)
    cov_fmt = ",".join(["%.17g"] * (1 + n * n))
    opened = False
    try:
        with open(paths[0], "w", encoding="utf-8", newline="\n") as ft, \
                open(paths[1], "w", encoding="utf-8", newline="\n") as fc:
            opened = True
            ft.write("t,particle_id," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
            fc.write("t," + ",".join(
                f"sigma_{i + 1}{j + 1}" for i in range(n) for j in range(n)
            ) + "\n")
            for tb, Pb, Cb in blocks:
                rows = np.column_stack(
                    (np.repeat(tb, N), np.tile(ids, tb.size), Pb.reshape(-1, n))
                )
                ft.write(_csv_rows(traj_fmt, rows))
                rows = np.column_stack((tb, Cb.reshape(tb.size, n * n)))
                fc.write(_csv_rows(cov_fmt, rows))
    except BaseException:
        if opened:  # by now both files are closed
            for path in paths:
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise
    return paths

"""Piecewise-constant gradient flows realizing a factor chain.

Every SPD factor M_i is the time-Delta_i endpoint map of the linear flow
x' = A_i x with symmetric generator A_i = log(M_i)/Delta_i, so running the
segments back to back transports a particle cloud exactly the way the
factor product does. Each segment is evaluated in closed form on its
generator's eigenbasis, from one ``eigh``: the particles move by exact
exponentials, and the covariance is classical RK4 on the Lyapunov equation
Sigma' = A Sigma + Sigma A, with no per-step loop. The two agree at segment
ends up to RK4's error.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from ._output import _BLOCK_ROWS, _create, _CsvEncoder, _join, _slots
from .errors import DimensionMismatch, InvalidInput, InvalidStep
from .matfun import (
    _COUNT_MAX, _floats, _positive, _real, _require_symmetric, expm, spd_log, sym_eig,
)
from .planar import FactorChain, _as_chain

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


@dataclass
class FlowSegment:
    """Constant symmetric generator driving x' = A x for a fixed duration."""

    A: np.ndarray
    duration: float = 1.0

    def __post_init__(self):
        self.A = _require_symmetric(self.A, "flow generator")
        self.duration = _positive(self.duration, "duration")

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
    """Raise InvalidInput unless the times t strictly increase from after (NaN fails)."""
    if not (t[0] > after and (t[1:] > t[:-1]).all()):
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
    return [FlowSegment(spd_log(M) / d, d) for M, d in zip(chain.factors, durs)]


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


def _flow(segments, cloud, dt) -> tuple:
    """Check a run and take each generator's eigendecomposition; return the
    sample shape (T, N, n) and a generator of blocks (t, X, Sigma) of at most
    _BLOCK_ROWS // N samples, the initial state first; it checks their times."""
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
    # Per segment: m steps of dt, then at most one of the remainder; an
    # infinite or too long a run takes _COUNT_MAX steps, and is refused.
    plan = []
    for seg in segs:
        delta = seg.duration
        m = math.floor(min(delta / dt + 1e-9, _COUNT_MAX))
        rem = delta - m * dt
        rem = rem if rem > _REMAINDER_TOL * max(1.0, delta) else 0.0
        plan.append((sym_eig(seg.A), delta, m, rem))
    T = 1 + sum(m + (rem > 0.0) for _, _, m, rem in plan)
    if T >= _COUNT_MAX:
        count = 1 + sum(seg.duration / dt for seg in segs)
        raise InvalidStep(f"dt={dt} gives {count:.6g} samples, more than an array holds")
    return (T, cloud.count, n), _blocks(cloud, dt, plan)


def _rk4_log_gain(z):
    """log T4(z): one classical RK4 step of size h multiplies y' = (z/h) y
    by T4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 > 0. Via log1p, exp(j log T4)
    keeps T4^j to a few ulps, where a power of the rounded T4 loses up to j."""
    return np.log1p(z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))


def _blocks(cloud, dt, plan):
    """The samples of a run that _flow has checked and planned. On A's
    eigenbasis A = Q diag(d) Q^T, the particles are X_s Q diag(e^{d tau})
    Q^T, and RK4 on the Lyapunov equation, whose operator has eigenvalues
    d_p + d_q there, is Q (Q^T Sigma_s Q o T4(h (d_p + d_q))^j) Q^T."""
    X, Sigma, start = cloud.positions, cloud.covariance(), cloud.time
    N, n = X.shape
    step = max(1, _BLOCK_ROWS // N)
    yield np.array([start]), X[np.newaxis], Sigma[np.newaxis]
    before = start
    for (Q, d), delta, m, rem in plan:
        Y, S = X @ Q, Q.T @ Sigma @ Q
        z = d[:, np.newaxis] + d
        log_gain = _rk4_log_gain(dt * z)
        last = m + (rem > 0.0)
        for lo in range(1, last + 1, step):
            j = np.arange(lo, min(lo + step, last + 1))
            tau = j * dt
            t = start + tau
            logs = j[:, np.newaxis, np.newaxis] * log_gain
            if j[-1] == last:
                # pin the last sample to the boundary so later segments see no drift
                t[-1] = start + delta
                if rem:
                    tau[-1] = m * dt + rem
                    logs[-1] = m * log_gain + _rk4_log_gain(rem * z)
            _require_increasing(t, before)
            before = t[-1]
            Xb = (Y * np.exp(np.multiply.outer(tau, d))[:, np.newaxis]).reshape(-1, n)
            Xb = (Xb @ Q.T).reshape(j.size, N, n)
            Cb = Q @ (S * np.exp(logs)) @ Q.T
            Cb = (Cb + Cb.swapaxes(1, 2)) / 2.0
            yield t, Xb, Cb
        X, Sigma, start = Xb[-1], Cb[-1], start + delta


def simulate(segments, cloud, dt=1e-3) -> Trajectory:
    """Run the segments back to back, sampling every substep boundary.

    Particle positions are exact exponentials on each generator's
    eigenbasis, so boundary positions match the factor products up to
    roundoff. The covariance is classical RK4 on the Lyapunov equation,
    evaluated in closed form on the same eigenbasis. Each segment's last
    sample is pinned to its end time, and the next segment starts from it.
    """
    (T, N, n), blocks = _flow(segments, cloud, dt)
    if T * n * max(N, n) * 8 > _COUNT_MAX:  # the bytes of P or of C
        raise InvalidStep(f"dt={dt} gives {T} samples, more than an array holds")
    t, P, C = np.empty(T), np.empty((T, N, n)), np.empty((T, n, n))
    i = 0
    for tb, Pb, Cb in blocks:
        j = i + tb.size
        t[i:j], P[i:j], C[i:j] = tb, Pb, Cb
        i = j
    return Trajectory(t, P, C)


def transition_matrix(segments) -> np.ndarray:
    """Endpoint map of the whole protocol: product of segment exponentials,
    applied right to left."""
    segs = _segments(segments)
    return FactorChain._trusted([expm(seg.A * seg.duration) for seg in segs]).product()


def write_trajectory_csv(trajectory, prefix) -> tuple:
    """Write <prefix>_trajectory.csv and <prefix>_covariance.csv.

    The trajectory file holds one row per (time, particle); the covariance
    file one row per time with the full matrix flattened row-major. Every
    number, particle ids included, is byte for byte what '%.17g' % x
    writes, in ASCII with LF line endings. Both files are created new: an
    existing regular file is unlinked first, a symlink written through.
    """
    if not isinstance(trajectory, Trajectory):
        raise InvalidInput("expected a Trajectory")
    t, P, C = trajectory.times, trajectory.positions, trajectory.covariances
    return _write_csv(prefix, P.shape, [(t, P, C)])


def _stream_csv(segments, cloud, dt, prefix) -> tuple:
    """write_trajectory_csv(simulate(segments, cloud, dt), prefix), byte for
    byte, holding one block of samples at a time. Every check but that of
    each block's times comes before the first byte is written."""
    return _write_csv(prefix, *_flow(segments, cloud, dt))


def _write_csv(prefix, shape, blocks) -> tuple:
    """Write blocks (t, P, C) of samples, shaped (b,), (b, N, n) and
    (b, n, n) for sample shape (T, N, n), as write_trajectory_csv
    describes: each file opened by _create, each block cut to what the
    slots hold, its distinct values and particle ids encoded in one pass
    of one _CsvEncoder (per _BLOCK_ROWS particles of a larger sample), its
    rows put together from their slots, one byte run a field. If a block
    or the second open fails, the files opened are removed again."""
    _, N, n = shape
    paths = (f"{prefix}_trajectory.csv", f"{prefix}_covariance.csv")
    width = min(N, _BLOCK_ROWS)  # particles per pass
    step = _BLOCK_ROWS // width  # samples per block
    encoder = _CsvEncoder()
    rows, cov = _slots(step, width, 2 + n), _slots(step, 1 + n * n)
    ids = np.arange(N, dtype=float)
    blocks = ((tb[s:s + step], Pb[s:s + step], Cb[s:s + step])
              for tb, Pb, Cb in blocks for s in range(0, tb.size, step))
    ft = fc = None
    try:
        with _create(paths[0]) as ft, _create(paths[1]) as fc:
            ft.write(("t,particle_id," + ",".join(
                f"x{i + 1}" for i in range(n)
            ) + "\n").encode())
            fc.write(("t," + ",".join(
                f"sigma_{i + 1}{j + 1}" for i in range(n) for j in range(n)
            ) + "\n").encode())
            for tb, Pb, Cb in blocks:
                b = tb.size
                for lo in range(0, N, width):
                    parts = [tb, Pb[:, lo:lo + width], ids[lo:lo + width]]
                    parts += [Cb.reshape(b, n * n)] if lo == 0 else []
                    t, P, i, *C = encoder.encode(*parts)
                    traj = rows[:b, :P.shape[1]]  # b is 1 or P has width
                    traj[:, :, 0] = t[:, np.newaxis]
                    traj[:, :, 1] = i
                    traj[:, :, 2:] = P
                    ft.write(_join(traj))
                    if C:
                        cov[:b, 0] = t
                        cov[:b, 1:] = C[0]
                        fc.write(_join(cov[:b]))
    except BaseException:
        # Remove the files this call opened; by now they are closed.
        for path, f in zip(paths, (ft, fc)):
            if f is not None:
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise
    return paths

"""Real block diagonalization of special orthogonal matrices.

A rotation V splits into planar rotation blocks and fixed axes. The
symmetric part (V + V^T)/2 has the plane cosines as eigenvalues; inside
each cluster of them the skew part K commutes with the symmetric part, so
the Hermitian matrix iK splits the cluster: every eigenvector z of a
positive rate sin(theta) spans the plane (Im z, Re z), and the directions of
rate zero are +1/-1 axes. A cluster of two cosines is one plane or two
axes, read in closed form; each larger cluster (repeated angles, or a
plane near an axis) takes one complex ``eigh`` and at most one QR.
Minus-one axes always come in pairs (det V = +1) and are merged into
half-turn blocks, so every emitted rotation angle lies in (0, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInput,
    NegativeDeterminant,
    NotOrthogonal,
    NumericalFailure,
)
from .matfun import _EPS, _as_square, _frob

__all__ = [
    "RotationBlock",
    "UnitBlock",
    "OrthogonalDecomposition",
    "block_diagonalize",
    "assemble",
]

ORTHO_TOL = 1e-8
BASIS_TOL = 1e-10  # orthogonality defect allowed in a decomposition basis U
# The reassembled U D U^T must reproduce V within this, and each of the two
# misreadings below may cost at most a hundredth of it.
REASSEMBLY_GATE = 1e-9
_MISREAD = REASSEMBLY_GATE / 100.0
# A plane read as two axes (a half turn, near pi) leaves ||R(t) - I||_F =
# 2 sqrt(2) sin(t/2), t its distance to 0 (to pi); that is about
# sqrt(2) sin(theta), so rates sin(theta) up to this cost about _MISREAD.
PLANE_CUT = _MISREAD / math.sqrt(2.0)
# Eigenvectors of the symmetric part are good to about eps/gap (Davis and
# Kahan), so splitting two clusters at a cosine gap drops a skew coupling of
# about sin(theta) eps/gap; cutting only at gaps above eps/_MISREAD keeps
# that within _MISREAD.
CLUSTER_TOL = _EPS / _MISREAD


@dataclass
class RotationBlock:
    """Planar rotation by theta in (0, pi] acting on the given row pair."""

    theta: float
    rows: tuple

    @property
    def dim(self) -> int:
        return 2


@dataclass
class UnitBlock:
    """A fixed direction (eigenvalue +1) at the given row."""

    row: int

    @property
    def dim(self) -> int:
        return 1


@dataclass
class OrthogonalDecomposition:
    """Orthogonal basis U plus the block structure of U^T V U."""

    U: np.ndarray
    blocks: list
    n: int = field(init=False)

    def __post_init__(self):
        self.U = _as_square(self.U, "decomposition basis")
        self.n = self.U.shape[0]
        _require_orthogonal(self.U, BASIS_TOL, "decomposition basis")
        seen = set()
        for b in self.blocks:
            rows = b.rows if isinstance(b, RotationBlock) else (b.row,)
            for i in rows:
                if not 0 <= i < self.n or i in seen:
                    raise InvalidInput(f"block rows invalid or overlapping: {i}")
                seen.add(i)


def _require_orthogonal(X, tol: float, what: str) -> None:
    """Raise NotOrthogonal unless ||X^T X - I||_F <= tol."""
    G = X.T @ X
    G.reshape(-1)[:: X.shape[0] + 1] -= 1.0
    defect = _frob(G)
    if defect > tol:
        raise NotOrthogonal(f"{what} has orthogonality defect {defect:.3e}")


def _require_det_one(det: float) -> None:
    """Raise NegativeDeterminant unless det is 1 to ORTHO_TOL."""
    if abs(det - 1.0) > ORTHO_TOL:
        raise NegativeDeterminant(
            f"input has determinant {det:.6f}; only det +1 decomposes "
            "into rotation blocks"
        )


def _special_orthogonal(V) -> np.ndarray:
    """V as a float array, checked to lie in SO(n) to ORTHO_TOL."""
    V = _as_square(V, "block_diagonalize input")
    _require_orthogonal(V, ORTHO_TOL, "input")
    _require_det_one(float(np.linalg.det(V)))
    return V


def block_diagonalize(V) -> OrthogonalDecomposition:
    """Split a special orthogonal matrix into rotation planes and axes.

    Returns an OrthogonalDecomposition with rotation blocks sorted by
    descending angle, then unit blocks. Every -1 eigenvalue pairs with
    another into a half-turn block.

    Raises NotOrthogonal or NegativeDeterminant for inputs outside SO(n).
    """
    U, theta = _split(_special_orthogonal(V))
    blocks = [
        RotationBlock(theta=t, rows=(2 * i, 2 * i + 1))
        for i, t in enumerate(theta.tolist())
    ]
    blocks += [UnitBlock(row=j) for j in range(2 * theta.size, U.shape[0])]
    return OrthogonalDecomposition(U, blocks)


def _split(V) -> tuple:
    """Basis U and descending angles theta of V in SO(n): plane i acts on
    columns 2i, 2i + 1 of U, the fixed axes follow. Raises NotOrthogonal or
    NumericalFailure unless U is orthogonal and U D U^T reproduces V. U is
    one gather of columns of Q, each larger cluster's columns rewritten in
    place after one complex eigh and at most one QR."""
    n = V.shape[0]
    # Ascending cosines; the identity's eigenvectors come back exactly as I.
    cosines, Q = np.linalg.eigh((V + V.T) / 2.0)
    W = Q.T @ V @ Q
    c = cosines.tolist()
    bounds = [0, *(i for i in range(1, n) if c[i] - c[i - 1] > CLUSTER_TOL), n]
    # A cluster of two at i is one plane or two axes, read off the restricted
    # action R(+-t) on rows i, i + 1.
    diag = W.diagonal()
    sin = W.diagonal(1) - W.diagonal(-1)
    angle = np.arctan2(np.abs(sin), diag[:-1] + diag[1:]).tolist()
    diag, sin = diag.tolist(), sin.tolist()

    # Columns of Q: the planes' in pairs, then the axes' with their cosines,
    # one cluster at a time in cosine order.
    thetas, pairs, axes, axis_cos = [], [], [], []
    for i, stop in zip(bounds, bounds[1:]):
        m = stop - i
        if m == 1:  # a lone direction is an axis
            axes.append(i)
            axis_cos.append(c[i])
        elif m == 2:
            # A negative sine swaps the plane's columns to the orientation
            # (Im z, Re z) below gives.
            if abs(sin[i]) / 2.0 > PLANE_CUT:
                pairs += (i + 1, i) if sin[i] < 0.0 else (i, i + 1)
                thetas.append(angle[i])
            else:
                axes += (i, i + 1)
                axis_cos += diag[i:stop]
        else:
            # Everything below runs in cluster coordinates: the restricted
            # action keeps other clusters' eigenvector noise out of the planes.
            Wc = W[i:stop, i:stop]
            # Two planes at pi/2 -+ t share one rate. Where |cos| < 1/2 (no
            # axes there) rate + cos keeps them apart, and keeps the rate's
            # sign.
            quarter = abs(c[i]) < 0.5
            rates, Z = np.linalg.eigh(0.5 * (quarter * (Wc + Wc.T) + 1j * (Wc - Wc.T)))
            p = min(np.count_nonzero(rates > PLANE_CUT), m // 2)
            C = np.eye(m)
            if p:
                P = np.empty((m, 2 * p))
                P[:, 0::2] = Z[:, m - p :].imag
                P[:, 1::2] = Z[:, m - p :].real
                # The complete factor spans the planes first, then the axes.
                C, R = np.linalg.qr(P, mode="complete")
                C[:, : 2 * p] *= np.sign(R.diagonal())
            A = C.T @ Wc @ C
            Q[:, i:stop] = Q[:, i:stop] @ C
            # Basis order (Im z, Re z) makes each plane's restricted action
            # [[cos, sin], [-sin, cos]] with positive theta; atan2 reads it
            # from twice the cosine and the sine.
            d = A.diagonal()
            s = (A.diagonal(1) - A.diagonal(-1))[: 2 * p : 2]
            thetas += np.arctan2(s, d[: 2 * p : 2] + d[1 : 2 * p : 2]).tolist()
            pairs += range(i, i + 2 * p)
            axes += range(i + 2 * p, stop)
            axis_cos += d[2 * p :].tolist()

    minus = [a for a, x in zip(axes, axis_cos) if x <= 0.0]
    if len(minus) % 2:
        raise NumericalFailure(
            "odd count of -1 eigenvalues in a det +1 matrix; "
            "input is too far from orthogonal to classify"
        )
    thetas += [math.pi] * (len(minus) // 2)
    pairs += minus
    # Descending angles; equal ones keep their order (a stable sort).
    order = sorted(range(len(thetas)), key=thetas.__getitem__, reverse=True)
    units = [a for a, x in zip(axes, axis_cos) if x > 0.0]
    U = Q.take([j for i in order for j in pairs[2 * i : 2 * i + 2]] + units, axis=1)
    theta = np.array([thetas[i] for i in order])
    _require_orthogonal(U, BASIS_TOL, "decomposition basis")
    if _frob(_rebuild(U, theta) - V) > REASSEMBLY_GATE:
        raise NumericalFailure(
            "reassembled decomposition does not reproduce the input; "
            "eigenvalue clusters are too entangled"
        )
    return U, theta


def _planes(d: OrthogonalDecomposition) -> tuple:
    """Angles (planes,) and row pairs (planes, 2) of the rotation blocks."""
    rot = [b for b in d.blocks if isinstance(b, RotationBlock)]
    return (
        np.array([b.theta for b in rot]),
        np.array([b.rows for b in rot], dtype=np.intp).reshape(-1, 2),
    )


def _blocks_in_identity(n: int, m00, m01, m10, m11) -> np.ndarray:
    """Identity matrices of size n with the 2x2 block [[m00, m01], [m10,
    m11]] of plane i on rows 2i, 2i + 1. The entries have shape
    (..., planes) and the result (..., n, n); the diagonal and each block
    entry are written by stride."""
    D = np.zeros(np.shape(m00)[:-1] + (n, n))
    flat = D.reshape(D.shape[:-2] + (n * n,))
    flat[..., :: n + 1] = 1.0
    step = 2 * (n + 1)
    for first, m in ((0, m00), (1, m01), (n, m10), (n + 1, m11)):
        flat[..., first : np.shape(m)[-1] * step : step] = m
    return D


def _rebuild(U, theta, at=...) -> np.ndarray:
    """U D[at] U^T, D the identity with the rotation by theta[i] on rows 2i, 2i + 1."""
    c, s = np.cos(theta), np.sin(theta)
    return U @ _blocks_in_identity(U.shape[0], c, s, -s, c)[at] @ U.T


def assemble(d: OrthogonalDecomposition) -> np.ndarray:
    """Rebuild U D U^T from a decomposition; rows not covered by any
    block act as identity."""
    if not isinstance(d, OrthogonalDecomposition):
        raise InvalidInput("assemble expects an OrthogonalDecomposition")
    theta, rows = _planes(d)
    # D holds the planes on rows 0, 1, 2, ... in block order, then the other
    # rows; back moves each row and column to the row it names.
    back = np.argsort(np.append(rows, np.setdiff1d(np.arange(d.n), rows)))
    return _rebuild(d.U, theta, np.ix_(back, back))

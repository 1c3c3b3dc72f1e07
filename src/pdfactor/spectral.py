"""Real block diagonalization of special orthogonal matrices.

A rotation V splits into planar rotation blocks and fixed axes. The
symmetric part (V + V^T)/2 has the plane cosines as eigenvalues; inside
each cluster of them the skew part K commutes with the symmetric part, so
the Hermitian matrix iK splits the cluster: every eigenvector z of a
positive rate sin(theta) spans the plane (Im z, Re z), and the directions of
rate zero are +1/-1 axes. A cluster of two cosines is one plane or two
axes, read in closed form; larger clusters (repeated angles, or a plane
near an axis) of one size go through one stacked complex ``eigh``.
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

    @classmethod
    def _trusted(cls, U, blocks) -> OrthogonalDecomposition:
        """_split's checked basis and its blocks, without copy or checks."""
        d = cls.__new__(cls)
        d.U, d.blocks, d.n = U, blocks, U.shape[0]
        return d


def _require_orthogonal(X, tol: float, what: str) -> None:
    """Raise NotOrthogonal unless ||X^T X - I||_F <= tol."""
    defect = _frob(X.T @ X - np.eye(X.shape[0]))
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
    return OrthogonalDecomposition._trusted(U, blocks)


def _split(V) -> tuple:
    """Basis U and descending angles theta of V in SO(n): plane i acts on
    columns 2i, 2i + 1 of U, the fixed axes follow. Raises NotOrthogonal or
    NumericalFailure unless U is orthogonal and U D U^T reproduces V."""
    n = V.shape[0]
    # Ascending cosines; the identity's eigenvectors come back exactly as I.
    cosines, Q = np.linalg.eigh((V + V.T) / 2.0)
    W = Q.T @ V @ Q
    starts = np.concatenate(([0], np.flatnonzero(np.diff(cosines) > CLUSTER_TOL) + 1))
    sizes = np.diff(np.append(starts, n))

    thetas, pairs, axes, axis_cos = [], [], [], []
    for m in sorted(set(sizes.tolist())):
        first = starts[sizes == m]
        if m == 1:  # a lone direction is an axis
            axes.append(Q[:, first])
            axis_cos.append(cosines[first])
            continue
        if m == 2:
            # One plane or two axes, read off the restricted action R(+-t).
            # A negative sine swaps the plane's columns to the orientation
            # (Im z, Re z) below gives.
            ij = first[:, None] + np.arange(2)
            diag = W[ij, ij]
            sin = W[first, first + 1] - W[first + 1, first]
            plane = np.abs(sin) / 2.0 > PLANE_CUT
            ij[plane & (sin < 0.0)] = ij[plane & (sin < 0.0), ::-1]
            thetas.append(np.arctan2(np.abs(sin[plane]), diag[plane].sum(axis=1)))
            pairs.append(Q[:, ij[plane].ravel()])
            axes.append(Q[:, ij[~plane].ravel()])
            axis_cos.append(diag[~plane].ravel())
            continue
        idx = first[:, None] + np.arange(m)
        # Everything below runs in cluster coordinates: the restricted
        # action keeps other clusters' eigenvector noise out of the planes.
        Wc = W[idx[:, :, None], idx[:, None, :]]
        WcT = Wc.transpose(0, 2, 1)
        # Two planes at pi/2 -+ t share one rate. Where |cos| < 1/2 (no axes
        # there) rate + cos keeps them apart, and keeps the rate's sign.
        quarter = (np.abs(cosines[first]) < 0.5)[:, None, None]
        rates, Z = np.linalg.eigh(0.5 * (quarter * (Wc + WcT) + 1j * (Wc - WcT)))
        planes = np.minimum(np.count_nonzero(rates > PLANE_CUT, axis=1), m // 2)
        for p in sorted(set(planes.tolist())):
            sel = planes == p
            C = np.eye(m)
            if p:
                Zp = Z[sel][:, :, m - p :]
                P = np.empty(Zp.shape[:2] + (2 * p,))
                P[:, :, 0::2] = Zp.imag
                P[:, :, 1::2] = Zp.real
                # The complete factor spans the planes first, then the axes.
                C, R = np.linalg.qr(P, mode="complete")
                C[:, :, : 2 * p] *= np.sign(np.diagonal(R, 0, 1, 2))[:, None]
            A = np.swapaxes(C, -1, -2) @ Wc[sel] @ C
            cols = (Q[:, idx[sel]].transpose(1, 0, 2) @ C).transpose(1, 0, 2)
            # Basis order (Im z, Re z) makes each plane's restricted action
            # [[cos, sin], [-sin, cos]] with positive theta; atan2 reads it
            # from twice the cosine and the sine.
            diag = np.diagonal(A, 0, 1, 2)
            sin = (np.diagonal(A, 1, 1, 2) - np.diagonal(A, -1, 1, 2))[:, 0 : 2 * p : 2]
            cos = diag[:, 0 : 2 * p : 2] + diag[:, 1 : 2 * p : 2]
            thetas.append(np.arctan2(sin, cos).ravel())
            pairs.append(cols[:, :, : 2 * p].reshape(n, -1))
            axes.append(cols[:, :, 2 * p :].reshape(n, -1))
            axis_cos.append(diag[:, 2 * p :].ravel())

    axes = np.concatenate(axes, axis=1)
    axis_cos = np.concatenate(axis_cos)
    minus = axes[:, axis_cos <= 0.0]
    if minus.shape[1] % 2:
        raise NumericalFailure(
            "odd count of -1 eigenvalues in a det +1 matrix; "
            "input is too far from orthogonal to classify"
        )
    thetas.append(np.full(minus.shape[1] // 2, math.pi))
    pairs.append(minus)
    theta = np.concatenate(thetas)
    order = np.argsort(-theta, kind="stable")
    rotations = np.concatenate(pairs, axis=1).reshape(n, -1, 2)[:, order]
    units = axes[:, axis_cos > 0.0]
    U = np.concatenate([rotations.reshape(n, -1), units], axis=1)
    theta = theta[order]
    _require_orthogonal(U, BASIS_TOL, "decomposition basis")
    if _frob(_rebuild(U, theta, _pair_rows(theta.size)) - V) > REASSEMBLY_GATE:
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


def _blocks_in_identity(n: int, rows, m00, m01, m10, m11) -> np.ndarray:
    """Identity matrices of size n with a 2x2 block [[m00, m01], [m10, m11]]
    on each row pair of ``rows`` (planes, 2). The entries have shape
    (..., planes) and the result (..., n, n)."""
    D = np.zeros(np.shape(m00)[:-1] + (n, n))
    diag = np.arange(n)
    D[..., diag, diag] = 1.0
    i, j = rows.T
    D[..., i, i] = m00
    D[..., i, j] = m01
    D[..., j, i] = m10
    D[..., j, j] = m11
    return D


def _pair_rows(planes: int) -> np.ndarray:
    """Row pairs (planes, 2) of planes on consecutive rows from row 0."""
    return np.arange(2 * planes).reshape(-1, 2)


def _rebuild(U, theta, rows) -> np.ndarray:
    """U D U^T, D the rotations by theta on the row pairs rows."""
    c, s = np.cos(theta), np.sin(theta)
    return U @ _blocks_in_identity(U.shape[0], rows, c, s, -s, c) @ U.T


def assemble(d: OrthogonalDecomposition) -> np.ndarray:
    """Rebuild U D U^T from a decomposition; rows not covered by any
    block act as identity."""
    if not isinstance(d, OrthogonalDecomposition):
        raise InvalidInput("assemble expects an OrthogonalDecomposition")
    return _rebuild(d.U, *_planes(d))

"""Real block diagonalization of special orthogonal matrices.

A rotation V splits into planar rotation blocks and fixed axes. We find the
splitting without complex arithmetic: the symmetric part (V + V^T)/2 has the
plane cosines as eigenvalues, and inside each of its eigenspaces the skew
part of the restricted action separates genuine rotation planes from +1/-1
axes. Minus-one axes always come in pairs (det V = +1) and are merged into
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
from .matfun import _as_square, _frob, sym_eig

__all__ = [
    "RotationBlock",
    "UnitBlock",
    "OrthogonalDecomposition",
    "block_diagonalize",
    "assemble",
]

ORTHO_TOL = 1e-8
CLUSTER_TOL = 1e-8
# Directions whose squared rotation rate falls below this are axes.
AXIS_TOL = 1e-17
GS_DROP_TOL = 1e-10


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
        defect = _frob(self.U.T @ self.U - np.eye(self.n))
        if defect > 1e-10:
            raise NotOrthogonal(
                f"decomposition basis has orthogonality defect {defect:.3e}"
            )
        seen = set()
        for b in self.blocks:
            rows = b.rows if isinstance(b, RotationBlock) else (b.row,)
            for i in rows:
                if not 0 <= i < self.n or i in seen:
                    raise InvalidInput(f"block rows invalid or overlapping: {i}")
                seen.add(i)


def _orthonormal_columns(cols, drop_tol=GS_DROP_TOL):
    """Gram-Schmidt with a second pass; drops dependent directions."""
    out = []
    for c in cols:
        c = c.copy()
        for _ in range(2):
            for u in out:
                c -= (u @ c) * u
        nc = float(np.linalg.norm(c))
        if nc > drop_tol:
            out.append(c / nc)
    return out


def block_diagonalize(V) -> OrthogonalDecomposition:
    """Split a special orthogonal matrix into rotation planes and axes.

    Returns an OrthogonalDecomposition with rotation blocks sorted by
    descending angle, then unit blocks. Every -1 eigenvalue pairs with
    another into a half-turn block.

    Raises NotOrthogonal or NegativeDeterminant for inputs outside SO(n).
    """
    V = _as_square(V, "block_diagonalize input")
    n = V.shape[0]
    I = np.eye(n)
    defect = _frob(V.T @ V - I)
    if defect > ORTHO_TOL:
        raise NotOrthogonal(f"input has orthogonality defect {defect:.3e}")
    det = float(np.linalg.det(V))
    if abs(det - 1.0) > ORTHO_TOL:
        raise NegativeDeterminant(
            f"input has determinant {det:.6f}; only det +1 decomposes "
            "into rotation blocks"
        )

    pair = sym_eig((V + V.T) / 2.0)
    # Group eigenvalues of the symmetric part into clusters.
    splits = [0]
    for i in range(1, n):
        if pair.d[i - 1] - pair.d[i] > CLUSTER_TOL:
            splits.append(i)
    splits.append(n)

    rotations = []
    units = []
    minus = []
    for a, b in zip(splits[:-1], splits[1:]):
        m = b - a
        B = pair.Q[:, a:b]
        # Everything below runs in cluster coordinates. Staying inside the
        # restricted action C keeps other clusters' eigenvector noise out
        # of the partner direction, which matters for small angles where
        # normalizing by sin(theta) amplifies whatever leaked in.
        C = B.T @ (V @ B)
        K = (C - C.T) / 2.0
        sep = sym_eig(-(K @ K))
        R = [sep.Q[:, j] for j in range(m) if sep.d[j] > AXIS_TOL]
        axis_cols = [sep.Q[:, j] for j in range(m) if sep.d[j] <= AXIS_TOL]
        placed = []
        while R:
            v = R[0]
            Cv = C @ v
            al = float(v @ Cv)
            w_raw = Cv - al * v
            r = float(np.linalg.norm(w_raw))
            if r <= GS_DROP_TOL:
                axis_cols.append(v)
                R = R[1:]
                continue
            theta = math.atan2(r, al)
            # w_raw / r would magnify any leak into the axes, the planes
            # already found here or v by 1/sin(theta), so take those
            # components out before normalizing.
            for u in axis_cols + placed + [v]:
                w_raw = w_raw - (u @ w_raw) * u
            w = w_raw / float(np.linalg.norm(w_raw))
            placed += [v, w]
            # Basis order (w, v) makes the restricted action exactly
            # [[cos, sin], [-sin, cos]] with positive theta.
            rotations.append((theta, B @ w, B @ v))
            rest = []
            for c in R[1:]:
                rest.append(c - (v @ c) * v - (w @ c) * w)
            # a rotation spends two cluster dimensions, so no more than
            # len(R) - 2 directions can genuinely survive deflation
            rest.sort(key=lambda c: -float(np.linalg.norm(c)))
            R = _orthonormal_columns(rest[: max(0, len(R) - 2)])
        for u in axis_cols:
            if float(u @ (C @ u)) > 0.0:
                units.append(B @ u)
            else:
                minus.append(B @ u)

    if len(minus) % 2:
        raise NumericalFailure(
            "odd count of -1 eigenvalues in a det +1 matrix; "
            "input is too far from orthogonal to classify"
        )
    for i in range(0, len(minus), 2):
        rotations.append((math.pi, minus[i], minus[i + 1]))

    rotations.sort(key=lambda t: -t[0])
    cols = []
    blocks = []
    row = 0
    for theta, b1, b2 in rotations:
        blocks.append(RotationBlock(theta=theta, rows=(row, row + 1)))
        cols.extend([b1, b2])
        row += 2
    for u in units:
        blocks.append(UnitBlock(row=row))
        cols.append(u)
        row += 1
    U = np.column_stack(cols) if cols else np.zeros((n, 0))
    decomp = OrthogonalDecomposition(U=U, blocks=blocks)
    if _frob(assemble(decomp) - V) > 1e-9:
        raise NumericalFailure(
            "reassembled decomposition does not reproduce the input; "
            "eigenvalue clusters are too entangled"
        )
    return decomp


def assemble(d: OrthogonalDecomposition) -> np.ndarray:
    """Rebuild U D U^T from a decomposition; rows not covered by any
    block act as identity."""
    if not isinstance(d, OrthogonalDecomposition):
        raise InvalidInput("assemble expects an OrthogonalDecomposition")
    D = np.eye(d.n)
    for b in d.blocks:
        if isinstance(b, RotationBlock):
            i, j = b.rows
            c, s = math.cos(b.theta), math.sin(b.theta)
            D[i, i] = c
            D[i, j] = s
            D[j, i] = -s
            D[j, j] = c
    return d.U @ D @ d.U.T

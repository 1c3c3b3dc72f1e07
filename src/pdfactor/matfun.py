"""Dense symmetric eigendecomposition and small-matrix functions.

Transport maps and flow simulation funnel through the primitives here, so
they are written for determinism first: one symmetric eigensolver (LAPACK
``eigh``) with descending order and a fixed eigenvector sign convention,
and the SPD matrix functions evaluated through it. Block diagonalization
and verification call the stacked LAPACK routines directly, since they
take many small decompositions at once and need no sign convention. The
polar decomposition runs Higham's scaled Newton iteration on the matrix
itself, and the general exponential uses scaling and squaring with
diagonal Pade approximants.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
    SingularInput,
)

__all__ = [
    "EigenPair",
    "sym_eig",
    "spd_sqrt",
    "spd_log",
    "sym_exp",
    "expm",
    "polar",
    "cond",
]

# A symmetric input may deviate from exact symmetry by roundoff only.
SYM_RTOL = 1e-12
# SPD certificate: smallest eigenvalue must clear this fraction of the largest.
SPD_RTOL = 1e-12

_EPS = float(np.finfo(float).eps)
# Newton polar iteration: step cap and the relative step that ends it.
_POLAR_STEPS = 30
_POLAR_STOP = math.sqrt(_EPS)


class EigenPair(NamedTuple):
    """Eigenvectors (columns of Q) and eigenvalues d, sorted descending."""

    Q: np.ndarray
    d: np.ndarray


def _as_square(A, name="matrix") -> np.ndarray:
    A = np.array(A, dtype=float, order="C")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise InvalidInput(f"{name} has non-finite entries")
    if A.shape[0] == 0:
        raise InvalidInput(f"{name} is empty")
    return A


def _frob(A) -> float:
    return float(np.linalg.norm(A, "fro"))


def _require_symmetric(S, name="matrix") -> np.ndarray:
    S = _as_square(S, name)
    defect = _frob(S - S.T)
    if defect > SYM_RTOL * (1.0 + _frob(S)):
        raise InvalidInput(f"{name} is not symmetric (defect {defect:.3e})")
    # Hand the eigensolver the exactly symmetric part, not just one triangle.
    return (S + S.T) / 2.0


def sym_eig(S) -> EigenPair:
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Parameters
    ----------
    S : array_like
        Symmetric matrix (Frobenius symmetry defect at most
        ``1e-12 * (1 + ||S||_F)``).

    Returns
    -------
    EigenPair
        ``Q`` orthogonal with eigenvectors as columns, ``d`` eigenvalues in
        descending order. The largest-magnitude component of each column is
        made positive (lowest index on ties), so reruns on one build are
        bit-identical.

    Raises
    ------
    InvalidInput
        If S is not square or not symmetric.
    """
    A = _require_symmetric(S, "sym_eig input")
    d, Q = np.linalg.eigh(A)
    d = d[::-1].copy()
    Q = Q[:, ::-1]
    cols = np.arange(Q.shape[1])
    lead = Q[np.argmax(np.abs(Q), axis=0), cols]
    Q = Q * np.where(lead < 0.0, -1.0, 1.0)
    return EigenPair(Q=Q, d=d)


def _spd_ok(dmax, dmin):
    """The SPD certificate, elementwise on extreme eigenvalues: the smallest
    must clear SPD_RTOL times the largest (NaN fails). It is relative, so a
    matrix passes or fails it alike at every scale."""
    return dmin > SPD_RTOL * dmax


def _certify_spd(d, name: str) -> None:
    """Raise NotPositiveDefinite unless eigenvalues d, in descending order,
    pass the SPD certificate."""
    dmax = float(d[0])
    dmin = float(d[-1])
    if not _spd_ok(dmax, dmin):
        raise NotPositiveDefinite(
            f"{name} is not positive definite to working precision "
            f"(eigenvalue range [{dmin:.3e}, {dmax:.3e}])"
        )


def _spd_eig(S, name: str) -> EigenPair:
    pair = sym_eig(S)
    _certify_spd(pair.d, name)
    return pair


def _apply_spectral(pair: EigenPair, values: np.ndarray) -> np.ndarray:
    R = (pair.Q * values) @ pair.Q.T
    return (R + R.T) / 2.0


def spd_sqrt(Sigma) -> np.ndarray:
    """Principal square root of an SPD matrix, itself SPD."""
    pair = _spd_eig(Sigma, "spd_sqrt input")
    return _apply_spectral(pair, np.sqrt(pair.d))


def spd_log(Sigma) -> np.ndarray:
    """Matrix logarithm of an SPD matrix; the result is symmetric."""
    pair = _spd_eig(Sigma, "spd_log input")
    return _apply_spectral(pair, np.log(pair.d))


def sym_exp(A) -> np.ndarray:
    """Exponential of a symmetric matrix, evaluated on its eigenvalues."""
    pair = sym_eig(A)
    return _apply_spectral(pair, np.exp(pair.d))


def cond(Sigma) -> float:
    """Spectral condition number (eigenvalue ratio) of an SPD matrix."""
    pair = _spd_eig(Sigma, "cond input")
    return float(pair.d[0] / pair.d[-1])


# Pade order thresholds on the 1-norm, degree-13 scaling-and-squaring family.
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068),
)
_THETA_13 = 5.371920351148152

_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0,
        8821612800.0,
        2075673600.0,
        302702400.0,
        30270240.0,
        2162160.0,
        110880.0,
        3960.0,
        90.0,
        1.0,
    ),
    13: (
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ),
}


def _pade_uv(A: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    b = _PADE_B[m]
    n = A.shape[0]
    I = np.eye(n)
    A2 = A @ A
    if m < 13:
        # U collects odd powers, V even powers, built on powers of A^2.
        powers = [I, A2]
        for _ in range((m - 1) // 2 - 1):
            powers.append(powers[-1] @ A2)
        U = np.zeros_like(A)
        V = np.zeros_like(A)
        for k, P in enumerate(powers):
            U += b[2 * k + 1] * P
            V += b[2 * k] * P
        return A @ U, V
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * I
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * I
    )
    return U, V


def expm(A) -> np.ndarray:
    """General matrix exponential by scaling and squaring.

    The Pade order (3, 5, 7, 9, or 13) and the number of squarings are chosen
    from the 1-norm of A with the standard degree-13 thresholds.
    """
    A = _as_square(A, "expm input")
    norm = float(np.linalg.norm(A, 1))
    s = 0
    m = 13
    for order, theta in _PADE_THETA:
        if norm <= theta:
            m = order
            break
    else:
        if norm > _THETA_13:
            s = int(math.ceil(math.log2(norm / _THETA_13)))
    B = A / (2.0**s) if s else A
    U, V = _pade_uv(B, m)
    try:
        X = np.linalg.solve(V - U, V + U)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Pade denominator is singular: {exc}") from exc
    for _ in range(s):
        X = X @ X
    return X


def polar(Phi) -> tuple[np.ndarray, np.ndarray]:
    """Right polar decomposition Phi = V S with V orthogonal and S SPD.

    V comes from Higham's scaled Newton iteration on Phi itself,
    X <- (zeta X + X^{-T} / zeta) / 2 with zeta = (||X^{-1}||_F / ||X||_F)^{1/2},
    and S = sym(V^T Phi). Working on Phi rather than Phi^T Phi keeps the
    condition number from being squared. det V carries the sign of det Phi.

    Raises
    ------
    SingularInput
        If Phi is singular to working precision (``||Phi||_F ||Phi^{-1}||_F``
        above ``1 / (n eps)``).
    NumericalFailure
        If the iteration has not settled after 30 steps.
    """
    Phi = _as_square(Phi, "polar input")
    n = Phi.shape[0]
    # Iterate on Phi times an exact power of two that brings its largest
    # entry near 1, so the norms below cannot overflow; V does not depend
    # on the scale.
    X = np.ldexp(Phi, -math.frexp(float(np.max(np.abs(Phi))))[1])
    try:
        Xinv = np.linalg.inv(X)
    except np.linalg.LinAlgError as exc:
        raise SingularInput("polar input is singular to working precision") from exc
    kappa = _frob(X) * _frob(Xinv)
    if not kappa <= 1.0 / (n * _EPS):
        raise SingularInput(
            "polar input is singular to working precision "
            f"(condition estimate {kappa:.3e})"
        )
    # Every singular value of an iterate is at least 1, so the inverses
    # below cannot fail.
    scale = True
    for _ in range(_POLAR_STEPS):
        # Scaling speeds up the early steps; near convergence it only adds
        # rounding, so the last steps are the plain Newton iteration.
        zeta = math.sqrt(_frob(Xinv) / _frob(X)) if scale else 1.0
        Xnew = 0.5 * (zeta * X + Xinv.T / zeta)
        delta = _frob(Xnew - X) / _frob(Xnew)
        X = Xnew
        # Convergence is quadratic: a step of size delta leaves an error
        # of order delta^2, which is roundoff once delta is below sqrt(eps).
        if delta <= _POLAR_STOP:
            VtP = X.T @ Phi
            return X, (VtP + VtP.T) / 2.0
        scale = delta > 1e-2
        Xinv = np.linalg.inv(X)
    raise NumericalFailure(f"polar iteration did not converge in {_POLAR_STEPS} steps")

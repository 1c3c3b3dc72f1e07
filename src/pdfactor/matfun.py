"""Dense symmetric eigendecomposition and small-matrix functions.

Transport maps and flow simulation funnel through the primitives here, so
they are written for determinism first: one symmetric eigensolver (LAPACK
``eigh``) with descending order and a fixed eigenvector sign convention,
and the SPD matrix functions evaluated through it. Block diagonalization
and verification call the stacked LAPACK routines directly, since they
take many small decompositions at once and need no sign convention. The
polar decomposition takes one SVD of the matrix itself, whose singular
values give the exact 2-norm condition number that the singularity gate
and the stretch certificate read. The general exponential uses scaling
and squaring with one diagonal Pade approximant, of degree 13.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidInput,
    InvalidParams,
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
_COUNT_MAX = int(np.iinfo(np.intp).max)  # the most elements an array axis holds


class EigenPair(NamedTuple):
    """Eigenvectors (columns of Q) and eigenvalues d, sorted descending."""

    Q: np.ndarray
    d: np.ndarray


def _floats(value, name, copy=True) -> np.ndarray:
    """value as a C-ordered float array, a fresh one unless copy is None;
    raises InvalidInput naming it if it is ragged or not numeric."""
    try:
        return np.array(value, dtype=float, order="C", copy=copy)
    except (TypeError, ValueError, OverflowError) as err:
        raise InvalidInput(f"{name} must be an array of real numbers ({err})") from err


def _as_square(A, name="matrix") -> np.ndarray:
    A = _floats(A, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise InvalidInput(f"{name} has non-finite entries")
    if A.shape[0] == 0:
        raise InvalidInput(f"{name} is empty")
    return A


def _real(value, name, exc=InvalidParams) -> float:
    """A scalar parameter as a finite float; raises exc naming it otherwise.
    Callers test the range themselves, or use _positive or _integer."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise exc(f"{name} must be a real number, got {value!r}") from err
    if not math.isfinite(x):
        raise exc(f"{name} must be finite, got {x}")
    return x


def _positive(value, name, exc=InvalidParams) -> float:
    """_real for a parameter that must be > 0."""
    x = _real(value, name, exc)
    if x <= 0.0:
        raise exc(f"{name} must be positive, got {x}")
    return x


def _integer(value, name, least, most=_COUNT_MAX) -> int:
    """_real for a parameter that must be an integer in [least, most], as an int."""
    x = _real(value, name)
    if not x.is_integer() or x < least:
        raise InvalidParams(f"{name} must be an integer >= {least}, got {value}")
    if x > most:
        raise InvalidParams(f"{name} must be at most {most}, got {value}")
    return int(x)


def _frob(A) -> float:
    """np.linalg.norm(A, "fro") bit for bit, without the wrapper."""
    x = A.ravel(order="K")
    return math.sqrt(x.dot(x))


def _frobs(F) -> np.ndarray:
    """np.linalg.norm(F, axis=(-2, -1)) bit for bit, without the wrapper."""
    return np.sqrt(np.add.reduce(F * F, axis=(-2, -1)))


def _sym_check(F) -> tuple:
    """Symmetry check of a stack F (..., n, n), safe at every scale: each
    matrix's Frobenius symmetry defect, whether it is symmetric to roundoff
    (defect <= SYM_RTOL (1 + ||F||_F)), the exponents e of the largest
    entries, in [2^(e-1), 2^e), and the stack Fs = F / 2^ex it is measured
    in, ex = max(0, e): the squares in the norms (_frobs) cannot overflow,
    and below 1 the "1 +" keeps its meaning."""
    e = np.frexp(np.abs(F).max(axis=(-2, -1)))[1]
    ex = np.maximum(0, e)
    Fs = np.ldexp(F, -ex[..., None, None])
    defect = _frobs(Fs - Fs.swapaxes(-1, -2))
    symmetric = defect <= SYM_RTOL * (np.ldexp(1.0, -ex) + _frobs(Fs))
    return np.ldexp(defect, ex), symmetric, e, Fs


def _sym_spd(F) -> tuple:
    """Symmetry and SPD checks of a stack F (..., n, n), safe at every scale:
    _sym_check's defect, verdict and e, and the extreme eigenvalues dmax,
    dmin of each symmetric part, from one stacked ``eigvalsh``, in Fs's
    units 2^max(0, e), where no eigenvalue overflows. The SPD certificate
    is ``symmetric & _spd_ok(dmax, dmin)``."""
    defect, symmetric, e, Fs = _sym_check(F)
    d = np.linalg.eigvalsh((Fs + Fs.swapaxes(-1, -2)) / 2.0)
    return defect, symmetric, d[..., -1], d[..., 0], e


def _require_symmetric(S, name="matrix") -> np.ndarray:
    S = _as_square(S, name)
    defect, symmetric, _, _ = _sym_check(S)
    if not symmetric:
        raise InvalidInput(f"{name} is not symmetric (defect {defect:.3e})")
    # Hand the eigensolver the exactly symmetric part, not just one triangle.
    return (S + S.T) / 2.0


def sym_eig(S) -> EigenPair:
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``): Q
    orthogonal with the eigenvectors as columns, and the eigenvalues d in
    descending order. The largest-magnitude component of each column is made
    positive (lowest index on ties), so reruns on one build are bit-identical.

    Raises InvalidInput unless S is square and symmetric (Frobenius symmetry
    defect at most 1e-12 (1 + ||S||_F)), NumericalFailure if ``eigh`` does
    not converge.
    """
    A = _require_symmetric(S, "sym_eig input")
    try:
        d, Q = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigh did not converge: {exc}") from exc
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


# Degree-13 diagonal Pade coefficients b_0, ..., b_13 (Higham 2005),
# divided by b_0 so that b_0 = 1 and expm(0) is exactly I, and the 1-norm
# up to which that approximant is accurate to roundoff unscaled.
_PADE_B = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
))
_THETA_13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """General matrix exponential by scaling and squaring.

    A is halved s times until its 1-norm is at most theta_13, the
    degree-13 Pade approximant is evaluated there, and the result is
    squared s times. That one degree is accurate to roundoff at every norm.
    """
    A = _as_square(A, "expm input")
    norm = float(np.linalg.norm(A, 1))
    s = int(math.ceil(math.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    B = A / (2.0**s) if s else A
    b = _PADE_B
    I = np.eye(A.shape[0])
    B2 = B @ B
    B4 = B2 @ B2
    B6 = B2 @ B4
    # U collects the odd powers of B, V the even ones.
    U = B @ (
        B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2)
        + b[7] * B6
        + b[5] * B4
        + b[3] * B2
        + b[1] * I
    )
    V = (
        B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2)
        + b[6] * B6
        + b[4] * B4
        + b[2] * B2
        + I
    )
    try:
        X = np.linalg.solve(V - U, V + U)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Pade denominator is singular: {exc}") from exc
    for _ in range(s):
        X = X @ X
    return X


def polar(Phi) -> tuple[np.ndarray, np.ndarray]:
    """Right polar decomposition Phi = V S with V orthogonal and S SPD.

    One SVD X = U Sigma W^T of Phi times a power of two gives V = U W^T
    (Higham 1986), and S = sym(V^T Phi). Forming S from Phi itself rather
    than as W Sigma W^T keeps the backward error ||V S - Phi|| at roundoff.
    det V carries the sign of det Phi.

    Raises SingularInput if Phi is singular to working precision (its 2-norm
    condition number sigma_1 / sigma_n exceeds 1 / (n eps)), NumericalFailure
    if the SVD does not converge.
    """
    V, S, e, _ = _polar(Phi)
    return V, np.ldexp(S, e)


def _polar(Phi) -> tuple[np.ndarray, np.ndarray, int, float]:
    """polar's V, its S in units of 2^e, where the entries are below n, e,
    and kappa = sigma_1 / sigma_n from the same SVD."""
    Phi = _as_square(Phi, "polar input")
    n = Phi.shape[0]
    # Factor X, Phi times an exact power of two that brings its largest
    # entry near 1, so nothing below can overflow; V does not depend on the
    # scale, and S is formed from X.
    e = math.frexp(float(np.abs(Phi).max()))[1]
    X = np.ldexp(Phi, -e)
    try:
        U, sigma, Wt = np.linalg.svd(X)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD of the polar input failed: {exc}") from exc
    kappa = float(sigma[0] / sigma[-1]) if sigma[-1] > 0.0 else math.inf
    if not kappa <= 1.0 / (n * _EPS):
        raise SingularInput(
            "polar input is singular to working precision "
            f"(condition number {kappa:.3e})"
        )
    V = U @ Wt
    VtX = V.T @ X
    return V, (VtX + VtX.T) / 2.0, e, kappa

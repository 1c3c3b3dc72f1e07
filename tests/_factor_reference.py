"""The factor path as it stood before its numpy calls were trimmed.

Every function here is the earlier version of one that now makes fewer
numpy calls for the same work: the polar split, the rotation split and its
gates, the planar plans, waypoints and Monge maps, the stacked stages, and
verify's symmetry and SPD checks. Helpers that did not change come from
the package. The trimmed code must match these byte for byte: the same
factors, the same reports, the same errors. Some differences are kept on
purpose: the memory order of the split's basis (see split); verify's
product, taken in units of each factor's power of two so that it stays
finite past the float range (there the earlier product gave nan), and its
residual's norm, taken in units that hold the product; and the symmetry
and SPD checks, made in each factor's own units and relative to its norm
(see sym_check).
"""

import math

import numpy as np

from pdfactor.ballantine import FactorOptions, FactorStats, VerificationReport
from pdfactor.errors import (
    DimensionMismatch,
    InvalidInput,
    NonPositiveDeterminant,
    NotOrthogonal,
    NumericalFailure,
    SingularInput,
)
from pdfactor.matfun import SPD_RTOL, SYM_RTOL, _EPS, _floats, _frob, _positive, _spd_ok
from pdfactor.planar import (
    _LAM_GRID,
    _REACH3,
    FactorChain,
    _as_chain,
    _eig2,
    _require_reach,
    _tilt,
)
from pdfactor.spectral import (
    BASIS_TOL,
    CLUSTER_TOL,
    PLANE_CUT,
    REASSEMBLY_GATE,
    OrthogonalDecomposition,
    _planes,
    _require_det_one,
)


def as_square(A, name="matrix"):
    A = _floats(A, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise InvalidInput(f"{name} has non-finite entries")
    if A.shape[0] == 0:
        raise InvalidInput(f"{name} is empty")
    return A


def polar(Phi):
    Phi = as_square(Phi, "polar input")
    n = Phi.shape[0]
    X = np.ldexp(Phi, -math.frexp(float(np.max(np.abs(Phi))))[1])
    U, sigma, Wt = np.linalg.svd(X)
    kappa = float(sigma[0] / sigma[-1]) if sigma[-1] > 0.0 else math.inf
    if not kappa <= 1.0 / (n * _EPS):
        raise SingularInput(
            "polar input is singular to working precision "
            f"(condition number {kappa:.3e})"
        )
    V = U @ Wt
    VtP = V.T @ Phi
    return V, (VtP + VtP.T) / 2.0, kappa


def sym_check(F):
    # Measured in units of each matrix's own power of two, 2^e, where the
    # squares neither overflow nor underflow, and relative to the matrix's
    # norm, so that a verdict holds alike at every scale (the earlier
    # version kept matrices below 1 unscaled, with an absolute floor).
    e = np.frexp(np.max(np.abs(F), axis=(-2, -1)))[1]
    Fs = np.ldexp(F, -e[..., None, None])
    defect = np.linalg.norm(Fs - np.swapaxes(Fs, -1, -2), axis=(-2, -1))
    symmetric = defect <= SYM_RTOL * np.linalg.norm(Fs, axis=(-2, -1))
    return np.ldexp(defect, e), symmetric, e, Fs


def sym_spd(F):
    # The eigenvalues stay in the units 2^e, so the condition and the SPD
    # certificate read the same ratio at every scale.
    defect, symmetric, e, Fs = sym_check(F)
    d = np.linalg.eigvalsh((Fs + np.swapaxes(Fs, -1, -2)) / 2.0)
    return defect, symmetric, d[..., -1], d[..., 0], e


def require_orthogonal(X, tol, what):
    defect = _frob(X.T @ X - np.eye(X.shape[0]))
    if defect > tol:
        raise NotOrthogonal(f"{what} has orthogonality defect {defect:.3e}")


def blocks_in_identity(n, rows, m00, m01, m10, m11):
    D = np.zeros(np.shape(m00)[:-1] + (n, n))
    diag = np.arange(n)
    D[..., diag, diag] = 1.0
    i, j = rows.T
    D[..., i, i] = m00
    D[..., i, j] = m01
    D[..., j, i] = m10
    D[..., j, j] = m11
    return D


def pair_rows(planes):
    return np.arange(2 * planes).reshape(-1, 2)


def rebuild(U, theta, rows):
    c, s = np.cos(theta), np.sin(theta)
    return U @ blocks_in_identity(U.shape[0], rows, c, s, -s, c) @ U.T


def assemble(d):
    if not isinstance(d, OrthogonalDecomposition):
        raise InvalidInput("assemble expects an OrthogonalDecomposition")
    return rebuild(d.U, *_planes(d))


def split(V):
    n = V.shape[0]
    cosines, Q = np.linalg.eigh((V + V.T) / 2.0)
    W = Q.T @ V @ Q
    starts = np.concatenate(([0], np.flatnonzero(np.diff(cosines) > CLUSTER_TOL) + 1))
    sizes = np.diff(np.append(starts, n))

    thetas, pairs, axes, axis_cos = [], [], [], []
    for m in sorted(set(sizes.tolist())):
        first = starts[sizes == m]
        if m == 1:
            axes.append(Q[:, first])
            axis_cos.append(cosines[first])
            continue
        if m == 2:
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
        Wc = W[idx[:, :, None], idx[:, None, :]]
        WcT = Wc.transpose(0, 2, 1)
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
                C, R = np.linalg.qr(P, mode="complete")
                C[:, :, : 2 * p] *= np.sign(np.diagonal(R, 0, 1, 2))[:, None]
            A = np.swapaxes(C, -1, -2) @ Wc[sel] @ C
            cols = (Q[:, idx[sel]].transpose(1, 0, 2) @ C).transpose(1, 0, 2)
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
    # The one change from the earlier version: np.concatenate followed the
    # layout of its parts, so U came out in Fortran order for a few inputs
    # (one half turn read from two -1 axes, every other direction but one or
    # two +1 axes in a plane), and at n 17-20 the stage products rounded
    # differently from a C-ordered U. The trimmed split always returns U in
    # C order.
    U = np.ascontiguousarray(np.concatenate([rotations.reshape(n, -1), units], axis=1))
    theta = theta[order]
    require_orthogonal(U, BASIS_TOL, "decomposition basis")
    if _frob(rebuild(U, theta, pair_rows(theta.size)) - V) > REASSEMBLY_GATE:
        raise NumericalFailure(
            "reassembled decomposition does not reproduce the input; "
            "eigenvalue clusters are too entangled"
        )
    return U, theta


def plan(psi, k, budget):
    j_top = int(np.searchsorted(_LAM_GRID, budget, side="right")) - 1
    reach = (k - 2) * _REACH3[: j_top + 1]
    j = np.searchsorted(reach, psi)
    top, max_phi = float(reach[min(int(j.max()), j_top)]), float(reach[-1])
    _require_reach(float(psi.max()), k, top, max_phi, "every lam up to ", budget)
    lam = _LAM_GRID[j]
    return lam, _tilt(lam, psi / (k - 2))


def waypoints(lam, theta, k):
    phi = np.arange(k - 1.0)[:, None] * theta
    c, s = np.cos(phi), np.sin(phi)
    mu = 1.0 / lam
    stretched = lam != 1.0
    W = np.empty((3, k + 1, lam.size))
    W[:, 0] = W[:, k] = np.array([1.0, 0.0, 1.0])[:, None]
    W[0, 1:k] = np.where(stretched, c * c * lam + s * s * mu, 1.0)
    W[1, 1:k] = -c * s * (lam - mu)
    W[2, 1:k] = np.where(stretched, s * s * lam + c * c * mu, 1.0)
    return W


def monge2(A, B):
    a0, b0, d0 = A
    a1, b1, d1 = B
    root = np.sqrt(2.0 + a0 * a1 + 2.0 * b0 * b1 + d0 * d1)
    return np.stack((d0 + a1, b1 - b0, a0 + d1)) / root


def chain_factors(lam, theta, k):
    W = waypoints(lam, theta, k)
    F = monge2(W[:, :-1], W[:, 1:])
    root = np.sqrt(lam)
    F[0, 0], F[1, 0], F[2, 0] = root, 0.0, 1.0 / root
    ok = _spd_ok(*_eig2(F))
    if not ok.all():
        p = int(np.argmin(ok.all(axis=0)))
        raise NumericalFailure(
            f"factor {int(np.argmin(ok[:, p])) + 1} lost SPD certification "
            f"at lam={lam[p]:.6g}; the chain is too ill-conditioned at this scale"
        )
    return F


def stages(U, theta, opts):
    if not theta.size:
        return []
    k = opts.k_rotation
    a, b, d = chain_factors(*plan(theta, k, opts.lam_budget), k)
    D = blocks_in_identity(U.shape[0], pair_rows(theta.size), a, b, b, d)
    N = U @ D @ U.T
    return list((N + N.transpose(0, 2, 1)) / 2.0)


def factor_matrix(Phi, opts=None):
    opts = FactorOptions() if opts is None else opts
    V, S, kappa = polar(Phi)
    det = float(np.linalg.det(V))
    if det < 0.0:
        raise NonPositiveDeterminant(
            "determinant not positive; a product of SPD factors "
            "always has positive determinant"
        )
    _require_det_one(det)
    if not _spd_ok(kappa, 1.0):
        raise NumericalFailure(
            f"the stretch has condition number {kappa:.3e}, at or past "
            f"the SPD certificate's limit {1.0 / SPD_RTOL:.0e}"
        )
    chain = stages(*split(V), opts)
    D = S - np.eye(V.shape[0])
    if chain and np.max(np.abs(D)) <= 1e-10 and _frob(D) <= 1e-10:
        return FactorChain._trusted(chain)
    return FactorChain._trusted([S] + chain)


def verify(chain, target, tol):
    chain = _as_chain(chain)
    target = as_square(target, "verify target")
    tol = _positive(tol, "tol")
    if target.shape[0] != chain.n:
        raise DimensionMismatch(
            f"chain is {chain.n}x{chain.n}, target {target.shape[0]}x"
            f"{target.shape[0]}"
        )
    e = math.frexp(float(np.max(np.abs(target))))[1]
    tnorm = _frob(np.ldexp(target, -e))
    if tnorm == 0.0:
        raise InvalidInput("verify target is the zero matrix")
    # The product in units of each factor's own power of two, then in the
    # target's: chain.product() in the normal range, finite past it.
    P, total = None, 0
    for M in chain.factors:
        m = math.frexp(float(np.max(np.abs(M))))[1]
        M = np.ldexp(M, -m)
        P, total = (M if P is None else M @ P), total + m
    # The difference in units 2^u, u >= 0, that hold the product's entries
    # below 1: finite whenever the true residual is (the earlier version
    # took the norm in the target's units, where the squares of a residual
    # above about 1e154 overflowed).
    u = max(0, math.frexp(float(np.max(np.abs(P))))[1] + total - e)
    D = np.ldexp(P, total - e - u) - np.ldexp(np.ldexp(target, -e), -u)
    with np.errstate(over="ignore"):
        residual = float(np.ldexp(_frob(D) / tnorm, u))

    defects, symmetric, dmax, dmin, ex = sym_spd(np.stack(chain.factors))
    stats = [
        FactorStats(
            symmetry_defect=defect,
            min_eigenvalue=float(np.ldexp(lo, x)),
            condition=hi / lo if lo > 0.0 else math.inf,
        )
        for defect, hi, lo, x in zip(
            defects.tolist(), dmax.tolist(), dmin.tolist(), ex.tolist()
        )
    ]
    spd = symmetric & _spd_ok(dmax, dmin)
    return VerificationReport(
        residual=residual,
        factors=stats,
        factor_count=len(chain.factors),
        tol=tol,
        passed=bool(residual <= tol and spd.all()),
    )

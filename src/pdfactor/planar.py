"""Planar rotation-by-composition chains.

The k-factor scheme stretches the identity covariance to diag(lam, 1/lam),
carries it through k-2 successive rotations by theta, and relaxes back to
the identity. Each leg is a Monge map, so every factor is SPD while the
assembled product is a pure rotation by some net angle phi_k(theta, lam).
With c = 2/(lam + 1/lam) that angle has the closed form

    phi_k(theta, lam) = (k-2) atan2((1-c) sin(theta) cos(theta),
                                    cos^2(theta) + c sin^2(theta)),

continuous and pi-periodic in theta. Sweeping it, inverting it for a target
and planning the cheapest lam that reaches a target are exact evaluations
of that formula. Every waypoint is unimodular, so each factor has a closed
form too: the Monge map from A to B is (adj A + B) / sqrt(2 + tr(AB)), and
building a chain takes no eigendecomposition. The gradient generator whose
exponential realizes a single leg in time t_fn also lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInput,
    InvalidParams,
    DimensionMismatch,
    NotARotation,
    NotPositiveDefinite,
    NumericalFailure,
    TargetUnreachable,
)
from .matfun import _as_square, _certify_spd, _frob, _require_symmetric, spd_log

__all__ = [
    "ChainParams",
    "FactorChain",
    "SweepTable",
    "rotation2",
    "chain_covariances",
    "build_chain",
    "chain_product",
    "net_rotation",
    "phi_sweep",
    "solve_theta",
    "plan_scheme",
    "gradient_generator",
]

# A chain product is accepted as a rotation up to this Frobenius defect.
# Factors quoted to a few decimals (the usual way chains arrive from tables)
# already carry ~1e-4 of defect, so the gate sits well above that but far
# below anything a genuinely non-orthogonal product can reach.
ROTATION_GATE = 1e-3

# Ratio of plan_scheme's lam grid 1.25^j.
_LAM_STEP = 1.25


def _check_scheme(k, lam, k_name="k", lam_name="lam") -> tuple:
    """Validate a factor count and a scale: k an integer >= 3, lam >= 1.

    Returns them as (int, float); raises InvalidParams otherwise.
    """
    try:
        kf = float(k)
        lamf = float(lam)
    except (TypeError, ValueError) as exc:
        raise InvalidParams(
            f"non-numeric {k_name} or {lam_name}: {exc}"
        ) from exc
    if not kf.is_integer() or kf < 3:
        raise InvalidParams(f"{k_name} must be an integer >= 3, got {k}")
    if not math.isfinite(lamf) or lamf < 1.0:
        raise InvalidParams(f"{lam_name} must be >= 1, got {lam}")
    return int(kf), lamf


@dataclass
class ChainParams:
    """Scheme parameters: scale lam >= 1, step angle theta, factor count k."""

    lam: float
    theta: float
    k: int

    def __post_init__(self):
        self.k, self.lam = _check_scheme(self.k, self.lam)
        try:
            self.theta = float(self.theta)
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"non-numeric theta: {exc}") from exc
        if not math.isfinite(self.theta):
            raise InvalidParams("theta must be finite")


@dataclass
class FactorChain:
    """Ordered SPD factors, applied right to left: product = M_k ... M_1."""

    factors: list
    params: ChainParams | None = None
    n: int = field(init=False)

    def __post_init__(self):
        if not self.factors:
            raise InvalidInput("factor chain is empty")
        mats = [_as_square(M, "chain factor") for M in self.factors]
        n = mats[0].shape[0]
        for M in mats:
            if M.shape[0] != n:
                raise DimensionMismatch("chain factors differ in size")
        self.factors = mats
        self.n = n

    @classmethod
    def _trusted(cls, factors, params=None) -> FactorChain:
        """A chain of fresh, equal-sized float arrays the library built:
        taken as they are, without the copy and checks."""
        chain = cls.__new__(cls)
        chain.factors, chain.params, chain.n = factors, params, factors[0].shape[0]
        return chain

    def product(self) -> np.ndarray:
        return chain_product(self.factors)


@dataclass
class SweepTable:
    """Angle sweep: phi[i] is the unwrapped net rotation at theta[i]."""

    lam: float
    k: int
    theta: np.ndarray
    phi: np.ndarray


def rotation2(theta) -> np.ndarray:
    """The 2x2 rotation [[cos t, sin t], [-sin t, cos t]]."""
    t = float(theta)
    if not math.isfinite(t):
        raise InvalidParams("rotation angle must be finite")
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, s], [-s, c]])


def chain_product(factors) -> np.ndarray:
    """Multiply factors right to left (factors[0] acts first)."""
    P = np.eye(np.asarray(factors[0]).shape[0])
    for M in factors:
        P = np.asarray(M, dtype=float) @ P
    return P


def _coerce_params(p) -> ChainParams:
    if isinstance(p, ChainParams):
        return p
    raise InvalidParams(f"expected ChainParams, got {type(p).__name__}")


def chain_covariances(p: ChainParams) -> list:
    """Covariance waypoints I = S_0, S_1, ..., S_k = I of the scheme.

    S_1 = diag(lam, 1/lam) and each interior S_j rotates the previous one
    by theta. With lam = 1 every waypoint is exactly the identity.
    """
    p = _coerce_params(p)
    I = np.eye(2)
    if p.lam == 1.0:
        return [I.copy() for _ in range(p.k + 1)]
    U = rotation2(p.theta)
    covs = [I, np.diag([p.lam, 1.0 / p.lam])]
    for _ in range(p.k - 2):
        S = U @ covs[-1] @ U.T
        covs.append((S + S.T) / 2.0)
    covs.append(np.eye(2))
    return covs


def _monge2(A, B) -> np.ndarray:
    """SPD solution M of M A M = B for 2x2 SPD A, B with det A = det B = 1.

    With A^{-1} = adj A, M = A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}
    is (adj A + B) / sqrt(2 + tr(AB)): the square root of a unimodular SPD
    2x2 matrix X is (X + I) / sqrt(2 + tr X). tr(AB) >= 2, so the root
    has no cancellation.
    """
    adj = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
    # B is symmetric, so the entrywise dot product of A and B is tr(AB).
    return (adj + B) / math.sqrt(2.0 + float(np.vdot(A, B)))


def _eig2(M) -> tuple:
    """Eigenvalues (largest, smallest) of a symmetric 2x2 matrix, from its
    trace and determinant; the smaller one as det/largest, which avoids
    the cancellation in half-trace minus radius."""
    a, b, c = float(M[0, 0]), float(M[0, 1]), float(M[1, 1])
    half_tr = 0.5 * (a + c)
    r = math.hypot(0.5 * (a - c), b)
    dmax = half_tr + r
    return dmax, ((a * c - b * b) / dmax if dmax > 0.0 else half_tr - r)


def build_chain(p: ChainParams) -> FactorChain:
    """Construct the k SPD factors whose product is the net rotation.

    Factor j is the Monge map from waypoint j-1 to waypoint j. Every
    waypoint is unimodular, so each map has the closed form
    (adj S_{j-1} + S_j) / sqrt(2 + tr(S_{j-1} S_j)); the first factor is
    exactly diag(sqrt(lam), 1/sqrt(lam)), and lam = 1 gives exact
    identities.

    Raises NumericalFailure if a factor fails the SPD certificate
    (smallest eigenvalue above SPD_RTOL times the largest, or 1).
    """
    p = _coerce_params(p)
    covs = chain_covariances(p)
    root = math.sqrt(p.lam)
    factors = []
    for j in range(1, p.k + 1):
        if j == 1:
            M = np.diag([root, 1.0 / root])
        else:
            M = _monge2(covs[j - 1], covs[j])
        try:
            _certify_spd(_eig2(M), f"factor {j}")
        except NotPositiveDefinite as exc:
            # A factor's condition is lam for the first one and up to
            # lam^2 for the others (theta near a quarter turn); far enough
            # out its smallest eigenvalue drops below the SPD certificate.
            raise NumericalFailure(
                f"factor {j} lost SPD certification at lam={p.lam:.6g}; "
                "the chain is too ill-conditioned at this scale"
            ) from exc
        factors.append(M)
    return FactorChain._trusted(factors, p)


def net_rotation(chain: FactorChain) -> float:
    """Net angle of a 2x2 chain, from the product's first row.

    Raises NotARotation if the product is not close to an orthogonal
    matrix with determinant +1.
    """
    if not isinstance(chain, FactorChain):
        chain = FactorChain(factors=list(chain))
    if chain.n != 2:
        raise DimensionMismatch("net rotation is defined for 2x2 chains")
    P = chain.product()
    defect = _frob(P @ P.T - np.eye(2))
    det = float(np.linalg.det(P))
    if defect > ROTATION_GATE or abs(det - 1.0) > ROTATION_GATE:
        raise NotARotation(
            f"chain product is not a rotation (orthogonality defect "
            f"{defect:.3e}, det {det:.6f})"
        )
    phi = math.atan2(P[0, 1], P[0, 0])
    # The range is (-pi, pi]. A half turn whose product lands a rounding
    # error past pi (P[0, 1] a tiny negative) would read as -pi; within
    # 1e-12 rad of the cut both are the same rotation, so report pi.
    return math.pi if phi <= -math.pi + 1e-12 else phi


def _c_terms(lam: float) -> tuple:
    """c = 2/(lam + 1/lam) and 1 - c, the latter without cancellation."""
    r = 1.0 / lam
    s = 1.0 + r * r
    return 2.0 * r / s, (1.0 - r) ** 2 / s


def _max_phi(lam: float, k: int) -> float:
    """Largest net angle of the k-factor chain at lam, reached at
    tan(theta) = 1/sqrt(c)."""
    c, d = _c_terms(lam)
    return (k - 2) * math.atan(d / (2.0 * math.sqrt(c)))


def phi_sweep(lam, k, theta_max, steps) -> SweepTable:
    """Evaluate the net angle on a uniform theta grid from 0 to theta_max.

    The closed form is continuous in theta, so the table is unwrapped by
    construction and starts at phi(0) = 0. A jump above pi/2 between
    adjacent rows means the grid is too coarse to resolve the curve; that
    raises NumericalFailure rather than returning a table that cannot be
    read by interpolation.
    """
    k, lam = _check_scheme(k, lam)
    theta_max = float(theta_max)
    if not math.isfinite(theta_max) or theta_max <= 0.0:
        raise InvalidParams(f"theta_max must be positive, got {theta_max}")
    if not float(steps).is_integer() or steps < 2:
        raise InvalidParams(f"steps must be an integer >= 2, got {steps}")
    steps = int(steps)

    grid = np.linspace(0.0, theta_max, steps)
    c, d = _c_terms(lam)
    s, co = np.sin(grid), np.cos(grid)
    # + 0.0 turns the -0.0 that lam = 1 gives past theta = pi/2 into 0.0.
    phi = (k - 2) * np.arctan2(d * s * co, co * co + c * s * s) + 0.0
    if float(np.max(np.abs(np.diff(phi)))) > math.pi / 2.0:
        raise NumericalFailure(
            "angle changes faster than pi/2 per grid step; the grid cannot "
            "resolve the curve, increase steps"
        )
    return SweepTable(lam=lam, k=k, theta=grid, phi=phi)


def solve_theta(lam, k, psi) -> float:
    """Smallest theta in [0, pi] whose net angle equals psi.

    Inverts the closed form exactly. With alpha = psi/(k-2), t = tan(theta)
    solves c tan(alpha) t^2 - (1-c) t + tan(alpha) = 0, whose smaller root
    is theta = atan(2 tan(alpha) / ((1-c) + sqrt((1-c)^2 - 4 c tan^2(alpha)))).

    Raises TargetUnreachable, with the largest reachable angle
    (k-2) atan((1-c) / (2 sqrt(c))) in ``max_phi``, when psi exceeds it.
    """
    k, lam = _check_scheme(k, lam)
    psi = float(psi)
    if not math.isfinite(psi) or psi < 0.0:
        raise InvalidParams(f"target angle must be >= 0, got {psi}")
    if psi == 0.0:
        return 0.0
    top = _max_phi(lam, k)
    alpha = psi / (k - 2)
    if alpha >= math.pi / 2.0 or psi > top:
        raise TargetUnreachable(
            f"net angle {psi:.6g} is not reachable at lam={lam:.6g}, "
            f"k={k} (max {top:.6g})",
            max_phi=top,
        )
    c, d = _c_terms(lam)
    t = math.tan(alpha)
    # psi <= top makes the discriminant >= 0 up to rounding at the peak.
    disc = max(d * d - 4.0 * c * t * t, 0.0)
    return math.atan(2.0 * t / (d + math.sqrt(disc)))


def plan_scheme(psi, k, lam_budget) -> ChainParams:
    """Cheapest-conditioning scheme reaching net angle psi with k factors.

    The largest reachable angle grows with lam and reaches psi from
    lam_min = exp(acosh(tan^2(pi/4 + alpha/2))), alpha = psi/(k-2), on.
    The plan takes the first value of the grid 1.25^j at or above lam_min
    and the matching theta. Conditioning is the user-facing cost, so the
    grid caps its granularity at 25 percent; finer lam resolution buys
    nothing.

    Raises TargetUnreachable, with the largest angle reachable on the grid
    within the budget in ``max_phi``, when that grid value exceeds
    lam_budget.
    """
    psi = float(psi)
    if not math.isfinite(psi) or not 0.0 <= psi <= math.pi:
        raise InvalidParams(f"target angle must lie in [0, pi], got {psi}")
    k, budget = _check_scheme(k, lam_budget, lam_name="lam budget")
    if psi == 0.0:
        return ChainParams(lam=1.0, theta=0.0, k=k)
    # Grid exponents from rounded logs may sit one step off: j_top is nudged
    # up and then checked, and the search starts one step below
    # ceil(log(lam_min) / log(1.25)) and settles on the same reachability
    # test that solve_theta applies.
    step = math.log(_LAM_STEP)
    j_top = math.floor(math.log(budget) / step + 1e-9)
    if _LAM_STEP**j_top > budget:
        j_top -= 1
    alpha = psi / (k - 2)
    if alpha < math.pi / 2.0:
        log_lam_min = math.acosh(math.tan(math.pi / 4.0 + alpha / 2.0) ** 2)
        for j in range(max(0, math.ceil(log_lam_min / step) - 1), j_top + 1):
            lam = _LAM_STEP**j
            if _max_phi(lam, k) >= psi:
                return ChainParams(lam=lam, theta=solve_theta(lam, k, psi), k=k)
    top = _max_phi(_LAM_STEP**j_top, k)
    raise TargetUnreachable(
        f"net angle {psi:.6g} needs more than lam={budget:.6g} at k={k} "
        f"(largest achievable {top:.6g})",
        max_phi=top,
    )


def gradient_generator(Sigma0, theta, t_fn) -> np.ndarray:
    """Traceless symmetric A with e^{A t_fn} mapping Sigma0 onto its
    rotation by theta.

    A is the scaled log of the Monge map from Sigma0 to
    S1 = U_theta Sigma0 U_theta^T. The map does not change when both
    covariances are divided by sqrt(det Sigma0), which makes them
    unimodular, so it is the closed form build_chain uses. Its flow
    preserves volume, and integrating it for t_fn carries the covariance
    exactly one scheme leg forward.

    Raises InvalidInput if Sigma0 is not symmetric, NotPositiveDefinite if
    it fails the SPD certificate.
    """
    S0 = _as_square(Sigma0, "gradient_generator covariance")
    if S0.shape != (2, 2):
        raise DimensionMismatch("gradient generator is defined for 2x2 input")
    t_fn = float(t_fn)
    if not math.isfinite(t_fn) or t_fn <= 0.0:
        raise InvalidParams(f"t_fn must be positive, got {t_fn}")
    S0 = _require_symmetric(S0, "gradient_generator covariance")
    dmax, dmin = _eig2(S0)
    _certify_spd((dmax, dmin), "gradient_generator covariance")
    U = rotation2(theta)
    S0 = S0 / math.sqrt(dmax * dmin)  # dmax dmin = det S0
    S1 = U @ S0 @ U.T
    M = _monge2(S0, (S1 + S1.T) / 2.0)
    A = spd_log(M) / t_fn
    A = (A + A.T) / 2.0
    # det M = 1, so trace(A) is roundoff; project it out so volume
    # preservation survives division by a tiny t_fn.
    A -= (np.trace(A) / 2.0) * np.eye(2)
    return A

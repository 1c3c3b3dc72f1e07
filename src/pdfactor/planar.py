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
of that formula. The waypoints R(phi) diag(lam, 1/lam) R(phi)^T, phi =
(m-1) theta, are closed forms too, and unimodular, so the Monge map from
A to B is (adj A + B) / sqrt(2 + tr(AB)). Plans and chains of all the
rotation planes of an n x n matrix are elementwise arithmetic on arrays
of angles, with no eigendecomposition. The gradient generator whose
exponential realizes a single leg in time t_fn also lives here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInput,
    InvalidParams,
    DimensionMismatch,
    NotARotation,
    NumericalFailure,
    TargetUnreachable,
)
from .matfun import (
    _as_square,
    _certify_spd,
    _frob,
    _integer,
    _positive,
    _real,
    _require_symmetric,
    _spd_ok,
    spd_log,
)

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

# Every finite value 1.25^j of plan_scheme's lam grid (1.25^3181
# overflows), as Python's float power gives it: plans land on exactly these.
_LAM_GRID = np.array([1.25**j for j in range(3181)])
# Entries (a, b, d) of a symmetric 2x2 [[a, b], [b, d]], as index arrays,
# and those of the identity, shaped (3, 1, 1).
_UPPER = ([0, 0, 1], [0, 1, 1])
_IDENTITY = np.array([1.0, 0.0, 1.0])[:, None, None]


def _check_scheme(k, lam, k_name="k", lam_name="lam") -> tuple:
    """Validate a factor count and a scale: k an integer >= 3, lam >= 1.

    Returns them as (int, float); raises InvalidParams otherwise.
    """
    kf = _integer(k, k_name, 3)
    lamf = _real(lam, lam_name)
    if lamf < 1.0:
        raise InvalidParams(f"{lam_name} must be >= 1, got {lam}")
    return kf, lamf


@dataclass(frozen=True)
class ChainParams:
    """Scheme parameters: scale lam >= 1, step angle theta, factor count k."""

    lam: float
    theta: float
    k: int

    def __post_init__(self):
        k, lam = _check_scheme(self.k, self.lam)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", _real(self.theta, "theta"))


@dataclass
class FactorChain:
    """Ordered SPD factors, applied right to left: product = M_k ... M_1.
    factors is any iterable of equal-sized square matrices, such as a
    (k, n, n) array."""

    factors: list
    params: ChainParams | None = None
    n: int = field(init=False)

    def __post_init__(self):
        try:
            factors = list(self.factors)
        except TypeError as err:
            raise InvalidInput("factors must be an iterable of matrices") from err
        if not factors:
            raise InvalidInput("factor chain is empty")
        mats = [_as_square(M, "chain factor") for M in factors]
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
        P = np.eye(self.n)
        for M in self.factors:
            P = M @ P
        return P


@dataclass
class SweepTable:
    """Angle sweep: phi[i] is the unwrapped net rotation at theta[i]."""

    lam: float
    k: int
    theta: np.ndarray
    phi: np.ndarray


def rotation2(theta) -> np.ndarray:
    """The 2x2 rotation [[cos t, sin t], [-sin t, cos t]]."""
    t = _real(theta, "rotation angle")
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, s], [-s, c]])


def _as_chain(chain) -> FactorChain:
    """chain if it is a FactorChain, else a checked FactorChain of it."""
    return chain if isinstance(chain, FactorChain) else FactorChain(factors=chain)


def chain_product(factors) -> np.ndarray:
    """Multiply factors right to left (factors[0] acts first), checked as
    a FactorChain checks them."""
    return FactorChain(factors=factors).product()


def _coerce_params(p) -> ChainParams:
    if isinstance(p, ChainParams):
        return p
    raise InvalidParams(f"expected ChainParams, got {type(p).__name__}")


def _matrices(E) -> np.ndarray:
    """Symmetric 2x2 matrices [[a, b], [b, d]] from entries (a, b, d) along
    the first axis of E: shape (3, ...) to (..., 2, 2)."""
    return np.moveaxis(E[[0, 1, 1, 2]], 0, -1).reshape(E.shape[1:] + (2, 2))


def _waypoints(lam, theta, k: int) -> np.ndarray:
    """Entries (a, b, d) of the waypoints S_0, ..., S_k of one chain per
    plane, as a (3, k + 1, planes) array, from arrays lam and theta.

    S_0 = S_k = I, and S_m = R(phi) diag(lam, 1/lam) R(phi)^T with
    phi = (m - 1) theta for 0 < m < k. Its entries a = c^2 lam + s^2/lam,
    b = -c s (lam - 1/lam) and d = s^2 lam + c^2/lam are sums of positive
    terms; the form h -+ g cos(2 phi) would lose relative accuracy
    eps lam^2 in the small one. lam = 1 gives exact identities, although
    c^2 + s^2 need not round to 1.
    """
    phi = np.arange(k - 1.0)[:, None] * theta
    cs = np.empty((2,) + phi.shape)
    c, s = np.cos(phi, out=cs[0]), np.sin(phi, out=cs[1])
    squares = cs * cs  # a pairs (c^2, s^2) with (lam, mu), d the other way round
    mu = 1.0 / lam
    W = np.empty((3, k + 1, lam.size))
    W[:, ::k] = _IDENTITY
    W[::2, 1:k] = squares * lam + squares[::-1] * mu
    W[1, 1:k] = -c * s * (lam - mu)
    np.copyto(W[::2, 1:k], 1.0, where=lam == 1.0)
    return W


def chain_covariances(p: ChainParams) -> list:
    """Covariance waypoints I = S_0, S_1, ..., S_k = I of the scheme.

    S_1 = diag(lam, 1/lam) and each interior S_j rotates the previous one
    by theta. With lam = 1 every waypoint is exactly the identity.
    """
    p = _coerce_params(p)
    W = _waypoints(np.array([p.lam]), np.array([p.theta]), p.k)
    return list(_matrices(W)[:, 0])


def _monge2(A, B) -> np.ndarray:
    """SPD solutions M of M A M = B for 2x2 SPD A, B with det A = det B = 1,
    given and returned as entries (a, b, d) along the first axis.

    With A^{-1} = adj A, M = A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}
    is (adj A + B) / sqrt(2 + tr(AB)): the square root of a unimodular SPD
    2x2 matrix X is (X + I) / sqrt(2 + tr X). tr(AB) >= 2, so the root
    has no cancellation. adj A + B is B + A reversed, b1 - b0 in the middle.
    """
    a0, b0, d0 = A
    a1, b1, d1 = B
    root = np.sqrt(2.0 + a0 * a1 + 2.0 * b0 * b1 + d0 * d1)
    M = B + A[::-1]
    M[1] = b1 - b0
    return M / root


def _eig2(E) -> tuple:
    """Eigenvalues (largest, smallest) of symmetric 2x2 matrices with
    entries E = (a, b, d), from trace and determinant; the smaller one as
    det/largest, which avoids the cancellation in half-trace minus radius."""
    a, b, d = E
    half_tr = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), b)
    dmax = half_tr + r
    pos = dmax > 0.0
    return dmax, np.where(pos, (a * d - b * b) / np.where(pos, dmax, 1.0), half_tr - r)


def _chain_factors(lam, theta, k: int) -> np.ndarray:
    """Entries (a, b, d) of the k factors of one chain per plane (see
    build_chain), as a (3, k, planes) array, from arrays lam and theta.
    Raises NumericalFailure for the first plane that fails the SPD
    certificate, naming its first failing factor."""
    W = _waypoints(lam, theta, k)
    F = _monge2(W[:, :-1], W[:, 1:])
    root = np.sqrt(lam)
    F[0, 0], F[1, 0], F[2, 0] = root, 0.0, 1.0 / root
    ok = _spd_ok(*_eig2(F))
    if not ok.all():
        p = int(np.argmin(ok.all(axis=0)))
        # A factor's condition is lam for the first one and up to lam^2
        # for the others (theta near a quarter turn); far enough out its
        # smallest eigenvalue drops below the SPD certificate.
        raise NumericalFailure(
            f"factor {int(np.argmin(ok[:, p])) + 1} lost SPD certification "
            f"at lam={lam[p]:.6g}; the chain is too ill-conditioned at this scale"
        )
    return F


def build_chain(p: ChainParams) -> FactorChain:
    """Construct the k SPD factors whose product is the net rotation.

    Factor j is the Monge map from waypoint j-1 to waypoint j. Every
    waypoint is unimodular, so each map has the closed form
    (adj S_{j-1} + S_j) / sqrt(2 + tr(S_{j-1} S_j)); the first factor is
    exactly diag(sqrt(lam), 1/sqrt(lam)), and lam = 1 gives exact
    identities. This is the one-plane case of the chains factor_orthogonal
    builds for all planes at once.

    Raises NumericalFailure if a factor fails the SPD certificate
    (smallest eigenvalue above SPD_RTOL times the largest).
    """
    p = _coerce_params(p)
    F = _chain_factors(np.array([p.lam]), np.array([p.theta]), p.k)
    return FactorChain._trusted(list(_matrices(F)[:, 0]), p)


def net_rotation(chain: FactorChain) -> float:
    """Net angle of a 2x2 chain, from the product's first row.

    Raises NotARotation if the product is not close to an orthogonal
    matrix with determinant +1.
    """
    chain = _as_chain(chain)
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


def _c_terms(lam) -> tuple:
    """c = 2/(lam + 1/lam) and 1 - c, the latter without cancellation
    (elementwise)."""
    r = 1.0 / lam
    s = 1.0 + r * r
    return 2.0 * r / s, (1.0 - r) ** 2 / s


def _max_phi(lam, k: int):
    """Largest net angle of the k-factor chain at lam, reached at
    tan(theta) = 1/sqrt(c) (elementwise)."""
    c, d = _c_terms(lam)
    return (k - 2) * np.arctan(d / (2.0 * np.sqrt(c)))


# Largest net angle of 3 factors at each grid value or a smaller one. Times
# k - 2 it is the k-factor reach bit for bit: rounding x (k - 2) is monotone.
_REACH3 = np.maximum.accumulate(_max_phi(_LAM_GRID, 3))
_REACH3.setflags(write=False)


def _require_reach(psi, k: int, top, max_phi, at: str, lam) -> None:
    """The reach rule: k factors reach psi > 0 iff alpha = psi/(k-2) < pi/2
    and psi <= top, their largest net angle, which can round up to psi at
    alpha = pi/2. Raises TargetUnreachable with max_phi, naming the lam at
    which they fall short (at, then lam), if they do not."""
    far = psi / (k - 2) >= math.pi / 2.0
    if not far and psi <= top:
        return
    at = "every lam, as angle/(k-2) >= pi/2" if far else f"{at}{lam:.6g}"
    msg = f"net angle {psi:.6g} is out of reach of k={k} factors at {at}"
    raise TargetUnreachable(f"{msg} (max {max_phi:.6g})", max_phi=max_phi)


def _tilt(lam, alpha):
    """Smallest theta with net angle (k-2) alpha > 0 at lam (elementwise):
    t = tan(theta) is the smaller root of c tan(alpha) t^2 - (1-c) t +
    tan(alpha) = 0. A reachable target makes the discriminant >= 0 up to
    rounding at the peak."""
    c, d = _c_terms(lam)
    t = np.tan(alpha)
    disc = np.maximum(d * d - 4.0 * c * t * t, 0.0)
    return np.arctan(2.0 * t / (d + np.sqrt(disc)))


def phi_sweep(lam, k, theta_max, steps) -> SweepTable:
    """Evaluate the net angle on a uniform theta grid from 0 to theta_max.

    The closed form is continuous in theta, so the table is unwrapped by
    construction and starts at phi(0) = 0. A jump above pi/2 between
    adjacent rows means the grid is too coarse to resolve the curve; that
    raises NumericalFailure rather than returning a table that cannot be
    read by interpolation.
    """
    k, lam = _check_scheme(k, lam)
    theta_max = _positive(theta_max, "theta_max")
    steps = _integer(steps, "steps", 2)
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

    Inverts the closed form exactly, with alpha = psi/(k-2) (see _tilt).

    Raises TargetUnreachable, unless psi passes plan_scheme's reach rule,
    with the largest reachable angle (k-2) atan((1-c) / (2 sqrt(c))) in max_phi.
    """
    k, lam = _check_scheme(k, lam)
    psi = _real(psi, "target angle")
    if psi < 0.0:
        raise InvalidParams(f"target angle must be >= 0, got {psi}")
    if psi == 0.0:
        return 0.0
    top = float(_max_phi(lam, k))
    _require_reach(psi, k, top, top, "lam=", lam)
    return float(_tilt(lam, psi / (k - 2)))


@functools.lru_cache(maxsize=16)
def _reach(k: int, budget: float) -> np.ndarray:
    """_REACH3 within budget times k - 2, read-only: k factors' reach."""
    j_top = int(np.searchsorted(_LAM_GRID, budget, side="right")) - 1
    reach = (k - 2) * _REACH3[: j_top + 1]
    reach.setflags(write=False)
    return reach


def _plan(psi, k: int, budget: float) -> tuple:
    """plan_scheme for an array of angles psi in (0, pi], largest first,
    all with k factors and one budget: arrays of lam and theta, or its
    error for the largest angle out of reach."""
    reach = _reach(k, budget)
    # The first grid value whose reach covers psi is the first whose _max_phi
    # does. The largest angle has the largest j: if it is in reach, all are.
    j = np.searchsorted(reach, psi)
    top, max_phi = float(reach[min(int(j[0]), reach.size - 1)]), float(reach[-1])
    _require_reach(float(psi[0]), k, top, max_phi, "every lam up to ", budget)
    lam = _LAM_GRID[j]
    return lam, _tilt(lam, psi / (k - 2))


def plan_scheme(psi, k, lam_budget) -> ChainParams:
    """Cheapest-conditioning scheme reaching net angle psi with k factors.

    For alpha = psi/(k-2) < pi/2 the largest reachable angle grows with lam
    and reaches psi from lam_min = exp(acosh(tan^2(pi/4 + alpha/2))) on. The
    plan takes the first grid value 1.25^j whose largest net angle, as
    evaluated, reaches psi (one lookup in a table of those angles for every
    k), and theta = solve_theta(lam, k, psi), under one reach rule.
    Conditioning is the user-facing cost, so the grid caps its granularity
    at 25 percent; finer lam resolution buys nothing.

    Raises TargetUnreachable, with the largest angle reachable on the grid
    within the budget in ``max_phi``, when that grid value exceeds
    lam_budget, and at every budget when alpha >= pi/2. This is the one-angle
    case of the plans factor_orthogonal makes for all planes at once.
    """
    psi = _real(psi, "target angle")
    if not 0.0 <= psi <= math.pi:
        raise InvalidParams(f"target angle must lie in [0, pi], got {psi}")
    k, budget = _check_scheme(k, lam_budget, lam_name="lam budget")
    if psi == 0.0:
        return ChainParams(lam=1.0, theta=0.0, k=k)
    lam, theta = _plan(np.array([psi]), k, budget)
    return ChainParams(lam=float(lam[0]), theta=float(theta[0]), k=k)


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
    S0 = _require_symmetric(Sigma0, "gradient_generator covariance")
    if S0.shape != (2, 2):
        raise DimensionMismatch("gradient generator is defined for 2x2 input")
    t_fn = _positive(t_fn, "t_fn")
    dmax, dmin = _eig2(S0[_UPPER])
    _certify_spd((dmax, dmin), "gradient_generator covariance")
    U = rotation2(theta)
    S0 = S0 / math.sqrt(dmax * dmin)  # dmax dmin = det S0
    S1 = U @ S0 @ U.T
    M = _matrices(_monge2(S0[_UPPER], ((S1 + S1.T) / 2.0)[_UPPER]))
    A = spd_log(M) / t_fn
    A = (A + A.T) / 2.0
    # det M = 1, so trace(A) is roundoff; project it out so volume
    # preservation survives division by a tiny t_fn.
    A -= (np.trace(A) / 2.0) * np.eye(2)
    return A

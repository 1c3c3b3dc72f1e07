"""Factor any positive-determinant matrix into a short SPD product.

The pipeline is the classical route: polar-split the input as Phi = V S,
block-diagonalize the rotation V, realize every planar block as a chain of
SPD factors, then conjugate the stage-aligned block-diagonal factors back
into the original coordinates. Six factors suffice at the defaults: one
polar stretch plus five rotation stages.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidParams,
    NonPositiveDeterminant,
    NumericalFailure,
)
from .matfun import (
    SPD_RTOL, _as_square, _frob, _polar, _positive, _real, _spd_ok, _sym_spd,
)
from .planar import (
    FactorChain,
    _K_MAX,
    _as_chain,
    _chain_factors,
    _check_scheme,
    _plan,
    _product,
    build_chain,
    plan_scheme,
)
from .spectral import (
    _blocks_in_identity,
    _special_orthogonal,
    _split,
)

__all__ = [
    "FactorOptions",
    "FactorStats",
    "VerificationReport",
    "factor_rotation2",
    "factor_orthogonal",
    "factor_matrix",
    "verify",
]


@dataclass(frozen=True)
class FactorOptions:
    """Knobs for the factorization pipeline, checked when made, then frozen.

    k_rotation is the factor count per rotation stage, 3 to 257 (5 covers
    every angle including half turns; more factors allow smaller lam, and
    257 reach every angle at the grid's least lam, 1.25), lam_budget
    caps the scale lam of every planned scheme, tol_verify is the residual
    gate that ``pdfactor factor`` verifies its chain against, positive like
    verify's tol. lam is the condition number of a plane's first factor
    only: the others reach up to about lam^2, and the polar stretch keeps
    the input's condition. verify reports every factor's condition.
    """

    k_rotation: int = 5
    lam_budget: float = 1000.0
    tol_verify: float = 1e-8

    def __post_init__(self):
        k, lam = _check_scheme(
            self.k_rotation, self.lam_budget, "k_rotation", "lam_budget", _K_MAX
        )
        object.__setattr__(self, "k_rotation", k)
        object.__setattr__(self, "lam_budget", lam)
        object.__setattr__(self, "tol_verify", _positive(self.tol_verify, "tol_verify"))


_DEFAULTS = FactorOptions()  # frozen, so every call without options shares it


def _options(opts) -> FactorOptions:
    """opts, or the defaults when it is None; InvalidParams for anything
    that is not a FactorOptions."""
    if opts is None:
        return _DEFAULTS
    if isinstance(opts, FactorOptions):
        return opts
    raise InvalidParams(f"expected FactorOptions, got {type(opts).__name__}")


@dataclass
class FactorStats:
    symmetry_defect: float
    min_eigenvalue: float
    condition: float


@dataclass
class VerificationReport:
    """Residual and per-factor health of a claimed factorization."""

    residual: float
    factors: list
    factor_count: int
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        """The report as JSON data, each factor as a dict of its stats."""
        d = asdict(self)
        keys = ("residual", "factor_count", "tol", "passed", "factors")
        return {key: d[key] for key in keys}


def factor_rotation2(psi, opts: FactorOptions | None = None) -> FactorChain:
    """SPD chain for a 2x2 rotation by psi in (-pi, pi].

    Negative angles reuse the positive-angle factors in reversed order
    (the transposed product rotates the other way).
    """
    opts = _options(opts)
    psi = _real(psi, "rotation angle")
    if not -math.pi < psi <= math.pi:
        raise InvalidParams(f"rotation angle must lie in (-pi, pi], got {psi}")
    if psi == 0.0:
        return FactorChain._trusted([np.eye(2)])
    params = plan_scheme(abs(psi), opts.k_rotation, opts.lam_budget)
    chain = build_chain(params)
    if psi < 0.0:
        return FactorChain._trusted(chain.factors[::-1], params)
    return chain


def factor_orthogonal(V, opts: FactorOptions | None = None) -> FactorChain:
    """SPD chain for a special orthogonal matrix of any size.

    Each rotation plane gets its own scheme (small angles plan small lam),
    all with k_rotation factors, so stage i is U D_i U^T with D_i holding
    the i-th factor of every plane. All planes are planned and built at
    once, and all stages assembled by one stacked product.

    Raises NotOrthogonal or NegativeDeterminant (as block_diagonalize does)
    for inputs outside SO(n), TargetUnreachable or NumericalFailure (from
    the plans and chains) for the largest angle that fails.
    """
    opts = _options(opts)
    V = _special_orthogonal(V)
    return FactorChain._trusted(_stages(*_split(V), opts) or [np.eye(V.shape[0])])


def _stages(U, theta, opts: FactorOptions) -> list:
    """Rotation stages U D_i U^T of a split U, theta; none without planes."""
    if not theta.size:
        return []
    k = opts.k_rotation
    a, b, d = _chain_factors(*_plan(theta, k, opts.lam_budget), k)
    N = U @ _blocks_in_identity(U.shape[0], a, b, b, d) @ U.T
    return list((N + N.transpose(0, 2, 1)) / 2.0)


def factor_matrix(Phi, opts: FactorOptions | None = None) -> FactorChain:
    """SPD chain for any square matrix with positive determinant.

    Polar-splits Phi = V S and prepends the stretch S (applied first) to
    the chain of rotation stages for V. Pure stretches (V has no rotation
    plane) collapse to the single factor [S]; pure rotations drop the
    near-identity S.
    """
    opts = _options(opts)
    # polar validates Phi and rejects a numerically singular input first;
    # past that gate det V = +-1 carries the sign of det Phi at every scale,
    # and V = U W^T is orthogonal to roundoff, so det V > 0 puts it in SO(n).
    V, S, e, kappa = _polar(Phi)
    if np.linalg.det(V) < 0.0:
        raise NonPositiveDeterminant(
            "determinant not positive; a product of SPD factors "
            "always has positive determinant"
        )
    # The stretch is a factor, so it must pass verify's SPD certificate; its
    # eigenvalues are Phi's singular values, over sigma_n they span [1, kappa].
    if not _spd_ok(kappa, 1.0):
        raise NumericalFailure(
            f"the stretch has condition number {kappa:.3e}, at or past "
            f"the SPD certificate's limit {1.0 / SPD_RTOL:.0e}"
        )
    stages = _stages(*_split(V), opts)
    # S comes in units of 2^e, where its entries are below n; powers of two
    # that could take one past the largest double go to the first stage.
    k = max(0, e + V.shape[0].bit_length() - 1024) if stages else 0
    S = np.ldexp(S, e - k)
    if k:
        stages[0] = np.ldexp(stages[0], k)
    D = S - np.eye(V.shape[0])
    # The norm is only taken once every entry is small, so its squares
    # cannot overflow for a huge stretch.
    if stages and np.abs(D).max() <= 1e-10 and _frob(D) <= 1e-10:
        return FactorChain._trusted(stages)
    return FactorChain._trusted([S] + stages)


def verify(chain, target, tol) -> VerificationReport:
    """Measure how well a chain multiplies out to the target.

    PASS requires relative residual at most tol and every factor to clear
    the SPD certificate. Factors are inspected, not trusted: asymmetric or
    indefinite entries produce a failing report rather than an exception.
    All factors are checked at once, by one stacked ``eigvalsh``, and
    multiplied in powers of two per factor and per column, across the double range.
    """
    chain = _as_chain(chain)
    target = _as_square(target, "verify target")
    tol = _positive(tol, "tol")
    if target.shape[0] != chain.n:
        raise DimensionMismatch(
            f"chain is {chain.n}x{chain.n}, target {target.shape[0]}x"
            f"{target.shape[0]}"
        )
    # Measure in units of an exact power of two near the largest target
    # entry, so the squares inside the norms cannot overflow.
    et = math.frexp(float(np.abs(target).max()))[1]
    T = np.ldexp(target, -et)
    tnorm = _frob(T)
    if tnorm == 0.0:
        raise InvalidInput("verify target is the zero matrix")
    F = np.array(chain.factors)
    defects, symmetric, dmax, dmin, e = _sym_spd(F)
    P, s = _product(F, e)
    with np.errstate(over="ignore"):  # a product past the double range reads inf
        residual = _frob(np.ldexp(P, s - et) - T) / tnorm
    lows = np.ldexp(dmin, np.maximum(0, e)).tolist()
    stats = [
        FactorStats(defect, low, hi / lo if lo > 0.0 else math.inf)
        for defect, low, hi, lo in zip(defects.tolist(), lows, dmax.tolist(), dmin.tolist())
    ]
    spd = symmetric & _spd_ok(dmax, dmin)
    return VerificationReport(
        residual=residual,
        factors=stats,
        factor_count=len(chain.factors),
        tol=tol,
        passed=bool(residual <= tol and spd.all()),
    )

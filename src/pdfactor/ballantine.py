"""Factor any positive-determinant matrix into a short SPD product.

The pipeline is the classical route: polar-split the input as Phi = V S,
block-diagonalize the rotation V, realize every planar block as a chain of
SPD factors, then conjugate the stage-aligned block-diagonal factors back
into the original coordinates. Six factors suffice at the defaults: one
polar stretch plus at most five per rotation stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidParams,
    NonPositiveDeterminant,
    SingularInput,
)
from .matfun import SPD_RTOL, _as_square, _frob, polar
from .planar import FactorChain, _check_scheme, build_chain, plan_scheme
from .spectral import RotationBlock, block_diagonalize

__all__ = [
    "FactorOptions",
    "FactorStats",
    "VerificationReport",
    "factor_rotation2",
    "factor_orthogonal",
    "factor_matrix",
    "verify",
]


@dataclass
class FactorOptions:
    """Knobs for the factorization pipeline.

    k_rotation is the factor count per rotation stage (5 covers every
    angle including half turns; more factors allow smaller lam), lam_budget
    caps the condition number of any planned scheme, tol_verify is the
    residual gate used by the end-to-end entry points.
    """

    k_rotation: int = 5
    lam_budget: float = 1000.0
    tol_verify: float = 1e-8

    def __post_init__(self):
        self.k_rotation, self.lam_budget = _check_scheme(
            self.k_rotation, self.lam_budget, "k_rotation", "lam_budget"
        )
        self.tol_verify = float(self.tol_verify)
        if not self.tol_verify > 0.0:
            raise InvalidParams("tol_verify must be positive")


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
        return {
            "residual": self.residual,
            "factor_count": self.factor_count,
            "tol": self.tol,
            "passed": self.passed,
            "factors": [
                {
                    "symmetry_defect": f.symmetry_defect,
                    "min_eigenvalue": f.min_eigenvalue,
                    "condition": f.condition,
                }
                for f in self.factors
            ],
        }


def factor_rotation2(psi, opts: FactorOptions | None = None) -> FactorChain:
    """SPD chain for a 2x2 rotation by psi in (-pi, pi].

    Negative angles reuse the positive-angle factors in reversed order
    (the transposed product rotates the other way).
    """
    opts = opts or FactorOptions()
    psi = float(psi)
    if not math.isfinite(psi) or not -math.pi < psi <= math.pi:
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

    Each rotation plane gets its own scheme (small angles plan small lam);
    shorter block chains are padded with identity factors at the end so
    stage i can assemble the i-th factor of every block at once.

    Raises NotOrthogonal or NegativeDeterminant (from block_diagonalize)
    for inputs outside SO(n).
    """
    opts = opts or FactorOptions()
    decomp = block_diagonalize(V)
    n = decomp.n
    rotations = [b for b in decomp.blocks if isinstance(b, RotationBlock)]
    per_block = [factor_rotation2(b.theta, opts).factors for b in rotations]
    stages = max((len(f) for f in per_block), default=0)
    if stages == 0:
        return FactorChain._trusted([np.eye(n)])

    factors = []
    for i in range(stages):
        D = np.eye(n)
        for block, fs in zip(rotations, per_block):
            M = fs[i] if i < len(fs) else np.eye(2)
            r0, r1 = block.rows
            D[r0, r0] = M[0, 0]
            D[r0, r1] = M[0, 1]
            D[r1, r0] = M[1, 0]
            D[r1, r1] = M[1, 1]
        N = decomp.U @ D @ decomp.U.T
        factors.append((N + N.T) / 2.0)
    return FactorChain._trusted(factors)


def factor_matrix(Phi, opts: FactorOptions | None = None) -> FactorChain:
    """SPD chain for any square matrix with positive determinant.

    Polar-splits Phi = V S and prepends the stretch S (applied first) to
    the chain of rotation stages for V. Pure stretches collapse to the
    single factor [S]; pure rotations drop the near-identity S.
    """
    opts = opts or FactorOptions()
    Phi = _as_square(Phi, "factor_matrix input")
    n = Phi.shape[0]
    # slogdet, unlike det, cannot overflow for large entries.
    sign, logdet = np.linalg.slogdet(Phi)
    if sign == 0.0 or logdet < math.log(1e-300):
        raise SingularInput("input determinant vanishes to working precision")
    if sign < 0.0:
        raise NonPositiveDeterminant(
            "determinant not positive; a product of SPD factors "
            "always has positive determinant"
        )
    V, S = polar(Phi)
    if _frob(V - np.eye(n)) <= 1e-12:
        return FactorChain._trusted([S])
    chain = factor_orthogonal(V, opts)
    D = S - np.eye(n)
    # The norm is only taken once every entry is small, so its squares
    # cannot overflow for a huge stretch.
    if np.max(np.abs(D)) <= 1e-10 and _frob(D) <= 1e-10:
        return chain
    return FactorChain._trusted([S] + chain.factors)


def verify(chain, target, tol) -> VerificationReport:
    """Measure how well a chain multiplies out to the target.

    PASS requires relative residual at most tol and every factor to clear
    the SPD certificate. Factors are inspected, not trusted: asymmetric or
    indefinite entries produce a failing report rather than an exception.
    All factors are checked at once, by one stacked ``eigvalsh``.
    """
    if not isinstance(chain, FactorChain):
        chain = FactorChain(factors=list(chain))
    target = _as_square(target, "verify target")
    if target.shape[0] != chain.n:
        raise DimensionMismatch(
            f"chain is {chain.n}x{chain.n}, target {target.shape[0]}x"
            f"{target.shape[0]}"
        )
    # Measure in units of an exact power of two near the largest target
    # entry, so the squares inside the norms cannot overflow.
    e = math.frexp(float(np.max(np.abs(target))))[1]
    tnorm = _frob(np.ldexp(target, -e))
    if tnorm == 0.0:
        raise InvalidInput("verify target is the zero matrix")
    residual = _frob(np.ldexp(chain.product() - target, -e)) / tnorm

    # Every factor is inspected in units of a power of two near its largest
    # entry when that is 1 or more, for the same reason; below 1 it is not
    # scaled, so the "1 +" of the symmetry gate keeps its meaning.
    # Eigenvalues scale exactly with the factor.
    F = np.stack(chain.factors)
    ex = np.maximum(0, np.frexp(np.max(np.abs(F), axis=(1, 2)))[1])
    Fs = np.ldexp(F, -ex[:, None, None])
    FsT = Fs.transpose(0, 2, 1)
    scaled_defect = np.linalg.norm(Fs - FsT, axis=(1, 2))
    d = np.linalg.eigvalsh((Fs + FsT) / 2.0)
    dmax, dmin = np.ldexp(d[:, -1], ex), np.ldexp(d[:, 0], ex)
    spd = (
        scaled_defect <= 1e-12 * (np.ldexp(1.0, -ex) + np.linalg.norm(Fs, axis=(1, 2)))
    ) & (dmin > SPD_RTOL * np.maximum(1.0, dmax))
    stats = [
        FactorStats(
            symmetry_defect=defect,
            min_eigenvalue=lo,
            condition=hi / lo if lo > 0.0 else math.inf,
        )
        for defect, hi, lo in zip(
            np.ldexp(scaled_defect, ex).tolist(), dmax.tolist(), dmin.tolist()
        )
    ]
    return VerificationReport(
        residual=residual,
        factors=stats,
        factor_count=len(chain.factors),
        tol=float(tol),
        passed=bool(residual <= float(tol) and spd.all()),
    )

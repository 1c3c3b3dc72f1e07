"""Shared randomness and independent oracles for the test suite.

Oracles here deliberately avoid the package's own code paths: the Taylor
exponential is a plain scaled series, the closed-form chain angle comes from
the polar factor of a 2x2 product worked out by hand, and eigenvalue checks
go through numpy.linalg.
"""

import math
import os

import numpy as np

SEED = int(os.environ.get("PDFACTOR_SEED", "20260822"))


def rng(offset=0):
    return np.random.default_rng(SEED + offset)


def hilbert(n):
    """The n x n Hilbert matrix 1 / (i + j + 1): SPD, with condition number
    1.5e7 at n = 6 and about 2e22 at n = 16."""
    i = np.arange(n)
    return 1.0 / (i[:, None] + i + 1.0)


def random_symmetric(r, n, scale=1.0):
    A = r.standard_normal((n, n)) * scale
    return (A + A.T) / 2.0


def random_orthogonal(r, n):
    A = r.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def random_rotation(r, n):
    Q = random_orthogonal(r, n)
    if np.linalg.det(Q) < 0.0:
        Q = Q.copy()
        Q[:, 0] = -Q[:, 0]
    return Q


def random_spd(r, n, cond_max=100.0):
    """SPD matrix with eigenvalues log-uniform across at most cond_max."""
    Q = random_orthogonal(r, n)
    half = 0.5 * math.log(cond_max)
    d = np.exp(r.uniform(-half, half, size=n))
    S = (Q * d) @ Q.T
    return (S + S.T) / 2.0


# Angle families whose rotation planes are delicate to split: rates
# sin(theta) far below the rounding of their squares, half turns within
# rounding of pi, cosine gaps just above the rounding of the symmetric part's
# eigenvectors, and equal rates at distinct cosines.
HARD_FAMILIES = ["tiny", "near_half_turn", "nearly_equal", "mixed", "quarter_turn_pairs"]


def hard_family_angles(family, r, planes):
    """planes rotation angles of one of HARD_FAMILIES, drawn from r."""
    if family == "tiny":
        return 10.0 ** r.uniform(-12.0, -4.0, planes)
    if family == "near_half_turn":
        return math.pi - 10.0 ** r.uniform(-12.0, -4.0, planes)
    if family == "nearly_equal":
        base = r.uniform(0.1, math.pi - 0.1)
        return base + 10.0 ** r.uniform(-12.0, -6.0) * np.arange(planes)
    if family == "quarter_turn_pairs":
        # pi/2 -+ t have equal rates sin(theta) but cosines 2 sin(t) apart
        t = 10.0 ** r.uniform(-12.0, -4.0)
        return math.pi / 2.0 + t * np.resize([-1.0, 1.0], planes)
    return r.choice([1e-10, 1e-6, 0.5, math.pi - 1e-9, math.pi, 2.0], planes)


def taylor_expm(A, terms=200):
    """Matrix exponential by scaled Taylor series, squared back up."""
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, 1)
    s = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    B = A / (2.0**s)
    X = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ B / k
        X = X + term
    for _ in range(s):
        X = X @ X
    return X


def product_right_to_left(mats):
    """Apply mats[0] first: returns mats[-1] @ ... @ mats[0]."""
    P = np.eye(mats[0].shape[0])
    for M in mats:
        P = M @ P
    return P


def chain_angle_oracle(theta, lam, k):
    """Net rotation angle of the k-factor scheme at (theta, lam), in radians.

    Derivation sketch: the middle transport maps are all rotations of the
    first one, and the product telescopes so that the net rotation is
    (k - 2) times the angle by which the polar factor of
    S^{1/2} U_theta S^{1/2} (with S = diag(lam, 1/lam)) lags theta.
    """
    beta = math.atan2(2.0 * math.sin(theta), (lam + 1.0 / lam) * math.cos(theta))
    return (k - 2) * (theta - beta)


def hard_floats(r):
    """Floats at the edges of '%.17g', both signs, in random order: exact
    ties at the 17th digit (odd c 2^-j whose decimal expansion has 18
    digits) and other odd c 2^-j up to j = 80, the neighbours of 1e-5,
    1e-4, 1, 1e16 and 1e17, decimals just below a decade, zeros,
    subnormals, 2^53 +- 1, infinities and nan."""
    vals = []
    for j in range(1, 81):
        # c 5^j has 18 digits, ending in 5, for c in [lo, hi).
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        for _ in range(4):
            c = int(r.integers(lo, hi)) if lo < hi else int(r.integers(1, 2**53))
            vals.append(math.ldexp(c | 1, -j))
    for edge in (1e-5, 1e-4, 1.0, 1e16, 1e17):
        x = y = edge
        for _ in range(4):
            vals += [x, y]
            x, y = np.nextafter(x, 0.0), np.nextafter(y, np.inf)
    vals += [9.99999999999999999e-5, 9.9999999999999999e-5, 0.99999999999999999,
             9999999999999999.9, 99999999999999999.0]
    vals += [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             float(2**53 - 1), float(2**53), float(2**53 + 1), float(2**53 + 2),
             math.inf, math.nan]
    vals = np.array(vals)
    return r.permutation(np.concatenate([vals, -vals]))

"""The factor path against its earlier version in _factor_reference.

The trimmed code makes fewer numpy calls for the same work, so on every
input it must give the same factor bytes, the same verify report and the
same error type and message as the earlier one, and the rotation split the
same basis and angles.
"""

import math

import numpy as np
import pytest

import _factor_reference as ref
from pdfactor.ballantine import FactorOptions, factor_matrix, factor_orthogonal, verify
from pdfactor.errors import PdfactorError
from pdfactor.planar import FactorChain, rotation2
from pdfactor.spectral import _split, assemble, block_diagonalize

from _helpers import HARD_FAMILIES, hard_family_angles, hilbert, random_rotation, rng


def outcome(run, *args):
    """run(*args), or the type and message of the error it raised."""
    try:
        return run(*args)
    except PdfactorError as exc:
        return type(exc), str(exc)


def factorization(factor, check, A, opts=None):
    """Factor shapes and bytes and the verify report of A."""
    chain = factor(A, opts)
    return [(M.shape, M.tobytes()) for M in chain.factors], report(check, chain, A)


def report(check, chain, target):
    return repr(check(chain, target, 1e-8).as_dict())


def assert_same_factorization(A, opts=None):
    got = outcome(factorization, factor_matrix, verify, A, opts)
    assert got == outcome(factorization, ref.factor_matrix, ref.verify, A, opts)


def split_bytes(split, V):
    U, theta = split(V)
    return U.flags.c_contiguous, U.tobytes(), theta.tobytes()


def family_rotation(family, r):
    """A rotation Q D Q^T with planes from one of the hard families."""
    n = int(r.integers(2, 17))
    planes = int(r.integers(1, n // 2 + 1))
    D = np.eye(n)
    for p, t in enumerate(hard_family_angles(family, r, planes)):
        D[2 * p : 2 * p + 2, 2 * p : 2 * p + 2] = rotation2(t)
    Q = random_rotation(r, n)
    return Q @ D @ Q.T


@pytest.mark.parametrize("sizes, draws", [((2, 9), 300), ((16, 25), 40)])
def test_random_streams(sizes, draws):
    # General matrices of either sign of determinant: factors and reports,
    # or NonPositiveDeterminant, as before.
    r = rng(120 + sizes[0])
    for _ in range(draws):
        n = int(r.integers(*sizes))
        assert_same_factorization(r.standard_normal((n, n)))


@pytest.mark.parametrize("family", HARD_FAMILIES)
def test_hard_angle_families(family):
    # These reach clusters of three or more cosines, whose rotated columns
    # are written over Q's before the one gather.
    r = rng(49)
    for _ in range(150):
        V = family_rotation(family, r)
        assert_same_factorization(V)
        assert outcome(split_bytes, _split, V) == outcome(split_bytes, ref.split, V)


@pytest.mark.parametrize("n", range(13, 25))
def test_one_half_turn_among_planes(n):
    # One half turn read from two -1 axes, every other direction but one or
    # two +1 axes in a plane: the earlier split's basis came out in Fortran
    # order here (see _factor_reference.split).
    r = rng(125)
    for _ in range(5):
        angles = [math.pi, *r.uniform(0.2, 3.0, (n - 1) // 2 - 1)]
        D = np.eye(n)
        for p, t in enumerate(angles):
            D[2 * p : 2 * p + 2, 2 * p : 2 * p + 2] = rotation2(t)
        Q = random_rotation(r, n)
        assert_same_factorization(Q @ D @ Q.T)


@pytest.mark.parametrize("n", range(1, 13))
def test_minus_identity(n):
    assert_same_factorization(-np.eye(n))


@pytest.mark.parametrize("n", range(2, 12))
def test_hilbert(n):
    assert_same_factorization(hilbert(n))


def test_other_factor_counts_and_budgets():
    # The plans, waypoints and Monge maps at other k and budgets, errors
    # (out of reach, lost certificate) included.
    r = rng(121)
    options = [FactorOptions(k_rotation=k, lam_budget=b)
               for k, b in ((3, 1000.0), (3, 1e300), (4, 50.0), (9, 10.0))]

    def ref_orthogonal(V, opts):
        return FactorChain._trusted(ref.stages(*ref.split(V), opts) or [np.eye(V.shape[0])])

    for _ in range(40):
        V = random_rotation(r, int(r.integers(2, 10)))
        for opts in options:
            got = outcome(factorization, factor_orthogonal, verify, V, opts)
            assert got == outcome(factorization, ref_orthogonal, ref.verify, V, opts)


def test_assemble_matches():
    # assemble writes the planes on their own rows, in any order.
    r = rng(122)
    for family in HARD_FAMILIES:
        for _ in range(20):
            d = block_diagonalize(family_rotation(family, r))
            d.blocks = d.blocks[::-1]
            assert assemble(d).tobytes() == ref.assemble(d).tobytes()


def test_verify_on_foreign_chains():
    # Asymmetric, indefinite and nearly symmetric factors, at scales from
    # 1e-300 to 1e300: the same reports or errors.
    r = rng(123)
    for _ in range(100):
        n = int(r.integers(1, 7))
        scale = 10.0 ** float(r.choice([-300, -150, 0, 150, 300]))
        F = [r.standard_normal((n, n)) for _ in range(int(r.integers(1, 5)))]
        sym = [(M + M.T) / 2.0 * scale for M in F]
        nearly = [M + 1e-13 * scale * r.standard_normal((n, n)) for M in sym]
        target = r.standard_normal((n, n)) * scale
        for chain in (F, sym, nearly):
            with np.errstate(over="ignore", invalid="ignore"):
                got = outcome(report, verify, chain, target)
                assert got == outcome(report, ref.verify, chain, target)


def test_huge_and_tiny_inputs():
    r = rng(124)
    for _ in range(30):
        n = int(r.integers(2, 7))
        A = r.standard_normal((n, n))
        for scale in (1e-200, 1e200, 2.0**-1000):
            assert_same_factorization(A * scale)
    assert_same_factorization(np.diag([1.0, 1.0, 1.0, 1e-15]))
    assert_same_factorization(rotation2(3e-12) @ np.diag([2.0, 0.5]))
    assert_same_factorization(rotation2(math.pi) @ np.diag([3.0, 1.0]))

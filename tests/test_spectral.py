import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdfactor.ballantine import factor_matrix, verify
from pdfactor.errors import (
    InvalidInput,
    NegativeDeterminant,
    NotOrthogonal,
    PdfactorError,
)
from pdfactor.matfun import polar
from pdfactor.planar import rotation2
from pdfactor.spectral import (
    OrthogonalDecomposition,
    RotationBlock,
    UnitBlock,
    assemble,
    block_diagonalize,
)

from _helpers import HARD_FAMILIES, hard_family_angles, random_rotation, rng


def embed(*blocks):
    """Direct sum of 2x2 rotation angles and +/-1 scalars."""
    mats = []
    for b in blocks:
        if isinstance(b, tuple):
            mats.append(rotation2(b[0]))
        else:
            mats.append(np.array([[float(b)]]))
    n = sum(M.shape[0] for M in mats)
    out = np.zeros((n, n))
    i = 0
    for M in mats:
        m = M.shape[0]
        out[i : i + m, i : i + m] = M
        i += m
    return out


def block_angles(decomp):
    out = []
    for b in decomp.blocks:
        if isinstance(b, RotationBlock):
            out.append(b.theta)
    return out


class TestBlockDiagonalize:
    def test_identity(self):
        d = block_diagonalize(np.eye(3))
        assert all(isinstance(b, UnitBlock) for b in d.blocks)
        assert len(d.blocks) == 3
        assert np.array_equal(d.U, np.eye(3))

    def test_one_by_one(self):
        d = block_diagonalize(np.eye(1))
        assert len(d.blocks) == 1 and isinstance(d.blocks[0], UnitBlock)

    def test_minus_identity_2x2(self):
        d = block_diagonalize(-np.eye(2))
        assert len(d.blocks) == 1
        b = d.blocks[0]
        assert isinstance(b, RotationBlock) and b.theta == math.pi

    def test_minus_identity_even_dims(self):
        for n in (2, 4, 6, 8):
            d = block_diagonalize(-np.eye(n))
            assert len(d.blocks) == n // 2
            assert all(b.theta == math.pi for b in d.blocks)
            assert np.linalg.norm(assemble(d) + np.eye(n)) <= 1e-9

    def test_single_plane_angle(self):
        d = block_diagonalize(rotation2(0.7))
        assert len(d.blocks) == 1
        assert abs(d.blocks[0].theta - 0.7) <= 1e-12
        assert d.blocks[0].rows == (0, 1)

    def test_random_so5_reassembly(self):
        V = random_rotation(rng(40), 5)
        d = block_diagonalize(V)
        assert np.linalg.norm(assemble(d) - V) <= 1e-9

    def test_round_trip_n2_to_n12(self):
        r = rng(41)
        for n in range(2, 13):
            V = random_rotation(r, n)
            d = block_diagonalize(V)
            assert np.linalg.norm(assemble(d) - V) <= 1e-9
            assert np.linalg.norm(d.U.T @ d.U - np.eye(n)) <= 1e-10

    def test_angle_multiset_matches_eigenvalues(self):
        r = rng(42)
        for n in (3, 6, 9):
            V = random_rotation(r, n)
            d = block_diagonalize(V)
            angles = []
            for b in d.blocks:
                if isinstance(b, RotationBlock):
                    angles.extend([b.theta, -b.theta])
                else:
                    angles.append(0.0)
            expected = sorted(np.angle(np.linalg.eigvals(V)))
            assert_allclose(sorted(angles), expected, atol=1e-8)

    def test_block_dims_cover_n(self):
        V = random_rotation(rng(43), 7)
        d = block_diagonalize(V)
        assert sum(b.dim for b in d.blocks) == 7

    def test_angles_sorted_descending(self):
        V = random_rotation(rng(44), 10)
        angles = block_angles(block_diagonalize(V))
        assert angles == sorted(angles, reverse=True)

    def test_half_turn_count_matches_minus_ones(self):
        V = embed((math.pi,), (0.4,), 1.0)
        d = block_diagonalize(V)
        half_turns = [b for b in d.blocks if getattr(b, "theta", 0) == math.pi]
        eigs = np.linalg.eigvals(V)
        minus_ones = int(np.sum(np.abs(eigs + 1.0) <= 1e-8))
        assert len(half_turns) == minus_ones // 2 == 1

    def test_tiny_angle_clusters_with_units(self):
        # cos(1e-5) sits within the clustering tolerance of +1, so the
        # plane and the fixed axis land in one eigenvalue cluster and must
        # be separated by the skew part.
        r = rng(45)
        Q = random_rotation(r, 3)
        V = Q @ embed((1e-5,), 1.0) @ Q.T
        d = block_diagonalize(V)
        angles = block_angles(d)
        assert len(angles) == 1
        assert abs(angles[0] - 1e-5) <= 1e-9
        assert sum(isinstance(b, UnitBlock) for b in d.blocks) == 1
        assert np.linalg.norm(assemble(d) - V) <= 1e-9

    def test_near_half_turn_clusters_with_pairs(self):
        r = rng(46)
        Q = random_rotation(r, 4)
        V = Q @ embed((math.pi - 1e-5,), (math.pi,)) @ Q.T
        d = block_diagonalize(V)
        angles = block_angles(d)
        assert len(angles) == 2
        assert abs(angles[0] - math.pi) <= 1e-9
        assert abs(angles[1] - (math.pi - 1e-5)) <= 1e-9
        assert np.linalg.norm(assemble(d) - V) <= 1e-9

    def test_basis_orthogonal_near_half_turns_and_small_angles(self):
        # The partner direction w is (C v - cos(theta) v) / sin(theta), so
        # at sin(theta) near 1e-5 any rounding left along the axes, v or a
        # plane already found is magnified 1e5 times. The basis must still
        # be orthogonal to far better than the 1e-10 the decomposition
        # itself insists on.
        r = rng(48)
        for pair in ((math.pi - 1e-5, math.pi), (1e-5, 2e-5)):
            for n in range(4, 9):
                for _ in range(6):
                    Q = random_rotation(r, n)
                    V = Q @ embed((pair[0],), (pair[1],), *[1.0] * (n - 4)) @ Q.T
                    d = block_diagonalize(V)
                    assert np.linalg.norm(d.U.T @ d.U - np.eye(n)) <= 1e-12
                    assert_allclose(sorted(block_angles(d)), pair, rtol=0, atol=1e-9)
                    assert np.linalg.norm(assemble(d) - V) <= 1e-9

    def test_repeated_angles(self):
        V = embed((0.9,), (0.9,), (0.9,))
        d = block_diagonalize(V)
        assert_allclose(block_angles(d), [0.9, 0.9, 0.9], atol=1e-10)
        assert np.linalg.norm(assemble(d) - V) <= 1e-9

    def test_random_rotations_n2_to_n24(self):
        # Random rotations give clusters of one and two cosines only, which
        # are read without a complex eigh. The angles are the arguments of
        # V's eigenvalues, and a rerun is bit-identical.
        r = rng(50)
        for n in range(2, 25):
            V = random_rotation(r, n)
            d = block_diagonalize(V)
            args = np.angle(np.linalg.eigvals(V))
            assert_allclose(
                sorted(block_angles(d)), np.sort(args[args > 1e-6]), rtol=0, atol=1e-12
            )
            assert np.linalg.norm(d.U.T @ d.U - np.eye(n)) <= 1e-12
            assert np.linalg.norm(assemble(d) - V) <= 1e-9
            again = block_diagonalize(V)
            assert again.U.tobytes() == d.U.tobytes()
            assert block_angles(again) == block_angles(d)

    @pytest.mark.parametrize("blocks, angles, units", [
        (((3e-12,), (2.0,)), [2.0], 2),
        (((math.pi - 3e-12,), (2.0,), 1.0), [math.pi, 2.0], 1),
    ], ids=["two_axes", "half_turn"])
    def test_two_cosine_cluster_below_plane_cut(self, blocks, angles, units):
        # A pair whose rate sin(theta) is under PLANE_CUT reads as two axes:
        # +1 axes near 0, and near pi two -1 axes that merge into a half
        # turn. (The near-0 pair sits in an even n: the +1 axis of an odd n
        # would join its cluster.)
        V0 = embed(*blocks)
        n = V0.shape[0]
        Q = random_rotation(rng(51), n)
        d = block_diagonalize(Q @ V0 @ Q.T)
        assert_allclose(block_angles(d), angles, rtol=0, atol=1e-12)
        assert block_angles(d)[0] == angles[0]
        assert sum(isinstance(b, UnitBlock) for b in d.blocks) == units
        assert np.linalg.norm(assemble(d) - Q @ V0 @ Q.T) <= 1e-9

    def test_deterministic_output(self):
        V = random_rotation(rng(47), 6)
        d1 = block_diagonalize(V)
        d2 = block_diagonalize(V)
        assert d1.U.tobytes() == d2.U.tobytes()
        assert block_angles(d1) == block_angles(d2)

    def test_basis_is_c_ordered_copy(self):
        # The decomposition is the public constructor's: its size read from
        # the basis, which is a C-ordered copy.
        d = block_diagonalize(random_rotation(rng(17), 6))
        assert d.n == 6 and d.U.flags.c_contiguous

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            block_diagonalize(np.diag([2.0, 0.5]))

    def test_rejects_reflection(self):
        with pytest.raises(NegativeDeterminant):
            block_diagonalize(np.diag([1.0, 1.0, -1.0]))


class TestHardAngleFamilies:
    # Rotations Q D Q^T whose planes sit where splitting them is delicate:
    # rates sin(theta) far below the rounding of their squares, half turns
    # within rounding of pi, cosine gaps just above the rounding of the
    # symmetric part's eigenvectors, and equal rates at distinct cosines.
    # Every draw must factor and verify.
    @pytest.mark.parametrize("family", HARD_FAMILIES)
    def test_family_factors_within_tol(self, family):
        r = rng(49)
        worst, failures = 0.0, []
        for draw in range(150):
            n = int(r.integers(2, 17))
            planes = int(r.integers(1, n // 2 + 1))
            angles = hard_family_angles(family, r, planes)
            Q = random_rotation(r, n)
            V = Q @ embed(*[(a,) for a in angles], *[1.0] * (n - 2 * planes)) @ Q.T
            try:
                rep = verify(factor_matrix(V), V, 1e-8)
            except PdfactorError as exc:
                failures.append(f"draw {draw}, n={n}: {exc!r}")
                continue
            worst = max(worst, rep.residual)
            if not rep.passed:
                failures.append(f"draw {draw}, n={n}: residual {rep.residual:.3e}")
        assert not failures, (
            f"{len(failures)} of 150 failed (worst residual of the rest "
            f"{worst:.3e}): {failures[:5]}"
        )


class TestAssemble:
    def test_rejects_non_decomposition(self):
        with pytest.raises(InvalidInput, match="^assemble expects an OrthogonalDecomposition$"):
            assemble(np.eye(2))

    def test_all_units_is_identity(self):
        d = OrthogonalDecomposition(
            U=np.eye(3), blocks=[UnitBlock(row=i) for i in range(3)]
        )
        assert_allclose(assemble(d), np.eye(3), atol=0)

    def test_embedded_rotation(self):
        d = OrthogonalDecomposition(
            U=np.eye(2), blocks=[RotationBlock(theta=0.8, rows=(0, 1))]
        )
        assert_allclose(assemble(d), rotation2(0.8), atol=1e-15)

    def test_uncovered_rows_act_as_identity(self):
        d = OrthogonalDecomposition(
            U=np.eye(3), blocks=[RotationBlock(theta=0.8, rows=(0, 1))]
        )
        expected = embed((0.8,), 1.0)
        assert_allclose(assemble(d), expected, atol=1e-15)

    def test_rejects_overlapping_rows(self):
        with pytest.raises(InvalidInput):
            OrthogonalDecomposition(
                U=np.eye(3),
                blocks=[
                    RotationBlock(theta=0.5, rows=(0, 1)),
                    UnitBlock(row=1),
                ],
            )

    def test_rejects_skewed_basis(self):
        with pytest.raises(NotOrthogonal):
            OrthogonalDecomposition(
                U=np.array([[1.0, 0.1], [0.0, 1.0]]), blocks=[]
            )


class TestPolarNoiseRegression:
    def test_small_angle_plane_from_polar_rotation(self):
        # Seventh matrix of the soundness sample: its polar rotation has a
        # 0.52 degree plane whose partner direction picks up foreign-cluster
        # eigenvector noise amplified by 1/sin(theta). The extraction must
        # still account for exactly one plane there, not two. The generator
        # is pinned to the default base seed (criterion 05 draws rng(84)), so
        # this stays the same 8x8 matrix whatever PDFACTOR_SEED is.
        r = np.random.default_rng(20260822 + 84)
        Phi = None
        for _ in range(7):
            n = int(r.integers(2, 9))
            Phi = r.standard_normal((n, n))
            while np.linalg.det(Phi) <= 0:
                Phi = r.standard_normal((n, n))
        assert Phi.shape == (8, 8)
        V, _ = polar(Phi)
        decomp = block_diagonalize(V)
        assert decomp.U.shape == (8, 8)
        assert sum(b.dim for b in decomp.blocks) == 8
        assert np.linalg.norm(assemble(decomp) - V) <= 1e-9
        angles = sorted(
            b.theta for b in decomp.blocks if isinstance(b, RotationBlock)
        )
        assert len(angles) == 4
        assert angles[0] < 1.0 * math.pi / 180.0

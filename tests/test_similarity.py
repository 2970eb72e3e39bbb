import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import full_cosine, smoothed_noise_images
from patchmask._kernels import COSINE_EPS, cosine_rows, row_norms
from patchmask.errors import ConfigError, DataError
from patchmask.patch_grid import Image, patchify, pixel_normalize
from patchmask.similarity import (
    EMBED_DIM,
    CosineRows,
    blend,
    cosine_matrix,
    sincos_position_encoding,
    toy_patch_embedding,
)


def naive_cosine(vectors):
    """Double-loop oracle for the epsilon-guarded cosine."""
    n = vectors.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            num = float(np.dot(vectors[i], vectors[j]))
            den = float(np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[j])) + COSINE_EPS
            out[i, j] = num / den
    return out


class TestCosineMatrix:
    def test_identical_patches(self):
        sim = full_cosine(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert abs(sim[0, 1] - 1.0) < 1e-6

    def test_orthogonal_patches(self):
        sim = full_cosine(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sim[0, 1] == 0.0

    def test_hand_computed_pairs(self):
        sim = full_cosine(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]))
        assert abs(sim[0, 1]) < 1e-6
        assert abs(sim[0, 2] + 1.0) < 1e-6

    def test_zero_vector_scores_zero_everywhere(self):
        sim = full_cosine(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert sim[0, 0] == 0.0
        assert sim[0, 1] == 0.0
        assert sim[1, 0] == 0.0

    def test_matches_naive_oracle(self, rng):
        for length in range(4, 17):
            vectors = rng.standard_normal((length, 6))
            np.testing.assert_allclose(
                full_cosine(vectors), naive_cosine(vectors), atol=1e-9
            )

    def test_well_formed(self, rng):
        grid = pixel_normalize(patchify(Image(data=rng.random((32, 32, 3))), 8))
        sim = cosine_matrix(grid)
        assert np.abs(sim - sim.T).max() <= 1e-6
        assert sim.min() >= -1.0 - 1e-6 and sim.max() <= 1.0 + 1e-6
        np.testing.assert_allclose(np.diagonal(sim), 1.0, atol=1e-6)
        assert sim.tobytes() == full_cosine(grid.patches).tobytes()

    def test_scale_invariance(self, rng):
        vectors = rng.standard_normal((10, 8))
        base = full_cosine(vectors)
        scaled = full_cosine(vectors * 37.5)
        np.testing.assert_allclose(scaled, base, atol=1e-6)

    def test_requires_normalized_patch_grid(self, rng):
        grid = patchify(Image(data=rng.random((8, 8, 1))), 4)
        with pytest.raises(DataError):
            cosine_matrix(grid)
        with pytest.raises(DataError):  # vectors without their grid
            cosine_matrix(pixel_normalize(grid).patches)


def assert_rows_are_the_matrix(vectors):
    """Every row of the full matrix has the bytes of cosine_rows of that
    row alone, and CosineRows gives the same bytes for any request order."""
    sim = full_cosine(vectors)
    norms = row_norms(vectors)
    for i in range(vectors.shape[0]):
        assert cosine_rows(vectors, norms, [i]).tobytes() == sim[i].tobytes(), i
    order = np.random.default_rng(vectors.shape[0]).permutation(vectors.shape[0])
    source = CosineRows(vectors)
    assert source.rows(order[: len(order) // 2 + 1]).tobytes() == sim[order[: len(order) // 2 + 1]].tobytes()
    assert source.rows(order).tobytes() == sim[order].tobytes()
    assert source.rows(order[::-1]).tobytes() == sim[order[::-1]].tobytes()


class TestCosineRows:
    @given(vectors=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
        elements=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    ))
    @settings(max_examples=150, deadline=None)
    def test_matrix_rows_are_rows_alone(self, vectors):
        assert_rows_are_the_matrix(vectors)

    def test_zero_rows_of_flat_patches(self, rng):
        data = rng.random((32, 32, 3))
        data[:16, :16] = 0.25  # four flat 8x8 patches normalize to zero vectors
        grid = pixel_normalize(patchify(Image(data=data), 8))
        assert (~grid.patches.any(axis=1)).sum() == 4
        assert_rows_are_the_matrix(grid.patches)
        assert not CosineRows(grid.patches).rows([0]).any()

    def test_benchmark_geometry(self):
        # 224x224 at P=16: L=196, d=768, one image with a flat quarter
        images = smoothed_noise_images(2, 224, 224, 3, seed=8)
        images[1].data[:112, :112] = 0.5
        for image in images:
            assert_rows_are_the_matrix(pixel_normalize(patchify(image, 16)).patches)

    def test_rejects_an_empty_grid(self):
        with pytest.raises(DataError):
            CosineRows(np.zeros((0, 4)))


class TestBlend:
    def test_endpoints_exact(self, rng):
        rgb = rng.standard_normal((5, 5))
        emb = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(blend(rgb, emb, 1.0), rgb)
        np.testing.assert_array_equal(blend(rgb, emb, 0.0), emb)

    def test_midpoint_arithmetic(self):
        rgb = np.array([[0.8]])
        emb = np.array([[0.4]])
        assert blend(rgb, emb, 0.5)[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(DataError):
            blend(np.zeros((3, 3)), np.zeros((4, 4)), 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            blend(np.zeros((2, 2)), np.zeros((2, 2)), 1.5)

    @given(
        a1=st.floats(min_value=0.0, max_value=1.0),
        a2=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_alpha(self, a1, a2):
        # moving alpha toward 1 moves each entry linearly toward the rgb value
        rgb = np.array([[0.9, -0.2], [-0.2, 0.9]])
        emb = np.array([[0.1, 0.4], [0.4, 0.1]])
        lo, hi = min(a1, a2), max(a1, a2)
        gap_lo = np.abs(blend(rgb, emb, lo) - rgb)
        gap_hi = np.abs(blend(rgb, emb, hi) - rgb)
        assert (gap_hi <= gap_lo + 1e-12).all()


class TestToyPatchEmbedding:
    def test_deterministic(self, rng):
        grid = patchify(Image(data=rng.random((16, 16, 3))), 8)
        first = toy_patch_embedding(grid, projection_seed=9)
        second = toy_patch_embedding(grid, projection_seed=9)
        assert first.shape == (grid.n_patches, EMBED_DIM)
        np.testing.assert_array_equal(first, second)

    def test_zero_grid_gives_position_codes(self):
        grid = patchify(Image(data=np.zeros((16, 16, 1))), 8)
        embedded = toy_patch_embedding(grid, projection_seed=3)
        np.testing.assert_array_equal(embedded, sincos_position_encoding(2, 2, EMBED_DIM))

    def test_locality_of_single_patch_change(self, rng):
        data = rng.random((16, 16, 3))
        other = data.copy()
        other[8:, 8:] = rng.random((8, 8, 3))  # patch index 3 of a 2x2 grid
        a = toy_patch_embedding(patchify(Image(data=data), 8), 4)
        b = toy_patch_embedding(patchify(Image(data=other), 8), 4)
        diff = np.abs(a - b).sum(axis=1)
        assert diff[3] > 0.0
        np.testing.assert_array_equal(diff[:3], 0.0)

    # the embedding has one width, EMBED_DIM; the position codes check any
    def test_position_dim_must_divide(self):
        for dim in (6, 10):
            with pytest.raises(ConfigError, match="divisible by 4"):
                sincos_position_encoding(2, 2, dim)

    @pytest.mark.parametrize("dim", [0, -4, 4.0])
    def test_position_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ConfigError):
            sincos_position_encoding(2, 2, dim)

    def test_rejects_a_normalized_grid(self, rng):
        # the projection reads raw pixels; a record built from a grid
        # standardized in place must not embed its normalized patches
        grid = patchify(Image(data=rng.random((16, 16, 3))), 8)
        with pytest.raises(DataError, match="normalized"):
            toy_patch_embedding(pixel_normalize(grid, in_place=True), 0)

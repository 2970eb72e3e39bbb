import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmask.errors import DataError
from patchmask.patch_grid import (
    CONSTANT_PATCH_STD,
    Image,
    PatchGrid,
    patchify,
    pixel_normalize,
    unpatchify,
)


def indexing_oracle(image, patch_size):
    """Per-pixel reconstruction of the documented flattening order:
    row-major within the block, channel varying fastest."""
    h, w, c = image.data.shape
    rows, cols = h // patch_size, w // patch_size
    patches = np.zeros((rows * cols, patch_size * patch_size * c))
    for i in range(rows):
        for j in range(cols):
            flat = []
            for y in range(patch_size):
                for x in range(patch_size):
                    for ch in range(c):
                        flat.append(image.data[i * patch_size + y, j * patch_size + x, ch])
            patches[i * cols + j] = flat
    return patches


class TestPatchify:
    def test_vit_b16_geometry(self, rng):
        image = Image(data=rng.random((224, 224, 3)))
        grid = patchify(image, 16)
        assert (grid.rows, grid.cols) == (14, 14)
        assert grid.n_patches == 196
        assert grid.patch_dim == 768
        assert not grid.normalized

    def test_single_patch_identity(self, rng):
        image = Image(data=rng.random((16, 16, 3)))
        grid = patchify(image, 16)
        assert (grid.rows, grid.cols) == (1, 1)
        np.testing.assert_array_equal(grid.patches[0], image.data.reshape(-1))

    def test_two_block_constant_image(self):
        data = np.empty((32, 16, 1))
        data[:16] = 0.2
        data[16:] = 0.8
        grid = patchify(Image(data=data), 16)
        assert grid.n_patches == 2
        np.testing.assert_array_equal(grid.patches[0], np.full(256, 0.2))
        np.testing.assert_array_equal(grid.patches[1], np.full(256, 0.8))

    def test_matches_indexing_oracle(self, rng):
        image = Image(data=rng.random((12, 8, 3)))
        grid = patchify(image, 4)
        np.testing.assert_array_equal(grid.patches, indexing_oracle(image, 4))

    def test_rejects_non_divisible(self, rng):
        image = Image(data=rng.random((20, 16, 3)))
        with pytest.raises(DataError):
            patchify(image, 16)

    @pytest.mark.parametrize("shape,ps", [((32, 48, 3), 16), ((24, 24, 1), 8), ((8, 8, 3), 2)])
    def test_unpatchify_is_inverse(self, rng, shape, ps):
        image = Image(data=rng.random(shape))
        np.testing.assert_array_equal(unpatchify(patchify(image, ps)).data, image.data)


def normalize_reference(patches):
    """The mean/std/where formula pixel_normalize must equal bit for bit."""
    means = patches.mean(axis=1, keepdims=True)
    stds = patches.std(axis=1, keepdims=True)
    constant = stds < CONSTANT_PATCH_STD
    return np.where(constant, 0.0, (patches - means) / np.where(constant, 1.0, stds))


def _bitwise_cases():
    rng = np.random.default_rng(7)
    noise = rng.random((196, 768))
    flat = rng.random((64, 48))
    flat[::3] = flat[::3, :1]  # every third row constant
    flat[1] = 0.0
    # rows whose population std is a hair above or below the constant cut
    signs = np.where(np.arange(48) % 2, 1.0, -1.0)
    steps = CONSTANT_PATCH_STD * np.array([0.5, 0.999, 1.0, 1.001, 2.0])
    near = 0.3 + steps[:, None] * signs[None, :]
    near = np.vstack([near, np.nextafter(near, 1.0), np.nextafter(near, 0.0)])
    # magnitudes from 1e-12 to 1e2 row by row, half of them offset
    scales = 10.0 ** rng.uniform(-12.0, 2.0, size=(200, 1))
    offsets = rng.uniform(-100.0, 100.0, size=(200, 1))
    offsets[::2] = 0.0
    magnitudes = offsets + scales * rng.standard_normal((200, 27))
    return {"noise": noise, "flat": flat, "near_cut": near, "magnitudes": magnitudes,
            "images": patchify(Image(data=rng.random((64, 96, 3))), 16).patches}


class TestPixelNormalize:
    @pytest.mark.parametrize("name", sorted(_bitwise_cases()))
    def test_bitwise_equal_to_mean_std_where(self, name):
        patches = _bitwise_cases()[name]
        grid = PatchGrid(rows=patches.shape[0], cols=1, patch_size=1, channels=patches.shape[1],
                         patches=patches.copy())
        out = pixel_normalize(grid).patches
        assert out.tobytes() == normalize_reference(patches).tobytes()
        assert np.array_equal(grid.patches, patches)  # the input is left alone

    def test_constant_patch_is_zeroed(self):
        grid = PatchGrid(rows=1, cols=1, patch_size=2, channels=1,
                         patches=np.full((1, 4), 0.5))
        normalized = pixel_normalize(grid)
        np.testing.assert_array_equal(normalized.patches, np.zeros((1, 4)))
        assert normalized.normalized

    def test_hand_computed_three_values(self):
        # mean 2, population std sqrt(8/3): (0,2,4) -> (-1.2247, 0, 1.2247)
        grid = PatchGrid(rows=1, cols=1, patch_size=1, channels=3,
                         patches=np.array([[0.0, 2.0, 4.0]]))
        out = pixel_normalize(grid).patches[0]
        np.testing.assert_allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_normalized_moments(self, rng):
        grid = patchify(Image(data=rng.random((32, 32, 3))), 8)
        normalized = pixel_normalize(grid)
        np.testing.assert_allclose(normalized.patches.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(normalized.patches.std(axis=1), 1.0, atol=1e-6)

    def test_rejects_double_normalization(self, rng):
        grid = pixel_normalize(patchify(Image(data=rng.random((8, 8, 1))), 4))
        with pytest.raises(DataError):
            pixel_normalize(grid)

    def test_idempotent_as_a_map(self, rng):
        once = pixel_normalize(patchify(Image(data=rng.random((16, 16, 3))), 4))
        again = pixel_normalize(
            PatchGrid(rows=once.rows, cols=once.cols, patch_size=once.patch_size,
                      channels=once.channels, patches=once.patches.copy())
        )
        np.testing.assert_allclose(again.patches, once.patches, atol=1e-6)

    @given(
        scale=st.floats(min_value=0.01, max_value=50.0),
        offset=st.floats(min_value=-20.0, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, scale, offset, seed):
        patch = np.random.default_rng(seed).random((1, 12))
        if patch.std() < 1e-6:  # keep clear of the constant-patch rule
            return
        base = PatchGrid(rows=1, cols=1, patch_size=2, channels=3, patches=patch)
        moved = PatchGrid(rows=1, cols=1, patch_size=2, channels=3,
                          patches=scale * patch + offset)
        np.testing.assert_allclose(
            pixel_normalize(moved).patches, pixel_normalize(base).patches, atol=1e-6
        )

    def test_cosine_equals_pearson_after_normalization(self, rng):
        from patchmask.similarity import cosine_matrix

        grid = pixel_normalize(patchify(Image(data=rng.random((16, 16, 3))), 8))
        sim = cosine_matrix(grid)
        for i in range(grid.n_patches):
            for j in range(grid.n_patches):
                pearson = np.corrcoef(grid.patches[i], grid.patches[j])[0, 1]
                assert abs(sim[i, j] - pearson) < 1e-6


class TestImageValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            Image(data=np.full((4, 4, 3), 1.5))

    def test_rejects_non_finite(self):
        data = np.zeros((4, 4, 1))
        data[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            Image(data=data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DataError):
            Image(data=np.zeros((4, 4)))

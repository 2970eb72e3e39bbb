"""The library's contract: every public callable of patchmask returns a
result or raises a PatchmaskError, whatever it is handed.

This is the library's counterpart of test_cli's TestExitCodeContract. For
each callable in patchmask.__all__, CALLS draws its arguments: hand-built
records (grids whose patches do not fit their layout or hold NaN or inf,
masks whose anchors are out of range, repeated or unmasked) and scalars
(NaN, +-inf, 0, negative values and non-integral floats). Records are
built inside the call, so a record's own check counts as the callable's
answer. Exempt are the exception classes; the enums, whose lookup of an
unknown value raises ValueError as any Enum's does (MaskerConfig makes a
strategy's a ConfigError); the records that hold no invariant of their
own (CalibrationReport, ShapedBatch and ToyEncoders are built from
anything and read when used); and load_image and save_image,
whose file bytes TestAnyBytes draws through the CLI, which reports their
OSError as a data error.

PROBES pins each hand-found fault of this kind as a fixed case.
"""

import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patchmask as pm
from patchmask import ConfigError, DataError, PatchmaskError

NAN, INF = float("nan"), float("inf")
REALS = [NAN, INF, -INF, 0.0, -0.5, 0.25, 0.5, 1.0, 1.5, 2.5]
COUNTS = [NAN, INF, -INF, 0, -1, 1, 2, 3, 4, 2.5]
FILLS = ["unit", "unit", "unit", "nan", "inf", "seven"]


def _array(d, shape):
    """An array of shape whose values are in [0, 1], or hold one NaN, one
    inf or a 7.0 among them."""
    values = np.random.default_rng(d.draw(st.integers(0, 3))).random(shape)
    fill = d.draw(st.sampled_from(FILLS))
    if values.size and fill != "unit":
        values.flat[d.draw(st.integers(0, values.size - 1))] = {
            "nan": NAN, "inf": INF, "seven": 7.0}[fill]
    return values


def _grid(d, rows=None, normalized=False):
    """A PatchGrid built by hand: usually of the shape its layout needs,
    sometimes one row short or long, or of sizes that are no sizes."""
    rows = d.draw(st.sampled_from([1, 2, 2, 0, -1, 2.0])) if rows is None else rows
    cols, size, channels = (d.draw(st.sampled_from(v)) for v in ([2, 1], [2, 1], [3, 1]))
    n = max(int(rows * cols) + d.draw(st.sampled_from([0, 0, 0, 1, -1])), 0)
    patches = _array(d, (n, size * size * channels))
    return pm.PatchGrid(rows=rows, cols=cols, patch_size=size, channels=channels,
                        patches=patches, normalized=normalized)


def _mask(d, length=None):
    """A Mask built by hand, of a bool or int array and drawn anchors."""
    length = d.draw(st.integers(0, 4)) if length is None else length
    masked = d.draw(st.lists(st.booleans(), min_size=length, max_size=length))
    if d.draw(st.booleans()):
        masked = [int(m) for m in masked] if d.draw(st.booleans()) else [masked]
    anchors = d.draw(st.lists(st.integers(-1, length), max_size=3))
    return pm.Mask(masked=np.array(masked), anchors=np.array(anchors, dtype=np.int64))


def _count(d):
    return d.draw(st.sampled_from(COUNTS))


def _real(d):
    return d.draw(st.sampled_from(REALS))


def _maxval(d):
    """None, as for a grid of intensities, or a maxval for a grid of samples."""
    return d.draw(st.sampled_from([None, None, 1, 255] + COUNTS))


def _vectors(d):
    shape = d.draw(st.sampled_from([(4, 3), (3, 2), (1, 3), (0, 3), (3, 0), (3,), ()]))
    return _array(d, shape)


def _config(d):
    """A valid MaskerConfig of a drawn strategy, or one with one field
    drawn from the scalars, or its strategy from names and a number."""
    if d.draw(st.booleans()):
        return pm.MaskerConfig(strategy=d.draw(st.sampled_from(list(pm.Strategy))))
    name = d.draw(st.sampled_from([f.name for f in fields(pm.MaskerConfig)]))
    values = ["kmeans", "random", "bogus", 1.5] if name == "strategy" else COUNTS + REALS
    value = d.draw(st.sampled_from(values))
    return pm.MaskerConfig(**{name: value})


def _masks(d):
    return [_mask(d) for _ in range(d.draw(st.integers(0, 3)))]


def _rng():
    return np.random.default_rng(0)


def _calibrate(d):
    sample = [_vectors(d) for _ in range(d.draw(st.integers(1, 2)))]
    lengths = [len(v) if v.ndim else 0 for v in sample]
    if d.draw(st.booleans()):
        lengths[0] = _count(d)
    return pm.calibrate_threshold(iter(sample), _real(d), _real(d), _real(d), _count(d),
                                  rng=_rng(), lengths=lengths)


def _train_kwargs(d, names):
    name = d.draw(st.sampled_from(names))
    return {name: _count(d) if name in ("epochs", "steps_per_epoch", "embed_dim") else _real(d)}


def _train_loop(d):
    rows = d.draw(st.sampled_from([1, 2]))
    grids = [_grid(d, rows) for _ in range(d.draw(st.integers(0, 3)))]
    bags = _array(d, d.draw(st.sampled_from([(len(grids), 2), (len(grids),), (1, 2)])))
    kwargs = _train_kwargs(d, ["epochs", "steps_per_epoch", "learning_rate", "temperature",
                               "alpha_exponent", "embed_dim"])
    return pm.train_loop(grids, bags, _config(d), **{"epochs": 2, **kwargs})


def _train_step(d):
    grids = [_grid(d, 2) for _ in range(d.draw(st.integers(1, 3)))]
    prepared = [pm.PreparedImage(grid, 0) for grid in grids]
    grid = grids[0]
    dim, vocab = d.draw(st.sampled_from([2, 3])), d.draw(st.sampled_from([2, 3]))
    width = d.draw(st.sampled_from([grid.patch_dim, grid.patch_dim + 1]))
    encoders = pm.ToyEncoders(w_image=_array(d, (dim, width)),
                              w_text=_array(d, (d.draw(st.sampled_from([dim, 4])), vocab)))
    bags = _array(d, (d.draw(st.sampled_from([len(prepared), 2])), vocab))
    return pm.train_step(encoders, prepared, bags, _config(d), step=_count(d), alpha=_real(d),
                         learning_rate=_real(d), temperature=_real(d))


CALLS = {
    "Image": lambda d: pm.Image(_array(d, d.draw(st.sampled_from([(2, 2, 3), (2, 2), (0, 2, 1)])))),
    "Mask": _mask,
    "MaskerConfig": _config,
    "PatchGrid": _grid,
    "PreparedImage": lambda d: pm.PreparedImage(
        _grid(d) if d.draw(st.booleans()) else _array(d, (4, 12)), _count(d), _maxval(d)),
    "alpha_schedule": lambda d: pm.alpha_schedule(_count(d), _count(d), _real(d)),
    "blend": lambda d: pm.blend(_vectors(d), _vectors(d), _real(d)),
    "calibrate_threshold": _calibrate,
    "cluster_mask_from_anchors": lambda d: pm.cluster_mask_from_anchors(
        _vectors(d), d.draw(st.lists(st.integers(-2, 4), max_size=4)), _real(d)),
    "cosine_matrix": lambda d: pm.cosine_matrix(_grid(d, normalized=d.draw(st.booleans()))),
    "info_nce": lambda d: pm.info_nce(_vectors(d)),
    "kmeans_cluster": lambda d: pm.kmeans_cluster(_vectors(d), _count(d), _count(d), _rng()),
    "kmeans_mask": lambda d: pm.kmeans_mask(_vectors(d), _count(d), _count(d), _real(d), _rng()),
    "mask_image": lambda d: pm.mask_image(pm.PreparedImage(_grid(d), _count(d), _maxval(d)),
                                          _config(d), _rng(), _real(d)),
    "mask_ratio": lambda d: pm.mask_ratio(_mask(d)),
    "mean_mask_ratio": lambda d: pm.mean_mask_ratio(
        [_vectors(d) for _ in range(d.draw(st.integers(0, 2)))], _real(d)),
    "patchify": lambda d: pm.patchify(pm.Image(_array(d, (4, 4, 3))), _count(d)),
    "pixel_normalize": lambda d: pm.pixel_normalize(_grid(d), in_place=d.draw(st.booleans())),
    "random_mask": lambda d: pm.random_mask(_count(d), _real(d), _rng()),
    "render_mask": lambda d: pm.render_mask(_grid(d, normalized=d.draw(st.booleans())),
                                            _mask(d)),
    "shape_batch": lambda d: pm.shape_batch(_masks(d), _real(d), _rng()),
    "stats_report": lambda d: pm.stats_report(_masks(d)),
    "stream": lambda d: pm.stream(_count(d), _count(d), *[_count(d) for _ in range(
        d.draw(st.integers(0, 2)))]),
    "toy_patch_embedding": lambda d: pm.toy_patch_embedding(_grid(d), _count(d)),
    "train_loop": _train_loop,
    "train_step": _train_step,
    "unpatchify": lambda d: pm.unpatchify(_grid(d, normalized=d.draw(st.booleans()))),
    "visible_slots": lambda d: pm.visible_slots(_count(d), _real(d)),
}
EXEMPT = {"ConfigError", "ConvergenceError", "DataError", "PatchmaskError", "Strategy", "Stream",
          "CalibrationReport", "ShapedBatch", "ToyEncoders", "load_image", "save_image"}


def test_every_public_callable_is_drawn_or_exempt():
    assert set(CALLS) | EXEMPT == set(pm.__all__) and not set(CALLS) & EXEMPT


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_result_or_a_patchmask_error(name, data):
    # numpy's warnings on non-finite arithmetic are no part of the contract
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            CALLS[name](data)
        except PatchmaskError:
            pass


def _patches(rows, value=0.5):
    """A 2-column grid of 2x2 RGB patches holding rows patches of value."""
    return pm.PatchGrid(rows=2, cols=2, patch_size=2, channels=3,
                        patches=np.full((rows, 12), value))


def _nan_grid():
    grid = _patches(4)
    grid.patches[1, 3] = NAN
    return grid


def _masker(strategy):
    return pm.MaskerConfig(strategy=strategy)


def _bright_dataset():
    grids = [pm.PatchGrid(rows=2, cols=2, patch_size=2, channels=3,
                          patches=np.random.default_rng(i).random((4, 12)) * 7.0)
             for i in range(4)]
    return pm.train_loop(grids, np.eye(4), _masker("random"), epochs=2)


# (id, call, the PatchmaskError it raises or None for a result)
PROBES = [
    # a grid of 3 patches for a 2x2 layout once made cluster-rgb raise a
    # bare IndexError, random return a 4-patch mask and unpatchify raise a
    # bare ValueError
    ("cluster-rgb-on-3-patches-of-2x2", lambda: pm.mask_image(
        pm.PreparedImage(_patches(3), 0), _masker("cluster-rgb"), _rng()), DataError),
    ("random-on-3-patches-of-2x2", lambda: pm.mask_image(
        pm.PreparedImage(_patches(3), 0), _masker("random"), _rng()), DataError),
    ("unpatchify-3-patches-of-2x2", lambda: pm.unpatchify(_patches(3)), DataError),
    # a -2 x -2 layout once matched 4 patches
    ("negative-layout", lambda: pm.PatchGrid(rows=-2, cols=-2, patch_size=2, channels=3,
                                             patches=np.zeros((4, 12))), ConfigError),
    ("non-integral-layout", lambda: pm.PatchGrid(rows=2.0, cols=2, patch_size=2, channels=3,
                                                 patches=np.zeros((4, 12))), ConfigError),
    # NaN patches: cluster-rgb once masked 1 of 4 and K-Means all 4
    ("cluster-rgb-on-nan-patches", lambda: pm.mask_image(
        pm.PreparedImage(_nan_grid(), 0), _masker("cluster-rgb"), _rng()), DataError),
    # the integer screen leaves a non-finite sample to the exact path
    ("cluster-rgb-on-nan-samples", lambda: pm.mask_image(
        pm.PreparedImage(_nan_grid(), 0, 255), _masker("cluster-rgb"), _rng()), DataError),
    ("kmeans-on-nan-patches", lambda: pm.mask_image(
        pm.PreparedImage(_nan_grid(), 0), _masker("kmeans"), _rng()), DataError),
    ("pixel-normalize-inf-patch", lambda: pm.pixel_normalize(_patches(4, INF)), DataError),
    # random reads no pixel, so a NaN grid still gets its mask
    ("random-on-nan-patches", lambda: pm.mask_image(
        pm.PreparedImage(_nan_grid(), 0), _masker("random"), _rng()), None),
    # the [0, 1] range is Image's invariant, not the grid's: the trainer
    # takes any finite patches
    ("train-loop-on-pixel-value-7", _bright_dataset, None),
    ("kmeans-cluster-k-0", lambda: pm.kmeans_cluster(np.eye(3), 0, 5, _rng()), ConfigError),
    ("kmeans-mask-k-0", lambda: pm.kmeans_mask(np.eye(3), 0, 5, 0.5, _rng()), ConfigError),
    ("kmeans-cluster-k-1", lambda: pm.kmeans_cluster(np.eye(3), 1, 5, _rng()), None),
    ("kmeans-cluster-max-iters-0", lambda: pm.kmeans_cluster(np.eye(3), 2, 0, _rng()), None),
    ("masker-config-kmeans-k-2.5", lambda: pm.MaskerConfig(kmeans_k=2.5), ConfigError),
    ("masker-config-kmeans-max-iters-2.5", lambda: pm.MaskerConfig(kmeans_max_iters=2.5),
     ConfigError),
    ("masker-config-seed-1.5", lambda: pm.MaskerConfig(seed=1.5), ConfigError),
    ("stream-seed-1.5", lambda: pm.stream(1.5, pm.Stream.MASK, 0), ConfigError),
    ("stream-negative-index", lambda: pm.stream(0, pm.Stream.MASK, -1), ConfigError),
    # SeedSequence splits a word of 2**32 or more: this key once drew the
    # stream of (0, MASK, 0, 1)
    ("stream-index-2-32", lambda: pm.stream(0, pm.Stream.MASK, 2**32), ConfigError),
    ("masker-config-seed-true", lambda: pm.MaskerConfig(seed=True), ConfigError),
    # a record of an array once raised a bare AttributeError when masked
    ("prepared-image-of-an-array", lambda: pm.mask_image(
        pm.PreparedImage(np.zeros((4, 4)), 0), _masker("cluster-rgb"), _rng()), DataError),
    ("prepared-image-seed-1.5", lambda: pm.PreparedImage(_patches(4), 1.5), ConfigError),
    # a 2-D masked once gave mask_ratio 1.0, and ints [0, 2, 1] the line 011
    ("mask-2-d-masked", lambda: pm.Mask(masked=np.ones((2, 2), dtype=bool)), DataError),
    ("mask-int-masked", lambda: pm.Mask(masked=np.array([0, 2, 1])), DataError),
    ("alpha-schedule-epochs-0", lambda: pm.alpha_schedule(1, 0, 1.0), ConfigError),
    # visible_slots(10, 1.5) once returned -5, and NaN and -0.5 gave 10
    ("visible-slots-beta-1.5", lambda: pm.visible_slots(10, 1.5), ConfigError),
    ("visible-slots-beta-nan", lambda: pm.visible_slots(10, NAN), ConfigError),
    ("visible-slots-beta-negative", lambda: pm.visible_slots(10, -0.5), ConfigError),
    # stats_report once counted an anchor outside a 2-patch mask
    ("stats-report-anchor-outside-the-mask", lambda: pm.stats_report(
        [pm.Mask(masked=np.array([True, False]), anchors=np.array([5]))]), DataError),
    ("mean-mask-ratio-of-no-images", lambda: pm.mean_mask_ratio([], 0.5), DataError),
    ("info-nce-of-a-vector", lambda: pm.info_nce(np.zeros(3)), DataError),
    # grids of RGB and gray patches of one layout once broadcast into one
    # pooled row as a bare ValueError
    ("train-step-on-rgb-and-gray-grids", lambda: pm.train_step(
        pm.ToyEncoders(np.ones((2, 12)), np.ones((2, 2))),
        [pm.PreparedImage(_patches(4), 0), pm.PreparedImage(pm.PatchGrid(
            rows=2, cols=2, patch_size=2, channels=1, patches=np.zeros((4, 4))), 0)],
        np.eye(2), _masker("random"), step=0, alpha=0.0, learning_rate=0.1, temperature=0.1),
     DataError),
    # normalized records were once pooled as if they held raw pixels
    ("train-step-on-normalized-grids", lambda: pm.train_step(
        pm.ToyEncoders(np.ones((2, 12)), np.ones((2, 2))),
        [pm.PreparedImage(pm.pixel_normalize(_patches(4, i / 4)), 0) for i in range(2)],
        np.eye(2), _masker("random"), step=0, alpha=0.0, learning_rate=0.1, temperature=0.1),
     DataError),
]


@pytest.mark.parametrize("call, expected", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES])
def test_probe(call, expected):
    if expected is None:
        assert call() is not None
    else:
        with pytest.raises(expected):
            call()


def test_a_nan_grid_under_random_gets_its_random_mask():
    mask = pm.mask_image(pm.PreparedImage(_nan_grid(), 0), _masker("random"), _rng())
    assert mask.length == 4 and mask.masked.sum() == 2


@pytest.mark.parametrize("masked, anchors, message", [
    ([False, False, False, True], [-1], "ascending distinct patches in"),
    ([False, False, False, True], [4], "ascending distinct patches in"),
    ([True, False, False, True], [3, 3], "ascending distinct patches in"),
    ([True, False, False, True], [3, 0], "ascending distinct patches in"),
    ([False, False, False, False], [0], "must be masked patches"),
    ([True, True], [0.0], "1-D int array"),
    ([True, True], [[0]], "1-D int array"),
])
def test_mask_states_its_anchor_invariants(masked, anchors, message):
    with pytest.raises(DataError, match=message):
        pm.Mask(masked=np.array(masked), anchors=np.array(anchors))


def test_a_mask_keeps_its_arrays_and_defaults_to_no_anchors():
    masked = np.array([True, False, True])
    mask = pm.Mask(masked)
    assert mask.masked is masked
    assert mask.anchors.dtype == np.int64 and mask.anchors.size == 0
    assert pm.Mask(masked, anchors=np.array([0, 2])).anchors.tolist() == [0, 2]


def test_a_grid_coerces_its_patches_and_copies_no_float64_array():
    patches = np.zeros((4, 12))
    assert _patches(4).patches.dtype == np.float64
    grid = pm.PatchGrid(rows=2, cols=2, patch_size=2, channels=3, patches=patches)
    assert grid.patches is patches
    ints = pm.PatchGrid(rows=2, cols=2, patch_size=2, channels=3,
                        patches=np.zeros((4, 12), dtype=np.uint8))
    assert ints.patches.dtype == np.float64

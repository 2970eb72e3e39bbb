import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    _NS_IMAGE, PREPARE_CALLS, prepared_counts, rows_by_source, smoothed_noise_images,
)
from patchmask import cli
from patchmask.batch_shaping import mask_batch
from patchmask.calibration import draw_anchor_sets
from patchmask.cli import _CALIBRATE, _DATASET, _MASK, _TRAIN, main
from patchmask.cluster_masker import (
    Mask, MaskerConfig, PreparedImage, Strategy, anchor_count, mask_image, mask_ratio,
)
from patchmask.patch_grid import Image, patchify, pixel_normalize
from patchmask.errors import ConfigError, DataError
from patchmask.pnm import load_image, load_patches, parse_pnm, save_image
from patchmask.render import render_mask
from patchmask.similarity import cosine_matrix
from patchmask.streams import Stream, stream


@pytest.fixture
def image_dir(tmp_path):
    directory = tmp_path / "imgs"
    directory.mkdir()
    for i, image in enumerate(smoothed_noise_images(4, 32, 32, 3, seed=11)):
        save_image(image, directory / f"img_{i:02d}.ppm")
    return directory


GRID_96 = 96 * 96 * 3 * 8  # bytes of one float64 grid of a 96x96 RGB image


@pytest.fixture
def noise_96_dir(tmp_path):
    """64 images of 96x96 noise: one float64 grid is 216 KiB, all 64 are 13.5 MiB."""
    directory = tmp_path / "imgs96"
    directory.mkdir()
    rng = np.random.default_rng(13)
    for i in range(64):
        save_image(Image(data=rng.random((96, 96, 3))), directory / f"img_{i:02d}.ppm")
    return directory


def run_cli(args):
    return main([str(a) for a in args])


class TestMaskCommand:
    def test_writes_masks_and_batch(self, image_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            ["mask", "--in", image_dir, "--out", out, "--strategy", "cluster-rgb",
             "--anchor-ratio", "0.1", "--threshold", "0.3", "--beta", "0.5",
             "--seed", "3", "--patch-size", "8", "--render"]
        )
        assert code == 0
        lines = (out / "masks.txt").read_text().splitlines()
        assert len(lines) == 4 and all(len(line) == 16 for line in lines)
        assert set("".join(lines)) <= {"0", "1"}
        assert (out / "batch.txt").exists()
        renders = sorted(p.name for p in out.glob("*_masked.ppm"))
        assert len(renders) == 4
        assert "mask ratio" in capsys.readouterr().out

    def test_kmeans_and_random_strategies(self, image_dir, tmp_path):
        for strategy in ("kmeans", "random", "cluster-embedding"):
            out = tmp_path / strategy
            code = run_cli(
                ["mask", "--in", image_dir, "--out", out, "--strategy", strategy,
                 "--kmeans-k", "4", "--patch-size", "8", "--seed", "1"]
            )
            assert code == 0
            assert (out / "masks.txt").exists()

    def test_tiny_fraction_and_beta_still_mask(self, image_dir, tmp_path):
        # a positive fraction masks at least one cluster, a positive beta
        # at least one slot
        out = tmp_path / "out"
        code = run_cli(
            ["mask", "--in", image_dir, "--out", out, "--strategy", "kmeans",
             "--kmeans-fraction", "1e-12", "--beta", "1e-12", "--patch-size", "8"]
        )
        assert code == 0
        lines = (out / "masks.txt").read_text().splitlines()
        assert len(lines) == 4 and all("1" in line for line in lines)
        attention = [line for line in (out / "batch.txt").read_text().splitlines()
                     if line.startswith("attn: ")]
        assert [len(line) for line in attention] == [len("attn: ") + 15] * 4

    def test_kmeans_on_a_flat_image_writes_nothing_to_stderr(self, tmp_path):
        # one distinct patch reduces k to 1 without a warning line
        images = tmp_path / "flat"
        images.mkdir()
        save_image(Image(data=np.full((32, 32, 3), 0.5)), images / "a.ppm")
        args = ["mask", "--in", str(images), "--strategy", "kmeans", "--patch-size", "8"]
        proc = subprocess.run(
            [sys.executable, "-m", "patchmask", *args, "--out", str(tmp_path / "sub")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert run_cli([*args, "--out", tmp_path / "in"]) == 0
        masks = (tmp_path / "sub" / "masks.txt").read_text()
        assert masks == (tmp_path / "in" / "masks.txt").read_text()

    def test_kmeans_with_fewer_patches_than_k(self, tmp_path):
        # one 32x32 image at the default P=16 has 4 patches, fewer than the
        # default k=12: k shrinks to 4 and ceil(0.5 * 4) = 2 clusters are masked
        images = tmp_path / "imgs"
        images.mkdir()
        save_image(smoothed_noise_images(1, 32, 32, 3, seed=2)[0], images / "a.ppm")
        out = tmp_path / "out"
        assert run_cli(["mask", "--in", images, "--out", out, "--strategy", "kmeans"]) == 0
        assert (out / "masks.txt").read_text().count("1") == 2

    def test_dump_sim_writes_tsv(self, image_dir, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            ["mask", "--in", image_dir, "--out", out, "--patch-size", "8",
             "--threshold", "0.4", "--dump-sim"]
        )
        assert code == 0
        tsv = sorted(out.glob("*_sim.tsv"))
        assert len(tsv) == 4
        first_row = tsv[0].read_text().splitlines()[0].split("\t")
        assert len(first_row) == 16

    def test_missing_input_dir_is_data_error(self, tmp_path):
        assert run_cli(["mask", "--in", tmp_path / "nope", "--out", tmp_path / "o"]) == 3

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mask", "--in", "x", "--out", "y", "--strategy", "bogus"])
        assert exc.value.code == 2

    def test_config_file_with_flag_override(self, image_dir, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"strategy": "random", "random_mask_ratio": 0.25,
                                      "patch_size": 8, "seed": 9}))
        out = tmp_path / "out"
        code = run_cli(["mask", "--in", image_dir, "--out", out, "--config", config,
                        "--random-ratio", "0.75"])
        assert code == 0
        line = (out / "masks.txt").read_text().splitlines()[0]
        assert line.count("1") == 12  # flag overrode the config's 0.25

    def test_unknown_config_key_is_config_error(self, image_dir, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"stratgy": "random"}))
        assert run_cli(["mask", "--in", image_dir, "--out", tmp_path / "o",
                        "--config", config]) == 2

    def test_invalid_strategy_in_config_is_config_error(self, image_dir, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"strategy": "bogus"}))
        assert run_cli(["mask", "--in", image_dir, "--out", tmp_path / "o",
                        "--config", config]) == 2

    @pytest.mark.parametrize("strategy", ["cluster-rgb", "cluster-embedding", "kmeans", "random"])
    def test_render_and_dump_sim_are_deterministic(self, image_dir, tmp_path, capsys, strategy):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli(["mask", "--in", image_dir, "--out", out, "--strategy", strategy,
                            "--kmeans-k", "4", "--threshold", "0.4", "--alpha", "0.5",
                            "--patch-size", "8", "--seed", "6", "--render", "--dump-sim"])
            assert code == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((files, capsys.readouterr()))
        assert len(runs[0][0]) == 2 + 2 * 4  # masks, batch, a render and a TSV per image
        assert runs[0] == runs[1]

    def test_render_overlays_the_input_image(self, image_dir, tmp_path):
        # random masks have no anchors, so masks.txt holds all a render needs
        out = tmp_path / "out"
        assert run_cli(["mask", "--in", image_dir, "--out", out, "--strategy", "random",
                        "--patch-size", "8", "--render"]) == 0
        lines = (out / "masks.txt").read_text().splitlines()
        for path, line in zip(sorted(image_dir.iterdir()), lines):
            grid = patchify(load_image(path), 8)
            save_image(render_mask(grid, Mask.from_line(line)), tmp_path / "ref.ppm")
            rendered = (out / f"{path.stem}_masked.ppm").read_bytes()
            assert rendered == (tmp_path / "ref.ppm").read_bytes()

    @pytest.mark.parametrize("strategy", ["cluster-rgb", "cluster-embedding", "kmeans", "random"])
    def test_render_and_dump_sim_match_the_library(self, image_dir, tmp_path, strategy):
        out = tmp_path / "out"
        assert run_cli(["mask", "--in", image_dir, "--out", out, "--strategy", strategy,
                        "--kmeans-k", "4", "--threshold", "0.4", "--alpha", "0.5", "--beta",
                        "0.5", "--patch-size", "8", "--seed", "6", "--render", "--dump-sim"]) == 0
        config = MaskerConfig(strategy=strategy, threshold_r=0.4, kmeans_k=4, seed=6)
        paths = sorted(image_dir.iterdir())
        images = [load_image(path) for path in paths]
        masks, _ = mask_batch([PreparedImage(patchify(image, 8), config.seed) for image in images],
                              config, 0.5, (6, Stream.MASK), (6, Stream.SHAPE))
        assert (out / "masks.txt").read_text() == "".join(m.to_line() + "\n" for m in masks)
        for path, image, mask in zip(paths, images, masks):
            save_image(render_mask(patchify(image, 8), mask), tmp_path / "ref.ppm")
            rendered = (out / f"{path.stem}_masked.ppm").read_bytes()
            assert rendered == (tmp_path / "ref.ppm").read_bytes()
            sim = cosine_matrix(pixel_normalize(patchify(image, 8)))
            rows = "".join("\t".join(f"{v:.10g}" for v in row) + "\n" for row in sim)
            assert (out / f"{path.stem}_sim.tsv").read_text() == rows

    def test_one_grid_alive_at_a_time(self, noise_96_dir, tmp_path):
        tracemalloc.start()
        try:
            assert run_cli(["mask", "--in", noise_96_dir, "--out", tmp_path / "out", "--strategy",
                            "cluster-rgb", "--patch-size", "16"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * GRID_96, peak

    @pytest.mark.parametrize("strategy", ["cluster-rgb", "cluster-embedding", "kmeans", "random"])
    @pytest.mark.parametrize("flag", [None, "--render", "--dump-sim"])
    def test_a_grid_no_one_reads_raw_is_normalized_in_place(
            self, image_dir, tmp_path, monkeypatch, strategy, flag):
        # the masks are those of records of the raw loaded grids; only
        # kmeans, with neither flag, gets the grid normalized, and
        # cluster-rgb's records hold integer samples that the screen
        # decides without normalizing them
        grids = []

        def record(grid, *args):
            grids.append(grid)
            return PreparedImage(grid, *args)

        monkeypatch.setattr(cli, "PreparedImage", record)
        out = tmp_path / "out"
        args = ["mask", "--in", image_dir, "--out", out, "--strategy", strategy, "--kmeans-k", "4",
                "--threshold", "0.4", "--alpha", "0.5", "--patch-size", "8", "--seed", "6"]
        assert run_cli(args + [flag] * (flag is not None)) == 0
        in_place = flag is None and strategy == "kmeans"
        assert [grid.normalized for grid in grids] == [in_place] * 4
        config = MaskerConfig(strategy=strategy, threshold_r=0.4, kmeans_k=4, seed=6)
        lines = [
            mask_image(PreparedImage(load_patches(path, 8), 6), config,
                       np.random.default_rng((6, Stream.MASK, index)), 0.5).to_line() + "\n"
            for index, path in enumerate(sorted(image_dir.iterdir()))
        ]
        assert (out / "masks.txt").read_text() == "".join(lines)

    @pytest.mark.parametrize("strategy", ["cluster-rgb", "cluster-embedding"])
    def test_block_images_are_masked_from_their_integers(self, tmp_path, prepare_calls, strategy):
        # 224px colour blocks with noise at P=16: every mask is decided by
        # the integer screen, so no grid is normalized and no cosine row
        # computed, and the masks are those of the loaded grids' records
        directory = tmp_path / "blocks"
        directory.mkdir()
        rng = np.random.default_rng(21)
        for i in range(4):
            blocks = rng.integers(30, 226, size=(7, 7, 3)).repeat(32, axis=0).repeat(32, axis=1)
            samples = np.clip(blocks + rng.integers(-24, 25, size=(224, 224, 3)), 0, 255)
            save_image(Image(data=samples / 255.0), directory / f"img_{i}.ppm")
        out = tmp_path / "out"
        assert run_cli(["mask", "--in", directory, "--out", out, "--strategy", strategy,
                        "--seed", "2"]) == 0
        assert prepared_counts(prepare_calls) == [0, 0, 0]
        config = MaskerConfig(seed=2)
        lines = [
            mask_image(PreparedImage(load_patches(path, 16), 2), config,
                       np.random.default_rng((2, Stream.MASK, index))).to_line() + "\n"
            for index, path in enumerate(sorted(directory.iterdir()))
        ]
        assert (out / "masks.txt").read_text() == "".join(lines)

    def test_repeated_patches_at_threshold_1_are_masked_from_cosine_rows(
            self, tmp_path, prepare_calls):
        # equal textured patches have a cosine just below 1, which the
        # screen cannot tell from 1: each image is normalized and masked
        # from its anchors' rows, as without the screen
        directory = tmp_path / "tiles"
        directory.mkdir()
        rng = np.random.default_rng(22)
        for i in range(3):
            tile = rng.random((8, 8, 3))
            save_image(Image(data=np.tile(tile, (4, 4, 1))), directory / f"img_{i}.ppm")
        out = tmp_path / "out"
        assert run_cli(["mask", "--in", directory, "--out", out, "--patch-size", "8",
                        "--threshold", "1.0"]) == 0
        assert prepared_counts(prepare_calls) == [3, 3, 0]
        assert (out / "masks.txt").read_text().count("1") == 3  # the anchors alone

    def test_each_image_is_patchified_once(self, image_dir, tmp_path, calls_to):
        # load_patches reads and patchifies a file in one call
        patchify_calls = calls_to("pnm", "load_patches")
        for strategy in ("cluster-embedding", "kmeans"):
            patchify_calls.clear()
            code = run_cli(["mask", "--in", image_dir, "--out", tmp_path / strategy,
                            "--strategy", strategy, "--kmeans-k", "4", "--patch-size", "8",
                            "--render", "--dump-sim"])
            assert code == 0
            assert [args[0] for args in patchify_calls] == [8] * 4

    @pytest.mark.parametrize("strategy", ["cluster-rgb", "cluster-embedding", "kmeans", "random"])
    def test_each_image_is_prepared_once(self, image_dir, tmp_path, prepare_calls, strategy):
        # alpha below 1, so cluster-embedding blends in the embedding rows
        code = run_cli(["mask", "--in", image_dir, "--out", tmp_path / "out", "--strategy",
                        strategy, "--kmeans-k", "4", "--patch-size", "8", "--alpha", "0.5",
                        "--render"])
        assert code == 0
        assert prepared_counts(prepare_calls) == [4 * n for n in PREPARE_CALLS[strategy]]
        # each source computes its anchors' rows alone, each row once
        for rows in rows_by_source(prepare_calls[1]):
            assert sorted(set(rows)) == sorted(rows)
            assert len(rows) == anchor_count(_MASK["anchor_ratio"], 16)

    def test_default_alpha_builds_no_embedding(self, image_dir, tmp_path, prepare_calls):
        # at alpha 1 the embedding rows would be weighted 0, so none are
        # made, and cluster-embedding writes cluster-rgb's masks
        outputs = []
        for strategy in ("cluster-embedding", "cluster-rgb"):
            out = tmp_path / strategy
            assert run_cli(["mask", "--in", image_dir, "--out", out, "--strategy", strategy,
                            "--patch-size", "8", "--render"]) == 0
            outputs.append([(out / name).read_bytes() for name in ("masks.txt", "batch.txt")])
            if strategy == "cluster-embedding":
                assert prepared_counts(prepare_calls) == [4 * n for n in (1, 1, 0)]
        assert outputs[0] == outputs[1]

    def test_alpha_blends_embedding_similarity(self, image_dir, tmp_path):
        # alpha=0 masks from the embedding cosine alone; must differ from
        # the pure-pixel masks at the same seed for at least one image
        outputs = []
        for alpha in ("1.0", "0.0"):
            out = tmp_path / f"a{alpha}"
            code = run_cli(["mask", "--in", image_dir, "--out", out,
                            "--strategy", "cluster-embedding", "--threshold", "0.3",
                            "--patch-size", "8", "--seed", "2", "--alpha", alpha])
            assert code == 0
            outputs.append((out / "masks.txt").read_text())
        assert outputs[0] != outputs[1]


@pytest.mark.parametrize("command, bound", [
    (["mask", "--strategy", "cluster-rgb"], 2.4),
    (["mask", "--strategy", "kmeans"], 2.95),
    (["calibrate"], 2.8),
    (["mask", "--strategy", "random"], 2.0),
    # at the default alpha, cluster-embedding's masks are cluster-rgb's,
    # from the same records
    (["mask", "--strategy", "cluster-embedding"], 2.4),
])
def test_one_float64_buffer_per_image(noise_96_dir, tmp_path, command, bound):
    # each loaded grid is standardized in place, so no second (L, d) array
    # is made per image, and nothing holds the last image while the next
    # file loads. Peaks in grids of cluster-rgb, kmeans and calibrate: 3.13,
    # 3.82 and 4.37 with a normalized copy, 3.13, 3.12 and 4.37 with the
    # centring alone out of place, 2.69, 2.78 and 3.37 in place with the
    # last image held, and 2.13, 2.78 and 2.32 with it dropped (random:
    # 2.69 held, 1.69 dropped). Masked from their integer samples,
    # cluster-rgb peaks at 1.54 and cluster-embedding at alpha 1 at 1.37
    # (3.14 with its raw grid and a normalized copy)
    args = [command[0], "--in", noise_96_dir, "--patch-size", "16", *command[1:]]
    if command[0] == "mask":
        args += ["--out", tmp_path / "out"]
    assert run_cli(args) == 0  # an untraced run first: imports and caches are not counted
    tracemalloc.start()
    try:
        assert run_cli(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * GRID_96, peak / GRID_96


class TestCalibrateCommand:
    def test_writes_report(self, image_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli(
            ["calibrate", "--in", image_dir, "--target", "0.5", "--anchor-ratio", "0.1",
             "--tolerance", "0.1", "--patch-size", "8", "--seed", "0",
             "--calibration-out", report_path]
        )
        assert code == 0
        text = report_path.read_text()
        payload = json.loads(text)
        assert abs(payload["achieved_ratio"] - 0.5) <= 0.1
        assert payload["converged"] is True
        assert list(payload) == ["target_ratio", "found_r", "achieved_ratio", "iterations",
                                 "sample_size", "converged", "trace"]
        assert all(len(pair) == 2 for pair in payload["trace"])
        assert text == json.dumps(payload, indent=2) + "\n"
        assert "calibrated r=" in capsys.readouterr().out

    def test_each_sampled_image_is_patchified_once(self, image_dir, calls_to):
        patchify_calls = calls_to("pnm", "load_patches")
        assert run_cli(["calibrate", "--in", image_dir, "--target", "0.5", "--anchor-ratio",
                        "0.1", "--tolerance", "0.1", "--patch-size", "8"]) == 0
        assert [args[0] for args in patchify_calls] == [8] * 4
        patchify_calls.clear()
        code = run_cli(["calibrate", "--in", image_dir, "--patch-size", "8", "--sample-size", "3"])
        assert code in (0, 4)  # three images may miss the default tolerance
        # images past the sample are not read
        assert [args[0] for args in patchify_calls] == [8] * 3

    def test_unreachable_target_exits_4(self, image_dir, tmp_path):
        code = run_cli(
            ["calibrate", "--in", image_dir, "--target", "0.18", "--anchor-ratio", "0.17",
             "--patch-size", "8"]
        )
        assert code == 4

    def test_search_stops_when_its_bracket_is_exhausted(self, tmp_path, capsys):
        # 8 noise images at P=16 give frozen ratios in steps of 1/128, none
        # within 1e-300 of 0.503: the bisection narrows to adjacent doubles
        # and stops at the first midpoint that is an end of its bracket, an
        # earlier midpoint, which it used to evaluate again up to max_iters
        directory = tmp_path / "imgs"
        directory.mkdir()
        rng = np.random.default_rng(5)
        for i in range(8):
            save_image(Image(data=rng.random((64, 64, 3))), directory / f"img_{i:02d}.ppm")
        report_path = tmp_path / "report.json"
        assert run_cli(["calibrate", "--in", directory, "--target", "0.503", "--tolerance",
                        "1e-300", "--max-iters", "200", "--calibration-out", report_path]) == 4
        report = json.loads(report_path.read_text())
        mids = [mid for mid, _ in report["trace"]]
        assert report["iterations"] == len(mids) < 200
        assert len(set(mids[:-1])) == len(mids) - 1 and mids[-1] in mids[:-1]
        assert report["found_r"] == mids[-1] and not report["converged"]
        # r, ratio and verdict are those of the search run to max_iters
        assert capsys.readouterr().out == (
            "calibrated r=0.004738957015858488 achieved=0.4688 target=0.503 iterations=62 "
            "converged=False\n")

    def test_one_matrix_alive_at_a_time(self, tmp_path, calls_to):
        # 64 images of L=256: one cosine matrix is 512 KiB, all 64 are 32 MiB;
        # the calibration computes only the frozen and fresh anchors' rows
        directory = tmp_path / "imgs"
        directory.mkdir()
        rng = np.random.default_rng(12)
        for i in range(64):
            save_image(Image(data=rng.random((64, 64, 3))), directory / f"img_{i:02d}.ppm")
        row_calls = calls_to("_kernels", "cosine_rows")
        tracemalloc.start()
        try:
            assert run_cli(["calibrate", "--in", directory, "--patch-size", "4", "--target",
                            "0.5", "--tolerance", "0.1"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 256 * 256 * 8, peak
        sources = rows_by_source(row_calls)
        assert len(sources) == 64
        anchors = anchor_count(_CALIBRATE["anchor_ratio"], 256)
        for rows in sources:
            assert sorted(set(rows)) == sorted(rows)
            assert anchors <= len(rows) <= 2 * anchors
        # each source computes exactly its frozen and fresh anchors' rows
        draws = np.random.default_rng((_CALIBRATE["seed"], Stream.CALIBRATE))
        frozen = draw_anchor_sets([256] * 64, _CALIBRATE["anchor_ratio"], draws)
        fresh = draw_anchor_sets([256] * 64, _CALIBRATE["anchor_ratio"], draws)
        assert [sorted(rows) for rows in sources] == [
            sorted(set(a.tolist()) | set(b.tolist())) for a, b in zip(frozen, fresh)]


# up to three files, of which the first bad one in name order must decide
# the exit code and stderr, as when every image loads before any cosine
_RASTER = bytes(range(256)) * 12  # 32x32 P6 pixels
_GOOD = b"P6\n32 32\n255\n" + _RASTER


class TestCalibrateDataErrors:
    @pytest.mark.parametrize(
        "files, flags, expected",
        [
            # a truncated raster behind a good header beats a bad header after it
            ([_GOOD, _GOOD[:-10], b"P6\n32 x\n255\n"], [],
             "data error: truncated pixel data: expected 3072 bytes from byte 13, "
             "file ends at byte 3075\n"),
            # so do intensities above maxval
            ([_GOOD, b"P6\n32 32\n100\n" + bytes([255]) * 3072, b"P3\n32 32\n255\n"], [],
             "data error: image intensities must lie in [0, 1]\n"),
            ([_GOOD, b"P6\n32 -3\n255\n", _GOOD], [],
             "data error: expected integer height at byte 6\n"),
            ([_GOOD, b"P6\n32 32\n70000\n", _GOOD], [],
             "data error: maxval must lie in [1, 65535], got 70000 at byte 14\n"),
            # a comment longer than the first header read
            ([_GOOD, b"P6\n# " + b"c" * 5000 + b"\n32 32\n255", _GOOD], [],
             "data error: expected single whitespace before pixel data at byte 5015\n"),
            ([_GOOD, b"", _GOOD], [],
             "data error: unsupported format b'': only binary P5/P6 are handled\n"),
            ([_GOOD, b"P6\n20 20\n255\n" + bytes(1200), b"P6\n32"], [],
             "data error: patch_size 8 does not divide image dimensions 20x20\n"),
            ([_GOOD, b"P6\n24 32\n255\n" + bytes(2304), _GOOD[:-1]], [],
             "data error: truncated pixel data: expected 3072 bytes from byte 13, "
             "file ends at byte 3084\n"),
            # images load before an unreachable target is found out
            ([_GOOD, _GOOD[:-10], _GOOD], ["--target", "0.18", "--anchor-ratio", "0.17"],
             "data error: truncated pixel data: expected 3072 bytes from byte 13, "
             "file ends at byte 3075\n"),
            ([_GOOD, _GOOD[:-10], b"P6\n32 x\n255\n"],
             ["--target", "0.18", "--anchor-ratio", "0.17"],
             "data error: truncated pixel data: expected 3072 bytes from byte 13, "
             "file ends at byte 3075\n"),
            ([_GOOD, b"P6\n32 -3\n255\n", _GOOD], ["--target", "0.18", "--anchor-ratio", "0.17"],
             "data error: expected integer height at byte 6\n"),
            ([_GOOD, b"P6\n20 20\n255\n" + bytes(1200), b"P6\n32"],
             ["--target", "0.18", "--anchor-ratio", "0.17"],
             "data error: patch_size 8 does not divide image dimensions 20x20\n"),
            # files past the sample are not read
            ([_GOOD, b"P6\n32 -3\n255\n"], ["--sample-size", "1", "--target", "0.18",
                                            "--anchor-ratio", "0.17"],
             "convergence failure: target ratio 0.18 is unreachable: anchors alone mask "
             "0.1875 of the sample\n"),
            # a 16-bit sample above its maxval, alone and in a size patch_size
            # does not divide
            ([_GOOD, b"P5\n32 32\n1000\n" + (1001).to_bytes(2, "big") * 1024, _GOOD], [],
             "data error: image intensities must lie in [0, 1]\n"),
            ([_GOOD, b"P5\n20 20\n1000\n" + (1001).to_bytes(2, "big") * 400, _GOOD], [],
             "data error: image intensities must lie in [0, 1]\n"),
        ],
    )
    def test_first_bad_file_wins(self, tmp_path, capsys, files, flags, expected):
        directory = tmp_path / "imgs"
        directory.mkdir()
        for name, data in zip("abc", files):
            (directory / f"{name}.ppm").write_bytes(data)
        code = run_cli(["calibrate", "--in", directory, "--patch-size", "8", *flags])
        captured = capsys.readouterr()
        assert (code, captured.err, captured.out) == (4 if "convergence" in expected else 3,
                                                      expected, "")

    @pytest.mark.parametrize("side", [1600000, 160000])
    def test_a_short_file_claiming_a_huge_raster_fails_before_any_draw(
            self, tmp_path, capsys, side):
        # the header pass checks each file's length against its header, so
        # no anchor set is drawn for pixels the file does not hold
        directory = tmp_path / "imgs"
        directory.mkdir()
        (directory / "a.ppm").write_bytes(_GOOD)
        header = b"P6\n%d %d\n255\n" % (side, side)
        (directory / "b.ppm").write_bytes(header + bytes(123 - len(header)))
        with pytest.raises(DataError) as loaded:
            load_image(directory / "b.ppm")
        tracemalloc.start()
        try:
            code = run_cli(["calibrate", "--in", directory, "--patch-size", "8"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().err) == (3, f"data error: {loaded.value}\n")
        assert str(loaded.value).startswith("truncated pixel data: ")
        assert peak < 10 * 2**20, peak

    def test_unreadable_file_wins_as_in_load_order(self, tmp_path, capsys):
        directory = tmp_path / "imgs"
        directory.mkdir()
        (directory / "a.ppm").write_bytes(_GOOD)
        (directory / "b.ppm").mkdir()
        (directory / "c.ppm").write_bytes(b"junk")
        assert run_cli(["calibrate", "--in", directory, "--patch-size", "8"]) == 3
        expected = f"data error: [Errno 21] Is a directory: '{directory / 'b.ppm'}'\n"
        assert capsys.readouterr().err == expected


class TestTrainCommand:
    def test_writes_log(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "strategy": "random", "seed": 5, "epochs": 4,
            "dataset": {"n_images": 6, "image_size": 16, "patch_size": 4},
        }))
        out = tmp_path / "log"
        assert run_cli(["train", "--config", config, "--out", out]) == 0
        lines = (out / "train_log.csv").read_text().splitlines()
        assert lines[0] == "step,loss,alpha,mean_mask_ratio"
        assert len(lines) == 5
        step, loss, alpha, ratio = lines[1].split(",")
        assert step == "0" and float(loss) > 0.0 and float(alpha) == 0.0
        assert "trained 4 steps" in capsys.readouterr().out

    def test_epochs_flag_overrides_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "strategy": "random", "epochs": 50,
            "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4},
        }))
        out = tmp_path / "log"
        assert run_cli(["train", "--config", config, "--out", out, "--epochs", "2"]) == 0
        assert len((out / "train_log.csv").read_text().splitlines()) == 3

    def test_overflowing_learning_rate_exits_4(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "learning_rate": 1e308, "epochs": 3,
            "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4},
        }))
        out = tmp_path / "log"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["train", "--config", config, "--out", out]) == 4
        assert [str(w.message) for w in caught] == []
        assert not (out / "train_log.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: loss is nan") and err.count("\n") == 1

    def test_weights_overflowing_on_the_last_step_exit_4(self, tmp_path, capsys):
        # the one step's loss is finite, but the update leaves inf weights
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "learning_rate": 1e308, "epochs": 1,
            "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4},
        }))
        out = tmp_path / "log"
        assert run_cli(["train", "--config", config, "--out", out]) == 4
        assert not (out / "train_log.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "convergence failure: weights are not finite after step 0\n"

    @pytest.mark.parametrize("config", [
        {"embed_dim": 10**20},
        {"embed_dim": 2**62},
        {"dataset": {"image_size": 10**12, "patch_size": 8}},
        {"dataset": {"n_images": 2**40}},
        # each image fits the address space, its L x L cosine rows do not
        {"dataset": {"image_size": 2**16, "patch_size": 1, "n_images": 2}},
    ], ids=["embed-dim-past-intp", "embed-dim-2-62", "image-size-1e12", "n-images-2-40",
            "cosine-rows-2-64"])
    def test_unaddressable_array_is_data_error(self, tmp_path, capsys, config):
        # numpy raises ValueError, not MemoryError, for an array of more bytes
        # than an intp holds; the run is refused before any array is made
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "log"
        assert run_cli(["train", "--config", path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "exceeds the address space" in err
        assert not out.exists()

    def test_kmeans_with_fewer_patches_than_k(self, tmp_path):
        # 32x32 images at P=16 have 4 patches, fewer than the default k=12
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "strategy": "kmeans", "epochs": 2,
            "dataset": {"n_images": 4, "image_size": 32, "patch_size": 16},
        }))
        out = tmp_path / "log"
        assert run_cli(["train", "--config", config, "--out", out]) == 0
        assert len((out / "train_log.csv").read_text().splitlines()) == 3

    def test_two_colors(self, tmp_path):
        # an image draws 2 or 3 colors, no more than the palette's n_colors
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "epochs": 2, "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4,
                                     "n_colors": 2},
        }))
        out = tmp_path / "log"
        assert run_cli(["train", "--config", config, "--out", out]) == 0
        assert len((out / "train_log.csv").read_text().splitlines()) == 3

    def test_out_of_memory_is_data_error(self, tmp_path, capsys):
        # 10**12 x 192 float64 weights (1.5 PB) can be addressed but not
        # allocated, so the allocation fails before anything is allocated
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"embed_dim": 10**12}))
        assert run_cli(["train", "--config", config, "--out", tmp_path / "log"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1


def _typed(table):
    return [(key, type(value), value) for key, value in table.items()]


def test_each_table_keeps_its_keys_defaults_and_order():
    # the tables read most defaults from library signatures, so a default
    # that moves there would change the CLI: these are the CLI's values,
    # whose types also type the flags and whose order is the check order
    dataset = {"n_images": 16, "image_size": 32, "patch_size": 8, "n_colors": 8}
    assert _typed(_MASK) == [
        ("strategy", Strategy, Strategy.CLUSTER_RGB), ("anchor_ratio", float, 0.03),
        ("threshold_r", float, 0.5), ("kmeans_k", int, 12), ("kmeans_max_iters", int, 10),
        ("kmeans_mask_fraction", float, 0.5), ("random_mask_ratio", float, 0.5),
        ("seed", int, 0), ("beta", float, 0.5), ("patch_size", int, 16),
        ("alpha", float, 1.0), ("render", bool, False),
    ]
    assert _typed(_CALIBRATE) == [
        ("anchor_ratio", float, 0.03), ("patch_size", int, 16), ("seed", int, 0),
        ("target", float, 0.5), ("tolerance", float, 0.02), ("max_iters", int, 40),
        ("sample_size", int, 1024),
    ]
    assert _typed(_TRAIN) == _typed(_MASK)[:9] + [
        ("epochs", int, 20), ("steps_per_epoch", int, 1), ("learning_rate", float, 0.5),
        ("temperature", float, 0.07), ("alpha_exponent", float, 1.0), ("embed_dim", int, 16),
        ("dataset", dict, dataset),
    ]
    assert _typed(_DATASET) == [(key, int, value) for key, value in dataset.items()]
    # a setting both commands take is the masker's, declared once in MaskerConfig
    assert _MASK.keys() & _TRAIN.keys() == {field.name for field in fields(MaskerConfig)}


def test_every_stream_key_seeds_its_own_stream(image_dir, tmp_path, monkeypatch):
    # every key that mask, calibrate and train runs must give a state of its
    # own (the rule is in patchmask.streams), and every namespace of the
    # table is drawn from
    keys = set()
    default_rng = np.random.default_rng

    def recording(seed=None):
        keys.add(tuple(np.atleast_1d(seed).tolist()))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "strategy": "cluster-embedding", "epochs": 3, "steps_per_epoch": 2,
        "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4},
    }))
    for seed in (0, 1, 7):
        out = tmp_path / f"seed{seed}"
        assert run_cli(["mask", "--in", image_dir, "--out", out, "--patch-size", "8",
                        "--strategy", "cluster-embedding", "--seed", seed]) == 0
        assert run_cli(["calibrate", "--in", image_dir, "--patch-size", "8",
                        "--seed", seed]) in (0, 4)
        assert run_cli(["train", "--config", config, "--out", out, "--seed", seed]) == 0
    namespaces = {key[1] for key in keys if len(key) > 1}
    assert namespaces == set(Stream)
    assert _NS_IMAGE not in set(Stream)  # the test images' namespace
    states = {tuple(np.random.SeedSequence(key).generate_state(4).tolist()) for key in keys}
    assert len(states) == len(keys)


@pytest.mark.parametrize("seed", [-1, 2**32, 2**64])
def test_stream_rejects_a_seed_outside_one_32_bit_word(seed):
    # SeedSequence splits a larger seed into words: (2**32, 20, 0) would
    # draw (0, 1, 20), train's shape stream for seed 0 at step 20
    with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*32\)"):
        stream(seed, Stream.MASK, 0)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, np.uint32(2**32 - 1)])
def test_stream_takes_every_32_bit_seed(seed):
    expected = np.random.default_rng((int(seed), Stream.MASK, 0)).random()
    assert stream(seed, Stream.MASK, 0).random() == expected


@pytest.mark.parametrize("rest", [(2**32,), (2**64, 0), (Stream.TRAIN_MASK, 0, 2**32 + 5),
                                  (Stream.MASK, -1), (Stream.MASK, 1.5), (Stream.MASK, np.True_)])
def test_stream_rejects_a_word_outside_one_32_bit_word(rest):
    # as for the seed: (0, 20, 2**32) would draw the stream of (0, 20, 0, 1);
    # and a uint32 array of (0, 20, 1.5) would hold (0, 20, 1)
    with pytest.raises(ConfigError, match=r"must hold integers in \[0, 2\*\*32\)"):
        stream(0, *rest)


def test_stream_takes_every_32_bit_word():
    key = (7, Stream.MASK, 2**32 - 1, np.uint32(2**32 - 1))
    expected = np.random.default_rng((7, Stream.MASK, 2**32 - 1, 2**32 - 1)).random()
    assert stream(*key).random() == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(list(Stream)),
                          st.integers(0, 2**32 - 1).map(np.uint32), st.booleans()),
                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_stream_draws_what_numpy_draws_for_the_tuple(words, seed):
    # stream seeds numpy with one uint32 array; the tuple of the same words,
    # each an int, a Stream, a numpy integer or a bool, draws the same
    key = (seed, *words)
    expected = np.random.default_rng(key).integers(2**63, size=3)
    assert stream(*key).integers(2**63, size=3).tolist() == expected.tolist()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_reproduces_the_cli(tmp_path, monkeypatch):
    # the sketch draws the streams patchmask mask draws for a one-image
    # directory, so its mask and batch are the CLI's masks.txt and batch.txt
    sketch = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "imgs").mkdir()
    save_image(smoothed_noise_images(1, 224, 224, 3, seed=4)[0], tmp_path / "imgs" / "photo.ppm")
    assert run_cli(["mask", "--in", tmp_path / "imgs", "--out", tmp_path / "out",
                    "--strategy", "cluster-rgb", "--anchor-ratio", "0.03", "--threshold", "0.55",
                    "--beta", "0.5", "--seed", "0", "--patch-size", "16"]) == 0
    monkeypatch.chdir(tmp_path / "imgs")
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert names["mask"].to_line() + "\n" == (tmp_path / "out" / "masks.txt").read_text()
    assert names["shaped"].to_debug_text() == (tmp_path / "out" / "batch.txt").read_text()
    assert 0.0 < mask_ratio(names["mask"]) < 1.0
    # and its two training epochs are the log of patchmask train for the same config
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"strategy": "cluster-rgb", "anchor_ratio": 0.03,
                                  "threshold_r": 0.55}))
    assert run_cli(["train", "--config", config, "--out", tmp_path / "log", "--epochs", "2",
                    "--seed", "0"]) == 0
    log = (tmp_path / "log" / "train_log.csv").read_text().splitlines()[1:]
    assert [f"{s},{loss!r},{a!r},{r!r}" for s, loss, a, r in names["rows"]] == log
    assert len(log) == 2


class TestConfigErrors:
    @pytest.mark.parametrize(
        "command, config, flags",
        [
            ("mask", {"patch_size": "16"}, []),
            ("mask", {"anchor_ratio": None}, []),
            ("mask", {"seed": 1.5}, []),
            ("mask", {"kmeans_k": True}, []),
            ("mask", {"strategy": 3}, []),
            ("mask", {"render": 1}, []),
            ("mask", {"threshold_r": float("inf")}, []),
            ("train", {"dataset": {"n_images": "4"}}, []),
            ("train", {"dataset": {"n_images": 0}}, []),
            ("train", {"dataset": {"patch_size": 0}}, []),
            ("train", {"dataset": {"patch_size": 3}}, []),
            ("train", {"dataset": {"n_colors": 1}}, []),
            ("train", {"steps_per_epoch": 0}, []),
            ("train", {"embed_dim": 0}, []),
            ("calibrate", {"sample_size": -1}, []),
            ("calibrate", {"seed": -1}, []),
            ("calibrate", {"max_iters": 0}, []),
            ("calibrate", {"tolerance": float("nan")}, []),
            ("calibrate", {}, ["--tolerance", "nan"]),
            ("calibrate", {"anchor_ratio": -1}, []),
            ("calibrate", {"anchor_ratio": 0}, []),
            ("calibrate", {"anchor_ratio": 0.7, "target": 0.9}, []),
            ("mask", {"alpha": 2}, []),
            ("mask", {}, ["--alpha", "nan"]),
            ("mask", {"patch_size": 0}, []),
            ("calibrate", {"patch_size": -4}, []),
            ("train", {"epochs": 0}, []),
            ("train", {"learning_rate": -1}, []),
            ("train", {"dataset": 3}, []),
            # a config error is reported before the input directory is read
            ("calibrate", {"seed": -1}, ["--in", "/nonexistent"]),
            ("calibrate", {}, ["--in", "/nonexistent", "--tolerance", "0"]),
            ("calibrate", {}, ["--in", "/nonexistent", "--target", "2"]),
            ("calibrate", {}, ["--in", "/nonexistent", "--anchor-ratio", "0"]),
            ("mask", {}, ["--in", "/nonexistent", "--beta", "1.5"]),
            ("mask", {}, ["--in", "/nonexistent", "--patch-size", "0"]),
            ("calibrate", {}, ["--in", "/nonexistent", "--patch-size", "0"]),
            # InfoNCE contrasts at least two pairs
            ("train", {"dataset": {"n_images": 1}}, []),
            # SeedSequence splits a seed past one 32-bit word, aliasing keys
            ("mask", {"seed": 2**32}, []),
            ("calibrate", {"seed": 2**32}, []),
            ("train", {"seed": 2**32}, []),
            ("mask", {}, ["--in", "/nonexistent", "--seed", "4294967296"]),
            ("calibrate", {}, ["--in", "/nonexistent", "--seed", "4294967296"]),
            ("train", {}, ["--seed", "4294967296"]),
            # every train setting is checked before the dataset is made
            ("train", {"learning_rate": -1, "dataset": {"n_images": 10**12}}, []),
            ("train", {"beta": 1.5, "dataset": {"n_images": 10**12}}, []),
            ("train", {"epochs": 0, "dataset": {"n_images": 10**12}}, []),
            ("train", {"dataset": {"n_images": 1, "image_size": 10**12}}, []),
            ("train", {"embed_dim": 10**20, "dataset": {"patch_size": 3}}, []),
        ],
    )
    def test_bad_value_exits_2(self, image_dir, tmp_path, capsys, command, config, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = [command, "--config", path, *flags]
        if command != "train" and "--in" not in flags:
            args += ["--in", image_dir]
        if command != "calibrate":
            args += ["--out", tmp_path / "out"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("config, message", [
        ({"dataset": {"n_images": 0}}, "n_images must be >= 1, got 0"),
        ({"dataset": {"n_images": 1}}, "InfoNCE needs at least 2 images, got 1"),
        ({"epochs": 0}, "epochs must be positive, got 0"),
        # keys are checked in table order, not in the file's
        ({"embed_dim": "y", "temperature": "x"},
         "config key 'temperature' must be a finite number, got 'x'"),
        # the trainer's settings are checked in check_train's order
        ({"epochs": 0, "temperature": 0.0}, "epochs must be positive, got 0"),
        ({"alpha_exponent": 0.0, "temperature": 0.0}, "alpha_exponent must be positive, got 0.0"),
        ({"beta": 2.0, "epochs": 0}, "beta must lie in (0, 1), got 2.0"),
        # beta is the masker's, checked with it before the trainer and the dataset
        ({"beta": 2.0, "steps_per_epoch": 0}, "beta must lie in (0, 1), got 2.0"),
        ({"beta": 2.0, "dataset": {"n_images": 1}}, "beta must lie in (0, 1), got 2.0"),
    ])
    def test_train_errors_name_the_config_key(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(["train", "--config", path, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_mask_checks_beta_with_the_masker(self, image_dir, tmp_path, capsys):
        # the masker's settings, beta among them, come before alpha
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 2.0, "beta": 2.0}))
        assert run_cli(["mask", "--config", path, "--in", image_dir, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "config error: beta must lie in (0, 1), got 2.0\n"

    def test_the_largest_seed_is_accepted(self, image_dir, tmp_path):
        seed = str(2**32 - 1)
        assert run_cli(["mask", "--in", image_dir, "--out", tmp_path / "out", "--seed", seed,
                        "--patch-size", "8"]) == 0
        assert run_cli(["calibrate", "--in", image_dir, "--seed", seed,
                        "--patch-size", "8"]) in (0, 4)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"epochs": 1, "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4}}))
        assert run_cli(["train", "--config", config, "--out", tmp_path / "log",
                        "--seed", seed]) == 0

    def test_mixed_image_sizes_write_nothing(self, tmp_path):
        directory = tmp_path / "imgs"
        directory.mkdir()
        save_image(smoothed_noise_images(1, 32, 32, 3, seed=1)[0], directory / "a.ppm")
        save_image(smoothed_noise_images(1, 16, 16, 3, seed=2)[0], directory / "b.ppm")
        out = tmp_path / "out"
        assert run_cli(["mask", "--in", directory, "--out", out]) == 3
        assert not out.exists()


# config values: wrong types, null, bools, NaN, small and boundary numbers,
# integers past 32 and 64 bits, and the ends of the float range
_LARGE_VALUES = [2**32, 2**63, 10**30, 1e308, 5e-324]
_CONFIG_VALUES = [None, True, False, "16", "kmeans", [1], {}, float("nan"),
                  -1, 0, 0.5, 1, 1.5, 2, 3, *_LARGE_VALUES]
_VALUES = st.sampled_from(_CONFIG_VALUES)
# the number of train steps, which a large value makes real work, not a fault
_STEP_KEYS = ("epochs", "steps_per_epoch")
_HEADER_TOKENS = [b"", b"P3", b"P5", b"P6", b"-1", b"0", b"1", b"8", b"16", b"17",
                  b"255", b"256", b"65535", b"65536", b"x", b"#"]


def _configs(table, values):
    return st.dictionaries(st.sampled_from(sorted(table) + ["bogus"]), values, max_size=4)


_CONFIGS = {
    "mask": _configs(_MASK, _VALUES),
    "calibrate": _configs(_CALIBRATE, _VALUES),
    "train": _configs(_TRAIN, st.one_of(_VALUES, _configs(_DATASET, _VALUES))).filter(
        lambda config: all(config.get(key) not in _LARGE_VALUES for key in _STEP_KEYS)),
}
# keeps a drawn train run to a few tiny steps
_SMALL_TRAIN = {"epochs": 2, "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4}}


@st.composite
def _ppm_32x32(draw):
    """A 32x32 P6 file with one header token replaced. At the default
    P=16 it holds 4 patches, so calibrate's targets are reachable and its
    search runs."""
    tokens = [b"P6", b"32", b"32", b"255"]
    tokens[draw(st.integers(0, 3))] = draw(st.sampled_from(_HEADER_TOKENS))
    return b"\n".join(tokens) + b"\n" + bytes(range(256)) * 12


class TestExitCodeContract:
    @pytest.mark.parametrize("command", sorted(_CONFIGS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_config_or_header_exits_0_2_3_or_4(self, command, data):
        config = data.draw(_CONFIGS[command])
        if command == "train":
            dataset = config.get("dataset", {})
            if isinstance(dataset, dict):
                config["dataset"] = {**_SMALL_TRAIN["dataset"], **dataset}
            config = {**_SMALL_TRAIN, **config}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "cfg.json").write_text(json.dumps(config))
            (root / "imgs").mkdir()
            (root / "imgs" / "a.ppm").write_bytes(data.draw(_ppm_32x32()))
            args = [command, "--config", root / "cfg.json"]
            if command != "train":
                args += ["--in", root / "imgs"]
            if command != "calibrate":
                args += ["--out", root / "out"]
            assert run_cli(args) in (0, 2, 3, 4)


def _run_with_stderr(args):
    """(exit code, stderr) of one in-process run; an exception that
    escapes main, a traceback for a CLI user, fails the calling test."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = run_cli(args)
    return code, err.getvalue()


def _assert_reported(code, err, codes):
    """The run exited with one of codes and reported it in one line."""
    assert code in codes, (code, err)
    assert err.startswith({2: "config error: ", 3: "data error: "}[code]), err
    assert err.count("\n") == 1 and err.endswith("\n"), err


def _config_args(command, config, root):
    """argv running command with config; mask and calibrate read a missing
    directory, so a config that passes exits 3 before any image."""
    args = [command, "--config", config]
    if command != "train":
        args += ["--in", root / "missing"]
    if command != "calibrate":
        args += ["--out", root / "out"]
    return args


def _is_json_object(blob):
    try:
        return isinstance(json.loads(blob.decode("utf-8")), dict)
    except (ValueError, RecursionError):
        return False


def _is_mask_text(blob):
    """Whether stats reads blob as mask lines: ASCII, with at least one
    non-blank line and every non-blank line of '0'/'1' once stripped."""
    try:
        lines = [line.strip() for line in blob.decode("ascii").splitlines() if line.strip()]
    except UnicodeDecodeError:
        return False
    return bool(lines) and all(set(line) <= {"0", "1"} for line in lines)


def _parses(blob):
    try:
        parse_pnm(blob)
    except DataError:
        return False
    return True


_DEEP_ARRAYS = b"[" * 100_000 + b"]" * 100_000
_LONG_INTEGER = b'{"seed": 1' + b"0" * 5000 + b"}"
_HUGE_FLOAT = b'{"anchor_ratio": 1' + b"0" * 400 + b"}"  # an int past the float range
# raw bytes, and raw bytes behind the start of a PNM header
_PNM_BYTES = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from([b"P6\n", b"P5 ", b"P6\n16 16\n", b"P6\n16 16\n255\n"]),
              st.binary(max_size=64)).map(b"".join),
)


class TestAnyBytes:
    """Whatever bytes a config file, a masks file or an image holds, the
    CLI exits 2 or 3 with one line on stderr and no traceback."""

    @pytest.mark.parametrize("command", ["calibrate", "mask", "train"])
    @pytest.mark.parametrize("blob", [b"\xff\xfe\x00{", _DEEP_ARRAYS, _LONG_INTEGER, _HUGE_FLOAT],
                             ids=["not-utf8", "nested-100000-deep", "5000-digit-integer",
                                  "401-digit-float-key"])
    def test_unreadable_config_is_config_error(self, tmp_path, command, blob):
        config = tmp_path / "cfg.json"
        config.write_bytes(blob)
        _assert_reported(*_run_with_stderr(_config_args(command, config, tmp_path)), [2])

    @pytest.mark.parametrize("json_out", [False, True])
    def test_non_ascii_mask_file_is_data_error(self, tmp_path, json_out):
        masks = tmp_path / "masks.txt"
        masks.write_bytes(b"0101\n\xff\n")
        args = ["stats", "--in", masks] + (["--json", tmp_path / "s.json"] if json_out else [])
        _assert_reported(*_run_with_stderr(args), [3])

    @pytest.mark.parametrize("command", ["calibrate", "mask"])
    def test_header_integer_past_the_digit_limit_is_data_error(self, tmp_path, command):
        (tmp_path / "imgs").mkdir()
        (tmp_path / "imgs" / "a.ppm").write_bytes(b"P6\n" + b"1" * 5000 + b" 16\n255\n")
        args = [command, "--in", tmp_path / "imgs"] + (
            ["--out", tmp_path / "out"] if command == "mask" else [])
        code, err = _run_with_stderr(args)
        _assert_reported(code, err, [3])
        assert "5000 digits" in err

    @pytest.mark.parametrize("command", ["calibrate", "mask", "train"])
    @settings(max_examples=100, deadline=None)
    @given(blob=st.binary())
    def test_any_config_bytes(self, command, blob):
        assume(command != "train" or not _is_json_object(blob))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "cfg.json").write_bytes(blob)
            _assert_reported(*_run_with_stderr(_config_args(command, root / "cfg.json", root)),
                             [2, 3])

    @settings(max_examples=100, deadline=None)
    @given(blob=st.binary())
    def test_any_mask_file_bytes(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "masks.txt").write_bytes(blob)
            code, err = _run_with_stderr(["stats", "--in", Path(tmp) / "masks.txt"])
        if _is_mask_text(blob):
            assert (code, err) == (0, "")
        else:
            _assert_reported(code, err, [3])

    @pytest.mark.parametrize("command", ["calibrate", "mask"])
    @settings(max_examples=100, deadline=None)
    @given(blob=_PNM_BYTES)
    def test_any_image_bytes(self, command, blob):
        assume(not _parses(blob))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "imgs").mkdir()
            (root / "imgs" / "a.ppm").write_bytes(blob)
            args = [command, "--in", root / "imgs"] + (
                ["--out", root / "out"] if command == "mask" else [])
            _assert_reported(*_run_with_stderr(args), [3])


def _assert_config_error_needs_no_input(command, config):
    """A config that fails over a valid image fails the same way with no
    input directory at all: no config value waits for the data."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "cfg.json").write_text(json.dumps(config))
        (root / "imgs").mkdir()
        (root / "imgs" / "a.ppm").write_bytes(b"P6\n16\n16\n255\n" + bytes(range(256)) * 3)
        results = []
        for in_dir in (root / "imgs", root / "missing"):
            args = [command, "--config", root / "cfg.json", "--in", in_dir]
            if command == "mask":
                args += ["--out", root / "out"]
            err = io.StringIO()
            with redirect_stderr(err):
                results.append((run_cli(args), err.getvalue()))
    (code, message), missing = results
    if code == 2:
        assert message.count("\n") == 1
        assert missing == (code, message), config


class TestConfigBeforeData:
    @pytest.mark.parametrize("command", ["calibrate", "mask"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_config_error_needs_no_input(self, command, data):
        _assert_config_error_needs_no_input(command, data.draw(_CONFIGS[command]))

    @pytest.mark.parametrize("command", ["calibrate", "mask"])
    def test_every_single_fault_needs_no_input(self, command):
        # the default config with exactly one key set to each value: all
        # of them, since _CONFIGS' many-key draws almost never make one
        for key in sorted({"calibrate": _CALIBRATE, "mask": _MASK}[command]):
            for value in _CONFIG_VALUES:
                _assert_config_error_needs_no_input(command, {key: value})


class TestStatsCommand:
    def test_reads_mask_lines(self, tmp_path, capsys):
        masks = tmp_path / "masks.txt"
        masks.write_text("1100\n0000\n1111\n")
        json_out = tmp_path / "stats.json"
        assert run_cli(["stats", "--in", masks, "--json", json_out]) == 0
        # mask lines hold no anchors, so the cluster count is unknown: no
        # text line, and null in the JSON
        assert capsys.readouterr().out == (
            "masks: 3\nmask ratio: mean=0.5000 min=0.0000 max=1.0000\n"
            "ratio histogram (20 bins over [0, 1]): 1 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 1\n"
        )
        expected = {"count": 3, "mean_ratio": 0.5, "min_ratio": 0.0, "max_ratio": 1.0,
                    "histogram_bins": 20, "histogram": [1] + [0] * 9 + [1] + [0] * 8 + [1],
                    "mean_cluster_count": None}
        assert json_out.read_text() == json.dumps(expected, indent=2) + "\n"

    def test_malformed_line_is_data_error(self, tmp_path):
        masks = tmp_path / "masks.txt"
        masks.write_text("11a0\n")
        assert run_cli(["stats", "--in", masks]) == 3

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli(["stats", "--in", tmp_path / "none.txt"]) == 3


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 224 px images at P=16 (L=196, d=768) make products large enough for
    # OpenBLAS to split over its threads
    images = tmp_path / "imgs"
    images.mkdir()
    for i, image in enumerate(smoothed_noise_images(5, 224, 224, 3, seed=29)):
        save_image(image, images / f"img_{i}.ppm")
    commands = {strategy: ["mask", "--in", images, "--strategy", strategy, "--dump-sim", "--out"]
                for strategy in ("cluster-rgb", "cluster-embedding", "kmeans")}
    commands["calibrate"] = ["calibrate", "--in", images, "--calibration-out"]
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        for name, args in commands.items():
            out = tmp_path / threads / name
            out.mkdir(parents=True)
            target = out / "report.json" if name == "calibrate" else out
            proc = subprocess.run([sys.executable, "-m", "patchmask", *map(str, args), str(target)],
                                  env=env, capture_output=True)
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            runs[threads, name] = proc.returncode, proc.stdout, proc.stderr, files
    for name in commands:
        assert runs["1", name][0] in ((0, 4) if name == "calibrate" else (0,)), runs["1", name]
        assert runs["1", name] == runs["2", name], name


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        masks = tmp_path / "masks.txt"
        masks.write_text("10\n01\n")
        proc = subprocess.run(
            [sys.executable, "-m", "patchmask", "stats", "--in", str(masks)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "masks: 2" in proc.stdout

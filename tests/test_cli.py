import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PREPARE_CALLS, prepared_counts, rows_by_source, smoothed_noise_images
from patchmask.batch_shaping import mask_batch
from patchmask.calibration import draw_anchor_sets
from patchmask.cli import (
    _CALIBRATE, _DATASET, _MASK, _NS_CLI_CALIBRATE, _NS_CLI_MASK, _NS_CLI_SHAPE, _TRAIN, main,
)
from patchmask.cluster_masker import Mask, MaskerConfig, PreparedImage, anchor_count
from patchmask.patch_grid import Image, patchify, pixel_normalize
from patchmask.errors import DataError
from patchmask.pnm import load_image, parse_pnm, save_image
from patchmask.render import render_mask
from patchmask.similarity import _NS_PROJECTION, cosine_matrix
from patchmask.synthetic import _NS_LAYOUT, _NS_TEXTURE
from patchmask.toy_contrastive import _NS_ENCODER, _NS_MASK, _NS_SHAPE


@pytest.fixture
def image_dir(tmp_path):
    directory = tmp_path / "imgs"
    directory.mkdir()
    for i, image in enumerate(smoothed_noise_images(4, 32, 32, 3, seed=11)):
        save_image(image, directory / f"img_{i:02d}.ppm")
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
            save_image(render_mask(load_image(path), Mask.from_line(line), 8), tmp_path / "ref.ppm")
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
                              config, 0.5, 0.5, (6, _NS_CLI_MASK), (6, _NS_CLI_SHAPE))
        assert (out / "masks.txt").read_text() == "".join(m.to_line() + "\n" for m in masks)
        for path, image, mask in zip(paths, images, masks):
            save_image(render_mask(image, mask, 8), tmp_path / "ref.ppm")
            rendered = (out / f"{path.stem}_masked.ppm").read_bytes()
            assert rendered == (tmp_path / "ref.ppm").read_bytes()
            sim = cosine_matrix(pixel_normalize(patchify(image, 8)))
            rows = "".join("\t".join(f"{v:.10g}" for v in row) + "\n" for row in sim)
            assert (out / f"{path.stem}_sim.tsv").read_text() == rows

    def test_one_grid_alive_at_a_time(self, tmp_path):
        # 64 images of 96x96: one float64 grid is 216 KiB, all 64 are 13.5 MiB
        directory = tmp_path / "imgs"
        directory.mkdir()
        rng = np.random.default_rng(13)
        for i in range(64):
            save_image(Image(data=rng.random((96, 96, 3))), directory / f"img_{i:02d}.ppm")
        tracemalloc.start()
        try:
            assert run_cli(["mask", "--in", directory, "--out", tmp_path / "out", "--strategy",
                            "cluster-rgb", "--patch-size", "16"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 96 * 96 * 3 * 8, peak

    def test_each_image_is_patchified_once(self, image_dir, tmp_path, calls_to):
        patchify_calls = calls_to("patch_grid", "patchify")
        for strategy in ("cluster-embedding", "kmeans"):
            patchify_calls.clear()
            code = run_cli(["mask", "--in", image_dir, "--out", tmp_path / strategy,
                            "--strategy", strategy, "--kmeans-k", "4", "--patch-size", "8",
                            "--render", "--dump-sim"])
            assert code == 0
            assert [args[0] for args in patchify_calls] == [8] * 4

    @pytest.mark.parametrize("strategy", ["cluster-rgb", "cluster-embedding", "kmeans", "random"])
    def test_each_image_is_prepared_once(self, image_dir, tmp_path, prepare_calls, strategy):
        code = run_cli(["mask", "--in", image_dir, "--out", tmp_path / "out", "--strategy",
                        strategy, "--kmeans-k", "4", "--patch-size", "8", "--render"])
        assert code == 0
        assert prepared_counts(prepare_calls) == [4 * n for n in PREPARE_CALLS[strategy]]
        # each source computes its anchors' rows alone, each row once
        for rows in rows_by_source(prepare_calls[1]):
            assert sorted(set(rows)) == sorted(rows)
            assert len(rows) == anchor_count(_MASK["anchor_ratio"], 16)

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
        patchify_calls = calls_to("patch_grid", "patchify")
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
        draws = np.random.default_rng((_CALIBRATE["seed"], _NS_CLI_CALIBRATE))
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

    def test_out_of_memory_is_data_error(self, tmp_path, capsys):
        # 10**12 x 192 float64 weights exceed the address space, so the
        # allocation fails before anything is allocated
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"embed_dim": 10**12}))
        assert run_cli(["train", "--config", config, "--out", tmp_path / "log"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1


def test_every_stream_key_seeds_its_own_stream(image_dir, tmp_path, monkeypatch):
    # SeedSequence pads a key with zeros, so a bare seed s draws the stream
    # of (s, 0, 0, 0), the trainer's mask key for step 0 and image 0; every
    # key that mask, calibrate and train runs pass to default_rng must give
    # a state of its own
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
    assert namespaces == {_NS_CLI_MASK, _NS_CLI_SHAPE, _NS_CLI_CALIBRATE,
                          _NS_MASK, _NS_SHAPE, _NS_ENCODER, _NS_LAYOUT, _NS_TEXTURE,
                          _NS_PROJECTION}
    states = {tuple(np.random.SeedSequence(key).generate_state(4).tolist()) for key in keys}
    assert len(states) == len(keys)


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

    def test_mixed_image_sizes_write_nothing(self, tmp_path):
        directory = tmp_path / "imgs"
        directory.mkdir()
        save_image(smoothed_noise_images(1, 32, 32, 3, seed=1)[0], directory / "a.ppm")
        save_image(smoothed_noise_images(1, 16, 16, 3, seed=2)[0], directory / "b.ppm")
        out = tmp_path / "out"
        assert run_cli(["mask", "--in", directory, "--out", out]) == 3
        assert not out.exists()


# config values: wrong types, null, bools, NaN, small and boundary numbers
_CONFIG_VALUES = [None, True, False, "16", "kmeans", [1], {}, float("nan"),
                  -1, 0, 0.5, 1, 1.5, 2, 3]
_VALUES = st.sampled_from(_CONFIG_VALUES)
_HEADER_TOKENS = [b"", b"P3", b"P5", b"P6", b"-1", b"0", b"1", b"8", b"16", b"17",
                  b"255", b"256", b"65535", b"65536", b"x", b"#"]


def _configs(table, values):
    return st.dictionaries(st.sampled_from(sorted(table) + ["bogus"]), values, max_size=4)


_CONFIGS = {
    "mask": _configs(_MASK, _VALUES),
    "calibrate": _configs(_CALIBRATE, _VALUES),
    "train": _configs(_TRAIN, st.one_of(_VALUES, _configs(_DATASET, _VALUES))),
}
# keeps a drawn train run to a few tiny steps
_SMALL_TRAIN = {"epochs": 2, "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4}}


@st.composite
def _ppm_16x16(draw):
    """A 16x16 P6 file with one header token replaced."""
    tokens = [b"P6", b"16", b"16", b"255"]
    tokens[draw(st.integers(0, 3))] = draw(st.sampled_from(_HEADER_TOKENS))
    return b"\n".join(tokens) + b"\n" + bytes(range(256)) * 3


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
            (root / "imgs" / "a.ppm").write_bytes(data.draw(_ppm_16x16()))
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
        assert "mean=0.5000" in capsys.readouterr().out
        # the keys and bytes the report has always had
        expected = {"count": 3, "mean_ratio": 0.5, "min_ratio": 0.0, "max_ratio": 1.0,
                    "histogram_bins": 20, "histogram": [1] + [0] * 9 + [1] + [0] * 8 + [1],
                    "mean_cluster_count": 0.0}
        assert json_out.read_text() == json.dumps(expected, indent=2) + "\n"

    def test_malformed_line_is_data_error(self, tmp_path):
        masks = tmp_path / "masks.txt"
        masks.write_text("11a0\n")
        assert run_cli(["stats", "--in", masks]) == 3

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli(["stats", "--in", tmp_path / "none.txt"]) == 3


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

"""The repository's tooling: its pytest settings report a failing property
test as a failure with its falsifying example, not as an internal error,
the pipeline benchmark's timing shims still fit the package, the hot
kernels allocate no array of the size of their input beyond their output,
every random stream is seeded through patchmask.streams with its caller's
seed, and the README's table of config keys is the CLI's."""

import ast
import importlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_prints_its_example(tmp_path):
    test_file = tmp_path / "test_falsified.py"
    test_file.write_text(
        "from hypothesis import given\n"
        "from hypothesis import strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "--hypothesis-seed=0", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


SPANS = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patchmask"


def _literal_seeds(tree):
    """Line numbers of the stream(...) calls in tree whose seed is a literal."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        seeds = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "seed"]
        # a seed that names no variable, such as 0 or 2**32, is a literal
        literal = [seed for seed in seeds
                   if not any(isinstance(n, ast.Name) for n in ast.walk(seed))]
        if name == "stream" and literal:
            lines.append(node.lineno)
    return lines


def test_literal_seeds_are_found():
    tree = ast.parse("stream(0, Stream.MASK)\npm.stream(-1, 4)\nstream(seed=2**32, namespace=4)\n"
                     "stream(seed, Stream.MASK)\nstream(*key, 0)\nother(0, 4)\n")
    assert _literal_seeds(tree) == [1, 2, 3]


def test_every_stream_is_seeded_through_the_table():
    # streams.py holds the one table of namespaces and the one call of
    # default_rng; a namespace constant or a default_rng elsewhere would
    # be a second source of truth for some stream's key, and a stream
    # drawn from a literal seed would be one its caller's seed never moves
    modules = sorted(PACKAGE.glob("*.py"))
    assert "streams.py" in [path.name for path in modules]
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.name != "streams.py":
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            names |= {alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names}
            assert "default_rng" not in names, path.name
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined |= {alias.asname or alias.name for alias in node.names}
        assert not [name for name in defined if name.startswith("_NS_")], path.name
        assert not _literal_seeds(tree), (path.name, _literal_seeds(tree))


def load_spans():
    """pipebench/spans.py as a fresh module, executed from its source so
    that nothing (no bytecode cache) is written under pipebench/."""
    module = types.ModuleType("pipebench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_benchmark_target_is_a_callable_of_the_package():
    spans = load_spans()
    for module_name, func_name, _ in spans.TARGETS:
        module = importlib.import_module(f"patchmask.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


README = Path(__file__).resolve().parents[1] / "README.md"


def _flags(parser, command):
    """{dest: option strings} of one subcommand's options."""
    sub = next(action for action in parser._actions if action.dest == "command").choices[command]
    return {action.dest: action.option_strings for action in sub._actions}


def test_readme_key_table_is_the_cli():
    # each key's flag is the key with dashes unless the row names another
    # in parentheses; train's row names the only keys that have flags
    from patchmask import cli

    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(encoding="utf-8"), re.M))
    parser = cli.build_parser()
    for command, table in [("mask", cli._MASK), ("calibrate", cli._CALIBRATE)]:
        keys = dict(re.findall(r"`(\w+)`(?: \(`(--[\w-]+)`\))?", rows[command]))
        assert sorted(keys) == sorted(table), command
        flags = _flags(parser, command)
        for key, flag in keys.items():
            assert flags[key] == [flag or "--" + key.replace("_", "-")], (command, key)
    flags = _flags(parser, "train")
    exposed = {flag for key in cli._TRAIN if key in flags for flag in flags[key]}
    assert exposed == set(re.findall(r"`(--[\w-]+)`", rows["train"]))
    assert exposed == {"--epochs", "--seed"}


# a small train run: 4 images of 16 px at P=4 for 3 one-step epochs
TRAIN_CONFIG = {"strategy": "cluster-embedding", "epochs": 3,
                "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4}}


@pytest.mark.parametrize("command, items", [
    (["mask", "--strategy", "cluster-rgb", "--patch-size", "8", "--out", "OUT", "--in", "IN"], 4),
    (["mask", "--strategy", "kmeans", "--patch-size", "8", "--out", "OUT", "--in", "IN"], 4),
    (["calibrate", "--patch-size", "8", "--tolerance", "0.1", "--calibration-out", "OUT/r.json",
      "--in", "IN"], 4),
    (["train", "--config", "CONFIG", "--out", "OUT"], 4 * 3),
], ids=["mask-cluster", "mask-kmeans", "calibrate", "train"])
def test_traced_run_reports_finite_metrics(tmp_path, command, items):
    # the benchmark's traced runs wrap each target with a shim and print
    # the layer metrics as strict JSON: every target must be found and
    # every metric must be a finite number
    from conftest import smoothed_noise_images
    from patchmask import cli
    from patchmask.pnm import save_image

    images = tmp_path / "imgs"
    images.mkdir()
    for i, image in enumerate(smoothed_noise_images(4, 32, 32, 3, seed=5)):
        save_image(image, images / f"img_{i}.ppm")
    (tmp_path / "out").mkdir()
    (tmp_path / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    places = {"IN": str(images), "CONFIG": str(tmp_path / "train.json")}
    argv = [places.get(arg, arg.replace("OUT", str(tmp_path / "out"))) for arg in command]
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.run_root(cli.main, argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing == []
    metrics, notes = spans.layer_metrics(tracer.spans, tracer.missing, items)
    assert not [note for note in notes if "missing" in note]
    assert metrics and all(math.isfinite(value) for value, _ in metrics.values()), metrics
    json.dumps({name: value for name, (value, _) in metrics.items()}, allow_nan=False)


# K-Means runs once per image in a fresh process per CLI call, so a module
# its first call imports (numpy.ma, behind np.unique and np.union1d, takes
# over 10 ms) is paid on every invocation
FIRST_KMEANS_CALL = """
import sys
import numpy.random
import patchmask
from patchmask.cluster_masker import kmeans_mask

vectors = numpy.random.default_rng(3).standard_normal((196, 768))
vectors[:40] = 0.0
vectors[40:60] = vectors[60:80]
before = set(sys.modules)
kmeans_mask(vectors, 12, 10, 0.5, numpy.random.default_rng(1))
print(sorted(set(sys.modules) - before))
"""


def test_first_kmeans_call_imports_no_module():
    proc = subprocess.run([sys.executable, "-c", FIRST_KMEANS_CALL],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory its call allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_pixel_normalize_allocates_its_output_and_a_small_buffer():
    # its squares go through a block buffer, not a second (L, d) array
    from patchmask.patch_grid import PatchGrid, pixel_normalize

    patches = np.random.default_rng(5).random((196, 768))
    grid = PatchGrid(rows=14, cols=14, patch_size=16, channels=3, patches=patches)
    result, peak = traced_peak(pixel_normalize, grid)
    assert peak < patches.nbytes + patches.nbytes // 4, peak
    # no patch is constant, so this is the unblocked mean/std formula
    reference = (patches - patches.mean(axis=1, keepdims=True)) / patches.std(axis=1, keepdims=True)
    assert result.patches.tobytes() == reference.tobytes()


def test_pixel_normalize_in_place_allocates_a_small_buffer_alone():
    # the centring writes into the grid's own patches
    from patchmask.patch_grid import PatchGrid, pixel_normalize

    patches = np.random.default_rng(5).random((196, 768))
    grid = PatchGrid(rows=14, cols=14, patch_size=16, channels=3, patches=patches.copy())
    result, peak = traced_peak(lambda: pixel_normalize(grid, in_place=True))
    assert peak < patches.nbytes // 4, peak
    assert result is grid
    reference = (patches - patches.mean(axis=1, keepdims=True)) / patches.std(axis=1, keepdims=True)
    assert grid.patches.tobytes() == reference.tobytes()


def test_nearest_centroids_rescores_pairs_in_blocks():
    # every point ties between the two copies of each centroid, so all of
    # its pairs are re-scored; no (pairs, d) array may hold them at once
    from patchmask._kernels import nearest_centroids

    points = np.random.default_rng(6).standard_normal((196, 768))
    centroids = np.concatenate([points[:4], points[:4]])
    sq_points = np.einsum("ij,ij->i", points, points)
    labels, peak = traced_peak(nearest_centroids, points, centroids, sq_points)
    pairs_nbytes = 2 * points.nbytes  # at least two candidates per point
    assert peak < pairs_nbytes // 8, peak
    # the unblocked exact formula, with the first minimum winning ties
    exact = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(labels, np.argmin(exact, axis=1))

import importlib
import os
import sys
from pathlib import Path

# pin BLAS pools before numpy loads so timed tests run single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# `python -m patchmask` child processes import the package under test
_paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, _paths))

import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples, and no example database replays
# earlier failures in a different order
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def random_similarity(rng, length, dim=8):
    """Similarity matrix of random unit-ish vectors (realistic cosine structure)."""
    from patchmask._kernels import pairwise_cosine

    return pairwise_cosine(rng.standard_normal((length, dim)))


@pytest.fixture
def calls_to(monkeypatch):
    """calls_to(module, name) records every call of patchmask.<module>.<name>,
    wherever in the package that function is bound, and returns the list of
    the calls' positional-argument tuples."""

    def record(module, name):
        original = getattr(importlib.import_module(f"patchmask.{module}"), name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "patchmask" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return record


# calls of pixel_normalize, cosine_matrix and toy_patch_embedding per image
# when each image is prepared once
PREPARE_CALLS = {
    "cluster-embedding": (1, 2, 1),
    "cluster-rgb": (1, 1, 0),
    "kmeans": (1, 0, 0),
    "random": (0, 0, 0),
}


@pytest.fixture
def prepare_calls(calls_to):
    """Recorded calls of pixel_normalize, cosine_matrix and
    toy_patch_embedding, in the order of PREPARE_CALLS's counts."""
    return [calls_to("patch_grid", "pixel_normalize"), calls_to("similarity", "cosine_matrix"),
            calls_to("similarity", "toy_patch_embedding")]

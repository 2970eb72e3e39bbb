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
def patchify_calls(monkeypatch):
    """List that records every patchify call's patch size, wherever in the
    package patchify is bound."""
    from patchmask import patch_grid

    original, calls = patch_grid.patchify, []

    def counting(image, patch_size):
        calls.append(patch_size)
        return original(image, patch_size)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "patchmask" and getattr(module, "patchify", None) is original:
            monkeypatch.setattr(module, "patchify", counting)
    return calls

import os
from pathlib import Path

# pin BLAS pools before numpy loads so timed tests run single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# `python -m patchmask` child processes import the package under test
_paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, _paths))

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def random_similarity(rng, length, dim=8):
    """Similarity matrix of random unit-ish vectors (realistic cosine structure)."""
    from patchmask._kernels import pairwise_cosine

    return pairwise_cosine(rng.standard_normal((length, dim)))

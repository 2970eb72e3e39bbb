"""The table of random streams: every draw comes from stream(seed, namespace, *index).

SeedSequence pads a key with zeros, so a bare seed s would draw the stream of
(s, 0, 0, 0), TRAIN_MASK's key for step 0 and image 0: each key names its namespace.
stream takes a key of 32-bit words alone, the seed checked first (check_seed):
SeedSequence splits a larger integer into words, so (2**32, 20, 0) would draw the
stream of (0, 1, 20), and (0, 20, 2**32) that of (0, 20, 0, 1)."""

from enum import IntEnum

import numpy as np

from .errors import ConfigError, check_integer


class Stream(IntEnum):
    TRAIN_MASK = 0  # (seed, 0, step, image)
    TRAIN_SHAPE = 1  # (seed, 1, step)
    ENCODER = 2  # (seed, 2): the toy encoders' initial weights
    PROJECTION = 3  # (seed, 3): toy_patch_embedding's projection
    LAYOUT = 11  # (seed, 11, image): color_block_dataset
    TEXTURE = 12  # (seed, 12, color): color_block_dataset
    MASK = 20  # (seed, 20, image): patchmask mask
    SHAPE = 21  # (seed, 21): patchmask mask
    CALIBRATE = 22  # (seed, 22): patchmask calibrate


def check_seed(seed):
    """Raise ConfigError unless seed is one 32-bit word: an integer in [0, 2**32)."""
    check_integer("seed", seed)
    if not 0 <= seed < 2**32:
        raise ConfigError(f"seed must lie in [0, 2**32), got {seed}")


def stream(seed, namespace, *index):
    """The Generator of the key (seed, namespace, *index); a seed that
    check_seed rejects, or a namespace or index that is not an integer in
    [0, 2**32), is a ConfigError."""
    check_seed(seed)
    key = (seed, namespace, *index)
    if all(isinstance(word, (int, np.integer)) and 0 <= word < 2**32 for word in key):
        # SeedSequence turns each integer of a tuple into the same 32-bit
        # word, one at a time; a uint32 array it takes as it is
        return np.random.default_rng(np.array(key, dtype=np.uint32))
    raise ConfigError(f"stream key {key} must hold integers in [0, 2**32)")

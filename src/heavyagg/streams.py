"""Deterministic, counter-based random streams.

Every replicate (or fixed-size batch of replicates) of every experiment draws
its randomness from a Philox generator keyed by ``(seed, tag, index)``.  Philox
is counter based, so distinct keys yield statistically independent streams and
the mapping from key to output is stable across platforms, processes, and
worker counts.  Workers can therefore claim batches in any order and still
produce bit-identical results: the stream belongs to the batch index, not to
the worker.
"""

from __future__ import annotations

import hashlib

import numpy as np


def key_words(seed: int, tag: str, index: int = 0) -> np.ndarray:
    """Hash (seed, tag, index) into the two 64-bit key words Philox accepts."""
    h = hashlib.blake2b(digest_size=16)
    h.update(int(seed).to_bytes(8, "little", signed=False))
    h.update(int(index).to_bytes(8, "little", signed=False))
    h.update(tag.encode("utf-8"))
    return np.frombuffer(h.digest(), dtype=np.uint64)


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the random stream for one (seed, tag, index) cell.

    Parameters
    ----------
    seed : int
        Experiment master seed (unsigned 64-bit).
    tag : str
        Names the consumer, e.g. ``"aggregate/rect-indep"``.  Tags keep
        logically distinct draws independent even under one seed.
    index : int
        Replicate or batch index within the tagged family.

    Returns
    -------
    numpy.random.Generator
        Generator backed by Philox with a key derived from the arguments.
    """
    return np.random.Generator(np.random.Philox(key=key_words(seed, tag, index)))

"""Deterministic, keyed random streams.

Every replicate (or fixed-size batch of replicates) of every experiment draws
its randomness from a PCG64DXSM generator keyed by ``(seed, tag, index)``.  The
key is hashed into two 64-bit words, and ``SeedSequence`` expands those words
into the generator's 128-bit state, so distinct keys give statistically
independent streams.  The map from key to output depends on nothing else, so it
is stable across platforms, processes and worker counts.  Workers can therefore
claim batches in any order and still produce bit-identical results: the stream
belongs to the batch index, not to the worker.

This is the only module that builds a random source; every other module takes
the ``numpy.random.Generator`` it returns.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["key_words", "stream"]


def key_words(seed: int, tag: str, index: int = 0) -> np.ndarray:
    """Hash (seed, tag, index) into two 64-bit words, the entropy of one stream."""
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
        Generator backed by PCG64DXSM, seeded by ``SeedSequence`` from
        :func:`key_words` of the arguments.
    """
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(key_words(seed, tag, index))))

"""Deterministic, splittable random streams.

Every stream is a pure function of its path (a tuple of ints/strings/floats):
the path is hashed into a 128-bit Philox key, so bootstrap replicates and
Monte Carlo cells can run in any order, on any number of workers, and still
produce bit-identical draws.  No generator state is ever shared or advanced
across tasks.
"""
from __future__ import annotations

import hashlib

import numpy as np

_SEP = b"\x1f"


def _encode(parts: tuple) -> bytes:
    chunks = []
    for p in parts:
        if isinstance(p, (bool, np.bool_)):
            chunks.append(b"b:%d" % int(p))
        elif isinstance(p, (int, np.integer)):
            chunks.append(b"i:%d" % int(p))
        elif isinstance(p, float):
            chunks.append(b"f:" + repr(p).encode("ascii"))
        elif isinstance(p, str):
            chunks.append(b"s:" + p.encode("utf-8"))
        else:
            raise TypeError(f"unsupported stream path part: {p!r}")
    return _SEP.join(chunks)


def stable_key(*parts) -> int:
    """128-bit integer key derived from a canonical hash of the path."""
    digest = hashlib.sha256(_encode(parts)).digest()
    return int.from_bytes(digest[:16], "little")


def stable_seed(*parts) -> int:
    """Nonnegative 63-bit integer seed derived from the path."""
    return stable_key(*parts) & (2**63 - 1)


def substream(*parts) -> np.random.Generator:
    """Counter-based generator for the given path.

    Philox is counter-based: constructing it from a key is O(1) and streams
    with distinct keys are statistically independent.
    """
    return np.random.Generator(np.random.Philox(key=stable_key(*parts)))


class _PrefixStreams:
    """``substream(*prefix, *suffix)`` for many suffixes of one prefix.

    The prefix is hashed once and the hash state copied per suffix, and every
    stream is one Philox, rekeyed in place: constructing a ``Philox`` seeds a
    throwaway ``SeedSequence`` from OS entropy first, which costs more than
    the draws of a small sample.  A returned generator is valid until the
    next call.  Both prefix and suffix must be non-empty.
    """

    def __init__(self, *prefix):
        self._head = hashlib.sha256(_encode(prefix) + _SEP)
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)

    def __call__(self, *suffix) -> np.random.Generator:
        digest = self._head.copy()
        digest.update(_encode(suffix))
        key = np.frombuffer(digest.digest()[:16], dtype="<u8").astype(np.uint64)
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen

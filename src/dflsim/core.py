"""Core types shared across the simulator.

Everything here is deliberately small: the error types, a role table
describing who is selfish, and a counter-based deterministic RNG.  A bad
config raises ConfigError, a run that cannot go on NumericalDivergence or
EmptyDataset, and any other bad argument a plain ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise, permutations, repeat

import numpy as np


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """A configuration document failed validation."""


class NumericalDivergence(RuntimeError):
    """Local training produced a non-finite loss or model."""


class EmptyDataset(ValueError):
    """A training shard with no examples."""


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoleConfig:
    """Client role table.

    Non-selfish clients take ids ``0 .. n-1``, selfish clients take ids
    ``n .. n+m-1``.  The colluding minority must satisfy ``n + m >= 3m + 1``.

    Attributes:
        n: number of non-selfish clients.
        m: number of selfish clients.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one non-selfish client")
        if self.m < 1:
            raise ValueError("need at least one selfish client")
        if self.total < 3 * self.m + 1:
            raise ValueError(f"n + m = {self.total} violates n + m >= 3m + 1 for m = {self.m}")

    @property
    def total(self) -> int:
        return self.n + self.m


# ---------------------------------------------------------------------------
# deterministic RNG
# ---------------------------------------------------------------------------

# stream tags keep independent parts of a run on disjoint substreams
STREAM_DATA = 0
STREAM_PARTITION = 1
STREAM_TRAIN = 2
STREAM_ATTACK = 3
STREAM_TEST = 4


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), mirrored so that
# one vectorized pass gives the Philox keys of many sibling streams
_MASK32, _MIX_L, _MIX_R = 0xFFFFFFFF, 0xCA01F9DD, 0x4973F715
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


def _words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words (one for 0), as SeedSequence splits it."""
    if value < 0:
        raise ValueError(f"stream path must be non-negative, got {value}")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hash_steps(start: int, mult: int, count: int):
    """The (xor, multiplier) pairs of ``count`` hash steps, which numpy takes whatever the values."""
    return pairwise(accumulate(repeat(mult, count), lambda h, m: h * m & _MASK32, initial=start))


def _hashmix(value, xor, mul):
    return (value := (value ^ xor) * mul & _MASK32) ^ value >> 16


def _mix(x, y):
    return (value := (_MIX_L * x - _MIX_R * y) & _MASK32) ^ value >> 16


def _philox_keys(seed: int, prefix: list[int], ids: np.ndarray) -> np.ndarray:
    """The (len(ids), 2) uint64 keys of ``Philox(SeedSequence(seed, spawn_key=(*prefix, i)))``.

    With ``seed`` in [0, 2**64) and the uint64 ``ids`` below 2**32, each id is the one
    word that differs: the shared words mix once, the id's steps for all ids at once.
    """
    words = (_words(seed) + [0, 0, 0])[:4] + [w for p in prefix for w in _words(p)]
    steps = _hash_steps(_INIT_A, _MULT_A, 4 * len(words) + 4)
    pool = [_hashmix(word, *next(steps)) for word in words[:4]]
    for src, dst in permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    for word in words[4:]:
        pool = [_mix(x, _hashmix(word, *next(steps))) for x in pool]
    # the id word's 4 steps, then generate_state's 4; uint64 holds a product of two words
    xor, mul = np.array([*steps, *_hash_steps(_INIT_B, _MULT_B, 4)], dtype=np.uint64).T[:, :, None]
    pool = _mix(np.array(pool, dtype=np.uint64)[:, None], _hashmix(ids, xor[:4], mul[:4]))
    state = _hashmix(pool, xor[4:], mul[4:])
    return (state[0::2] | state[1::2] << 32).T  # generate_state(2, np.uint64) pairs words little-endian


@dataclass(frozen=True)
class Rng:
    """Counter-based deterministic RNG with derived substreams.

    Built on Philox: the same seed and the same derivation path always
    reproduce the same stream, independent of call order elsewhere.
    """

    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    def stream(self, *path: int) -> np.random.Generator:
        """Generator for the substream identified by ``path`` (e.g. tag, round, client)."""
        key = tuple(int(p) for p in path)
        if any(p < 0 for p in key):
            raise ValueError(f"stream path must be non-negative, got {key}")
        seq = np.random.SeedSequence(self.seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq))

    def reset(self, gens: list[np.random.Generator], *prefix: int) -> list[np.random.Generator]:
        """Re-key each Philox ``gens[i]`` to the fresh state of ``stream(*prefix, i)``; return ``gens``."""
        keys = _philox_keys(self.seed, [int(p) for p in prefix], np.arange(len(gens), dtype=np.uint64))
        for gen, key in zip(gens, keys.tolist()):  # the setter reads Python ints faster than array items
            gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
                                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gens


def check_seed(seed: int, source: str) -> int:
    """``seed``, if :class:`Rng` takes it; else a ConfigError naming ``source``."""
    try:
        return Rng(seed).seed
    except ValueError as exc:  # a seed outside [0, 2**64), which Rng never folds into range
        raise ConfigError(f"{source}: {exc}") from None

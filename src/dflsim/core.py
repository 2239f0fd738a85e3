"""Core types shared across the simulator.

Everything here is deliberately small: the error types, a role table
describing who is selfish, and a counter-based deterministic RNG.  A bad
config raises ConfigError, a run that cannot go on NumericalDivergence or
EmptyDataset, and any other bad argument a plain ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _counter(path: tuple[int, ...]) -> list[int]:
    """The Philox counter ``(0, client, round, tag)`` of the stream at ``path = (tag, round, client)``.

    Word 0 counts Philox's blocks; the path fills words 3, 2, 1, zero-padded.
    """
    words = [int(p) for p in path]
    if len(words) > 3 or not all(0 <= w < 2**64 for w in words):
        raise ValueError(f"stream path must have at most 3 parts, each in [0, 2**64), got {tuple(words)}")
    return [0, *reversed(words + [0] * (3 - len(words)))]


@dataclass(frozen=True)
class Rng:
    """Counter-based deterministic RNG with derived substreams.

    Philox keyed by the seed, one counter per derivation path: the same seed
    and path always reproduce the same stream, independent of call order elsewhere.
    """

    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    def stream(self, *path: int) -> np.random.Generator:
        """Generator for the substream identified by ``path`` (e.g. tag, round, client)."""
        return np.random.Generator(np.random.Philox(key=self.seed, counter=np.array(_counter(path), dtype=np.uint64)))

    def reset(self, gens: list[np.random.Generator], *prefix: int) -> list[np.random.Generator]:
        """Re-key each Philox ``gens[i]`` to the fresh state of ``stream(*prefix, i)``; return ``gens``."""
        key = [self.seed, 0]
        for i, gen in enumerate(gens):
            gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _counter((*prefix, i)), "key": key},
                                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gens


def check_seed(seed: int, source: str) -> int:
    """``seed``, if :class:`Rng` takes it; else a ConfigError naming ``source``."""
    try:
        return Rng(seed).seed
    except ValueError as exc:  # a seed outside [0, 2**64), which Rng never folds into range
        raise ConfigError(f"{source}: {exc}") from None

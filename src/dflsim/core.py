"""Core types shared across the simulator.

Everything here is deliberately small: the error types, a dimension check
of flat float64 model vectors, a role table describing who is selfish, and
a counter-based deterministic RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ThreatModelViolation(ValueError):
    """Role counts that break the colluding-minority assumption."""


class EmptyGroup(ValueError):
    """A role group that must be populated is empty."""


class EmptyInput(ValueError):
    """An aggregation call received no models."""


class DimensionMismatch(ValueError):
    """Model vectors of different lengths were mixed."""


class EmptyAfterTrim(ValueError):
    """Trimming removed every value."""


class TooFewModels(ValueError):
    """Not enough models for the requested selection rule."""


class ZeroReference(ValueError):
    """A reference model with zero norm cannot anchor trust scores."""


class InvalidBounds(ValueError):
    """Interval with lower > upper."""


class NotSorted(ValueError):
    """A sequence that must be sorted in descending order is not."""


class IndexOutOfRange(ValueError):
    """Too few benign values for the requested selfish count."""


class OutOfBounds(ValueError):
    """A crafting target outside the reachable interval."""


class NumericalDivergence(RuntimeError):
    """Local training produced a non-finite loss or model."""


class DegenerateDenominator(ValueError):
    """A crafting denominator too close to zero to divide by."""


class NonMonotonicRound(ValueError):
    """Detector rounds must advance one at a time."""


class EmptyDataset(ValueError):
    """A training shard with no examples."""


class EmptyTestSet(ValueError):
    """An evaluation set with no examples."""


class ConfigError(ValueError):
    """A configuration document failed validation."""


# ---------------------------------------------------------------------------
# model vectors
# ---------------------------------------------------------------------------

def check_same_dimension(models: Iterable[np.ndarray]) -> int:
    """Return the common length of the given vectors or raise."""
    dims = {int(m.shape[-1]) for m in models}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed model dimensions: {sorted(dims)}")
    if not dims:
        raise EmptyInput("no models given")
    return dims.pop()


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
            raise EmptyGroup("need at least one non-selfish client")
        if self.m < 1:
            raise EmptyGroup("need at least one selfish client")
        if self.total < 3 * self.m + 1:
            raise ThreatModelViolation(
                f"n + m = {self.total} violates n + m >= 3m + 1 for m = {self.m}"
            )

    @property
    def total(self) -> int:
        return self.n + self.m

    def is_selfish(self, client_id: int) -> bool:
        if not 0 <= client_id < self.total:
            raise ValueError(f"client id {client_id} out of range 0..{self.total - 1}")
        return client_id >= self.n

    @property
    def non_selfish_ids(self) -> range:
        return range(self.n)

    @property
    def selfish_ids(self) -> range:
        return range(self.n, self.total)


# ---------------------------------------------------------------------------
# deterministic RNG
# ---------------------------------------------------------------------------

# stream tags keep independent parts of a run on disjoint substreams
STREAM_DATA = 0
STREAM_PARTITION = 1
STREAM_TRAIN = 2
STREAM_ATTACK = 3
STREAM_TEST = 4


@dataclass(frozen=True)
class Rng:
    """Counter-based deterministic RNG with derived substreams.

    Built on Philox: the same seed and the same derivation path always
    reproduce the same stream, independent of call order elsewhere.
    """

    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & 0xFFFFFFFFFFFFFFFF)

    def stream(self, *path: int) -> np.random.Generator:
        """Generator for the substream identified by ``path`` (e.g. tag, round, client)."""
        key = tuple(int(p) for p in path)
        if any(p < 0 for p in key):
            raise ValueError(f"stream path must be non-negative, got {key}")
        seq = np.random.SeedSequence(self.seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq))

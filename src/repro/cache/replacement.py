"""Replacement policies for the set-associative cache model.

Victim selection always receives the subset of ways the requesting QoS class
may allocate into (way-based partitioning, Section II-B), so policies never
need to know about partitions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.sim.rng import Generator

__all__ = ["LruPolicy", "RandomPolicy", "ReplacementPolicy", "make_policy"]


class ReplacementPolicy(ABC):
    """Chooses a victim way and tracks recency metadata."""

    @abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """Record a hit or fill touching ``way`` of ``set_index``."""

    @abstractmethod
    def victim(self, set_index: int, candidate_ways: Sequence[int]) -> int:
        """Pick the way to evict among ``candidate_ways`` (all valid)."""


class LruPolicy(ReplacementPolicy):
    """True LRU via per-line last-access stamps.

    Stamps live in plain nested lists: ``on_access`` runs once per cache
    hit and fill, where a numpy scalar store costs an order of magnitude
    more than a list item assignment.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        self._stamps: list[list[int]] = [[0] * assoc for _ in range(num_sets)]
        self._clock = 0

    def on_access(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock

    def victim(self, set_index: int, candidate_ways: Sequence[int]) -> int:
        stamps = self._stamps[set_index]
        best = candidate_ways[0]
        best_stamp = stamps[best]
        for way in candidate_ways:
            stamp = stamps[way]
            if stamp < best_stamp:
                best = way
                best_stamp = stamp
        return best


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim; useful as a property-test foil for LRU."""

    def __init__(self, num_sets: int, assoc: int, seed: int = 0) -> None:
        self._rng = Generator(seed)

    def on_access(self, set_index: int, way: int) -> None:  # noqa: ARG002
        return None

    def victim(self, set_index: int, candidate_ways: Sequence[int]) -> int:
        return candidate_ways[self._rng.integers(len(candidate_ways))]


def make_policy(name: str, num_sets: int, assoc: int, seed: int = 0) -> ReplacementPolicy:
    """Factory used by :class:`repro.cache.cache.SetAssociativeCache`."""
    if name == "lru":
        return LruPolicy(num_sets, assoc)
    if name == "random":
        return RandomPolicy(num_sets, assoc, seed)
    raise ValueError(f"unknown replacement policy {name!r}")

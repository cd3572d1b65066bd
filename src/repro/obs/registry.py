"""Counter/gauge registry hung off :class:`~repro.sim.system.System`.

Components do not push samples into the registry; they register a
*provider* — an ``(object, attribute)`` pair — once at build time, and
the registry reads the attribute when someone asks for a snapshot.
This keeps the contract in DESIGN.md §8: the simulation hot paths are
byte-identical whether or not anyone ever samples, because the counters
are the plain instance attributes the components maintain anyway.

Providers are deliberately *not* callables: an ``(obj, attr)`` pair
names exactly the attribute a snapshot reads, it cannot capture hidden
state the way a closure can, and it pickles where a lambda cannot.

For code that has no natural attribute home (the runner's warning
counters), :meth:`Registry.counter` mints an owned :class:`ObsCounter`;
a disabled registry hands back the shared no-op :data:`NULL_COUNTER`
so call sites never branch.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["NULL_COUNTER", "ObsCounter", "Registry"]


class ObsCounter:
    """A registry-owned monotonic counter (``value`` only ever grows)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObsCounter({self.name}={self.value})"


class _NullCounter:
    """Shared no-op counter bound by disabled registries."""

    __slots__ = ()

    name = "<null>"
    value = 0

    def add(self, amount: int = 1) -> None:
        pass


NULL_COUNTER = _NullCounter()


class Registry:
    """Named counters and gauges over live component state.

    * **Counters** are monotonic (requests accepted, tokens stalled,
      deadline inversions) — suitable for rate computation between two
      snapshots.
    * **Gauges** are instantaneous levels (queue depth, outstanding
      MSHRs, the governor's multiplier).

    Names are dotted paths (``mc0.queue_depth``, ``pacer.c3.released``)
    and must be unique within one registry.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # name -> (obj, attr) provider; insertion order is report order
        self._counters: dict[str, tuple[Any, str]] = {}
        self._gauges: dict[str, tuple[Any, str]] = {}
        self._owned: dict[str, ObsCounter] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _register(
        self, table: dict[str, tuple[Any, str]], name: str, obj: Any, attr: str
    ) -> None:
        if name in self._counters or name in self._gauges:
            raise ValueError(f"metric {name!r} is already registered")
        if not hasattr(obj, attr):
            raise AttributeError(
                f"metric {name!r}: {type(obj).__name__} has no attribute {attr!r}"
            )
        table[name] = (obj, attr)

    def register_counter(self, name: str, obj: Any, attr: str) -> None:
        """Expose ``getattr(obj, attr)`` as the monotonic counter ``name``."""
        self._register(self._counters, name, obj, attr)

    def register_gauge(self, name: str, obj: Any, attr: str) -> None:
        """Expose ``getattr(obj, attr)`` as the gauge ``name``."""
        self._register(self._gauges, name, obj, attr)

    def counter(self, name: str) -> ObsCounter | _NullCounter:
        """An owned, mutable counter (idempotent per name).

        Disabled registries return the shared :data:`NULL_COUNTER`, so
        hot call sites stay unconditional ``counter.add()`` calls.
        """
        if not self.enabled:
            return NULL_COUNTER
        owned = self._owned.get(name)
        if owned is None:
            owned = ObsCounter(name)
            self._register(self._counters, name, owned, "value")
            self._owned[name] = owned
        return owned

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    @staticmethod
    def _sample(table: dict[str, tuple[Any, str]]) -> dict[str, int | float]:
        return {name: getattr(obj, attr) for name, (obj, attr) in table.items()}

    def counters(self) -> dict[str, int | float]:
        """Current value of every registered counter."""
        return self._sample(self._counters)

    def gauges(self) -> dict[str, int | float]:
        """Current value of every registered gauge."""
        return self._sample(self._gauges)

    def snapshot(self) -> dict[str, dict[str, int | float]]:
        """One JSON-able sample of everything registered."""
        return {"counters": self.counters(), "gauges": self.gauges()}

    def names(self) -> Iterator[str]:
        yield from self._counters
        yield from self._gauges

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

    def __contains__(self, name: str) -> bool:
        return name in self._counters or name in self._gauges

"""Synthetic proxies for the SPEC CPU2006 workloads the paper evaluates.

We cannot execute SPEC binaries inside a pure-Python model, so each workload
is replaced by a parameterized generator whose memory behaviour matches the
qualitative characterization that matters to PABST (DESIGN.md §4):

* **memory-level parallelism** (``contexts``) — how many misses can overlap,
  which decides whether the workload is bandwidth- or latency-bound;
* **inter-miss compute** (``mean_gap``) — cycles of work between misses;
* **write fraction** — dirty-line production, hence writeback bandwidth;
* **address regularity** (``random_fraction``) — streaming vs pointer-heavy,
  which decides how schedulable the request stream is at the controller;
* **working set** — whether the L3 partition filters traffic.

The eight entries below are the subset the paper runs: workloads that can
saturate memory bandwidth when running on all cores (Section IV-A).
Parameters are hand-calibrated to the usual characterization of these
benchmarks (e.g. libquantum/lbm streaming, mcf irregular and latency-bound,
sphinx3/omnetpp low-MLP latency-sensitive).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.base import Access, Workload

__all__ = ["SPEC_PROFILES", "SpecProfile", "SpecProxyWorkload", "spec_workload"]


@dataclass(frozen=True, slots=True)
class SpecProfile:
    """Tunable knobs describing one SPEC proxy.

    ``phase_cycles``/``duty`` model the coarse program phases real SPEC
    workloads exhibit: for a ``duty`` fraction of each phase period the
    workload runs at its configured memory intensity, and for the rest it
    is compute-heavy (inter-miss gaps stretched by ``LOW_PHASE_GAP_FACTOR``).
    Phases are what make consolidation profitable for a work-conserving
    allocator (Fig. 11): classes rarely demand their full share at once.
    """

    name: str
    contexts: int
    mean_gap: float
    write_fraction: float
    random_fraction: float
    working_set_bytes: int
    instructions_per_access: int
    phase_cycles: int = 0
    duty: float = 1.0

    def __post_init__(self) -> None:
        if self.contexts <= 0:
            raise ValueError("contexts must be positive")
        if self.mean_gap < 0:
            raise ValueError("mean_gap must be non-negative")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.random_fraction <= 1.0:
            raise ValueError("random_fraction must be in [0, 1]")
        if self.working_set_bytes < 4096:
            raise ValueError("working_set_bytes too small")
        if self.phase_cycles < 0:
            raise ValueError("phase_cycles must be non-negative")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")


# Gap multiplier applied during the compute-heavy part of a phase period.
LOW_PHASE_GAP_FACTOR = 10

SPEC_PROFILES: dict[str, SpecProfile] = {
    # streaming FDTD stencil sweeps: high MLP, mild irregularity
    "GemsFDTD": SpecProfile(
        name="GemsFDTD", contexts=10, mean_gap=6, write_fraction=0.25,
        random_fraction=0.10, working_set_bytes=96 << 20, instructions_per_access=8,
        phase_cycles=40_000, duty=0.75,
    ),
    # lattice Boltzmann: streaming with heavy stores
    "lbm": SpecProfile(
        name="lbm", contexts=12, mean_gap=4, write_fraction=0.45,
        random_fraction=0.05, working_set_bytes=128 << 20, instructions_per_access=6,
        phase_cycles=30_000, duty=0.80,
    ),
    # pure streaming reads, the most bandwidth-bound of the set
    "libquantum": SpecProfile(
        name="libquantum", contexts=16, mean_gap=2, write_fraction=0.10,
        random_fraction=0.00, working_set_bytes=64 << 20, instructions_per_access=5,
        phase_cycles=50_000, duty=0.85,
    ),
    # pointer-heavy graph traversal: low MLP, random, hard to schedule
    "mcf": SpecProfile(
        name="mcf", contexts=5, mean_gap=8, write_fraction=0.15,
        random_fraction=0.90, working_set_bytes=192 << 20, instructions_per_access=6,
        phase_cycles=60_000, duty=0.70,
    ),
    # lattice QCD: strided sweeps with some indirection
    "milc": SpecProfile(
        name="milc", contexts=9, mean_gap=6, write_fraction=0.30,
        random_fraction=0.25, working_set_bytes=96 << 20, instructions_per_access=7,
        phase_cycles=40_000, duty=0.70,
    ),
    # discrete-event simulator: irregular heap walks, latency-sensitive
    "omnetpp": SpecProfile(
        name="omnetpp", contexts=3, mean_gap=14, write_fraction=0.20,
        random_fraction=0.80, working_set_bytes=48 << 20, instructions_per_access=10,
        phase_cycles=30_000, duty=0.60,
    ),
    # sparse LP solver: mixed streaming/indirect
    "soplex": SpecProfile(
        name="soplex", contexts=7, mean_gap=8, write_fraction=0.15,
        random_fraction=0.40, working_set_bytes=96 << 20, instructions_per_access=8,
        phase_cycles=40_000, duty=0.70,
    ),
    # speech recognition: low MLP, mostly reads, latency-sensitive
    "sphinx3": SpecProfile(
        name="sphinx3", contexts=3, mean_gap=10, write_fraction=0.05,
        random_fraction=0.50, working_set_bytes=32 << 20, instructions_per_access=12,
        phase_cycles=30_000, duty=0.65,
    ),
}


class SpecProxyWorkload(Workload):
    """Access-stream generator parameterized by a :class:`SpecProfile`."""

    def __init__(self, profile: SpecProfile) -> None:
        super().__init__()
        self.profile = profile
        self.name = f"spec.{profile.name}"
        self.contexts = profile.contexts
        self._lines = profile.working_set_bytes // 64
        self._cursor = 0
        self._phase_offset = 0

    def on_bind(self) -> None:
        # desynchronize phases across cores/instances
        if self.profile.phase_cycles > 0:
            self._phase_offset = self.rng.integers(self.profile.phase_cycles)

    def in_memory_phase(self, now: int) -> bool:
        """True while the workload runs at full memory intensity."""
        profile = self.profile
        if profile.phase_cycles <= 0:
            return True
        position = (now + self._phase_offset) % profile.phase_cycles
        return position < profile.duty * profile.phase_cycles

    def _sample_gap(self) -> int:
        mean = self.profile.mean_gap
        if not self.in_memory_phase(self.now):
            mean = max(1.0, mean) * LOW_PHASE_GAP_FACTOR
        if mean <= 0:
            return 0
        # geometric with the requested mean, shifted so gap 0 is possible
        return self.rng.geometric(1.0 / (mean + 1.0)) - 1

    def next_access(self, context: int) -> Access | None:
        profile = self.profile
        if profile.random_fraction > 0 and self.rng.random() < profile.random_fraction:
            line = self.rng.integers(self._lines)
        else:
            line = self._cursor % self._lines
            self._cursor += 1
        is_write = (
            profile.write_fraction > 0
            and self.rng.random() < profile.write_fraction
        )
        return Access(
            addr=self.base_addr + line * 64,
            is_write=is_write,
            gap=self._sample_gap(),
            instructions=profile.instructions_per_access,
        )


def spec_workload(name: str) -> SpecProxyWorkload:
    """Factory by benchmark name (the eight the paper evaluates)."""
    try:
        profile = SPEC_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(SPEC_PROFILES))
        raise KeyError(f"unknown SPEC workload {name!r}; known: {known}") from None
    return SpecProxyWorkload(profile)

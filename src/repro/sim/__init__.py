"""Simulation kernel: engine, records, stats, topology, config, system.

Re-exports resolve on first access (:mod:`repro._lazy`), so importing one
kernel module does not import the rest (the sanitizer only loads when a
run asks for it).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig
    from repro.sim.engine import Engine, Event, SimulationError
    from repro.sim.mechanism import QoSMechanism
    from repro.sim.records import AccessType, MemoryRequest
    from repro.sim.sanitizer import SimSanitizer
    from repro.sim.stats import ClassStats, EpochSample, Stats

__all__ = [
    "AccessType", "ClassStats", "Engine", "EpochSample", "Event",
    "MemoryRequest", "QoSMechanism", "SimSanitizer", "SimulationError",
    "Stats", "SystemConfig",
]

__getattr__ = lazy_exports(__name__, {
    "repro.sim.config": ["SystemConfig"],
    "repro.sim.engine": ["Engine", "Event", "SimulationError"],
    "repro.sim.mechanism": ["QoSMechanism"],
    "repro.sim.records": ["AccessType", "MemoryRequest"],
    "repro.sim.sanitizer": ["SimSanitizer"],
    "repro.sim.stats": ["ClassStats", "EpochSample", "Stats"],
})

"""Reproduction of *PABST: Proportionally Allocated Bandwidth at the Source
and Target* (Hower, Cain, Waldspurger - HPCA 2017).

The package provides a discrete-event model of a tiled many-core SoC
(cores, private L2s, a shared way-partitioned L3, and DDR memory
controllers) plus the PABST bandwidth-QoS mechanism and the baselines the
paper compares against.  Quick start::

    from repro import (
        PabstMechanism, QoSRegistry, StreamWorkload, System, SystemConfig,
    )

    config = SystemConfig.default_experiment(cores=8, num_mcs=2)
    registry = QoSRegistry()
    registry.define_class(0, "high", weight=3, l3_ways=8)
    registry.define_class(1, "low", weight=1, l3_ways=8)
    for core in range(8):
        registry.assign_core(core, 0 if core < 4 else 1)

    workloads = {core: StreamWorkload() for core in range(8)}
    system = System(config, registry, workloads, mechanism=PabstMechanism())
    system.run_epochs(50)
    system.finalize()
    print(system.stats.bandwidth_share(0))   # ~0.75

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for measured
reproductions of every figure.  The names above resolve on first access
(:mod:`repro._lazy`): ``import repro`` alone imports no simulator code.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.none import NoQosMechanism
    from repro.baselines.source_only import SourceOnlyMechanism
    from repro.baselines.target_only import TargetOnlyMechanism
    from repro.core.config import PabstConfig
    from repro.core.pabst import PabstMechanism
    from repro.dram.timing import DramTiming, PagePolicy
    from repro.qos.classes import QoSClass, QoSRegistry
    from repro.qos.monitor import BandwidthMonitor
    from repro.qos.shares import proportional_shares, strides_for_weights
    from repro.sim.config import SystemConfig
    from repro.sim.engine import Engine
    from repro.sim.mechanism import QoSMechanism
    from repro.sim.stats import Stats
    from repro.sim.system import System
    from repro.workloads.base import Access, Workload
    from repro.workloads.chaser import ChaserWorkload
    from repro.workloads.memcached import MemcachedWorkload
    from repro.workloads.periodic import PeriodicStreamWorkload
    from repro.workloads.spec import SPEC_PROFILES, SpecProxyWorkload, spec_workload
    from repro.workloads.stream import StreamWorkload, l3_resident_stream

__version__ = "1.0.0"

__all__ = [
    "Access",
    "BandwidthMonitor",
    "ChaserWorkload",
    "DramTiming",
    "Engine",
    "MemcachedWorkload",
    "NoQosMechanism",
    "PabstConfig",
    "PabstMechanism",
    "PagePolicy",
    "PeriodicStreamWorkload",
    "QoSClass",
    "QoSMechanism",
    "QoSRegistry",
    "SPEC_PROFILES",
    "SourceOnlyMechanism",
    "SpecProxyWorkload",
    "Stats",
    "StreamWorkload",
    "System",
    "SystemConfig",
    "TargetOnlyMechanism",
    "Workload",
    "l3_resident_stream",
    "proportional_shares",
    "spec_workload",
    "strides_for_weights",
    "__version__",
]

__getattr__ = lazy_exports(__name__, {
    "repro.baselines.none": ["NoQosMechanism"],
    "repro.baselines.source_only": ["SourceOnlyMechanism"],
    "repro.baselines.target_only": ["TargetOnlyMechanism"],
    "repro.core.config": ["PabstConfig"],
    "repro.core.pabst": ["PabstMechanism"],
    "repro.dram.timing": ["DramTiming", "PagePolicy"],
    "repro.qos.classes": ["QoSClass", "QoSRegistry"],
    "repro.qos.monitor": ["BandwidthMonitor"],
    "repro.qos.shares": ["proportional_shares", "strides_for_weights"],
    "repro.sim.config": ["SystemConfig"],
    "repro.sim.engine": ["Engine"],
    "repro.sim.mechanism": ["QoSMechanism"],
    "repro.sim.stats": ["Stats"],
    "repro.sim.system": ["System"],
    "repro.workloads.base": ["Access", "Workload"],
    "repro.workloads.chaser": ["ChaserWorkload"],
    "repro.workloads.memcached": ["MemcachedWorkload"],
    "repro.workloads.periodic": ["PeriodicStreamWorkload"],
    "repro.workloads.spec": ["SPEC_PROFILES", "SpecProxyWorkload", "spec_workload"],
    "repro.workloads.stream": ["StreamWorkload", "l3_resident_stream"],
})

#!/usr/bin/env python3
"""Performance isolation: protect a latency-critical service from a noisy
neighbour (the Fig. 10 scenario at example scale).

A high-priority SPEC-proxy workload shares the machine with a streaming
aggressor at a 32:1 bandwidth share.  The script reports the weighted
slowdown of the protected class, relative to running alone, for each QoS
mechanism.

Run:  python examples/performance_isolation.py [--workload mcf] [--epochs 80]
"""

import argparse

from repro import SPEC_PROFILES, StreamWorkload, spec_workload
from repro.analysis.metrics import weighted_slowdown
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.mechanisms import make_mechanism

PROTECTED_CORES = 4
AGGRESSOR_CORES = 4


def per_core_ipcs(system, cores):
    return [system.cores[c].instructions / system.engine.now for c in cores]


def run_isolated(workload: str, epochs: int) -> list[float]:
    specs = [
        ClassSpec(0, workload, weight=32, cores=PROTECTED_CORES,
                  workload_factory=lambda: spec_workload(workload), l3_ways=8)
    ]
    system = build_system(specs)
    run_system(system, epochs=epochs, warmup_epochs=1)
    return per_core_ipcs(system, range(PROTECTED_CORES))


def run_shared(workload: str, mechanism: str, epochs: int) -> list[float]:
    specs = [
        ClassSpec(0, workload, weight=32, cores=PROTECTED_CORES,
                  workload_factory=lambda: spec_workload(workload), l3_ways=8),
        ClassSpec(1, "aggressor", weight=1, cores=AGGRESSOR_CORES,
                  workload_factory=StreamWorkload, l3_ways=8),
    ]
    system = build_system(specs, mechanism=make_mechanism(mechanism))
    run_system(system, epochs=epochs, warmup_epochs=1)
    return per_core_ipcs(system, range(PROTECTED_CORES))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", default="sphinx3", choices=sorted(SPEC_PROFILES),
        help="protected SPEC-proxy workload (default: sphinx3)",
    )
    parser.add_argument("--epochs", type=int, default=80)
    args = parser.parse_args()

    print(f"Protected workload: {args.workload} (32:1 share vs streamer)\n")
    isolated = run_isolated(args.workload, args.epochs)
    print(f"{'mechanism':<14} {'weighted slowdown':>18}")
    print("-" * 34)
    for mechanism in ("none", "source-only", "target-only", "pabst"):
        shared = run_shared(args.workload, mechanism, args.epochs)
        slowdown = weighted_slowdown(isolated, shared)
        bar = "#" * round((slowdown - 1.0) * 20)
        print(f"{mechanism:<14} {slowdown:>8.2f}x  {bar}")
    print("\n1.00x means full isolation; the streaming neighbour costs the")
    print("unprotected run its queueing headroom, and PABST wins it back.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""memcached co-location: kill the tail latency a noisy neighbour causes
(the Fig. 9 scenario at example scale).

A single memcached server thread (high priority, 20:1 share) is co-located
with streaming aggressors.  The script prints the transaction service-time
distribution for: the server alone, co-located without QoS, and co-located
under PABST.

Run:  python examples/memcached_colocation.py [--epochs 150]
"""

import argparse

from repro import MemcachedWorkload, StreamWorkload
from repro.analysis.metrics import percentile
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.mechanisms import make_mechanism


def run_config(label: str, mechanism: str | None, with_stream: bool, epochs: int):
    memcached = MemcachedWorkload(transactions=None, warmup_transactions=50)
    specs = [
        ClassSpec(0, "memcached", weight=20, cores=1,
                  workload_factory=lambda: memcached, l3_ways=8)
    ]
    if with_stream:
        specs.append(
            ClassSpec(1, "stream", weight=1, cores=4,
                      workload_factory=StreamWorkload, l3_ways=8)
        )
    system = build_system(
        specs, mechanism=make_mechanism(mechanism) if mechanism else None
    )
    run_system(system, epochs=epochs, warmup_epochs=1)
    return label, memcached.service_times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=150)
    args = parser.parse_args()

    runs = [
        run_config("isolated", None, with_stream=False, epochs=args.epochs),
        run_config("co-located, no QoS", "none", with_stream=True, epochs=args.epochs),
        run_config("co-located, PABST", "pabst", with_stream=True, epochs=args.epochs),
    ]

    print("memcached GET service times (cycles), 20:1 share vs streamer\n")
    print(f"{'configuration':<22} {'txns':>5} {'mean':>8} {'p50':>8} "
          f"{'p95':>8} {'p99':>8}")
    print("-" * 64)
    baseline_mean = None
    for label, samples in runs:
        mean = sum(samples) / len(samples) if samples else 0.0
        if baseline_mean is None:
            baseline_mean = mean
        print(f"{label:<22} {len(samples):>5} {mean:>8.0f} "
              f"{percentile(samples, 50):>8.0f} {percentile(samples, 95):>8.0f} "
              f"{percentile(samples, 99):>8.0f}")
    print("\nWithout QoS the streamer's queue pressure stretches both the")
    print("mean and the p99 tail; PABST's arbiter keeps the server's reads")
    print("at the head of the controller queue and restores the distribution.")


if __name__ == "__main__":
    main()

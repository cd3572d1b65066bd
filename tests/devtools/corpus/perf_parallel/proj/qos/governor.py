"""Seeded PERF004 violations: worker pools inside simulation code.

The corpus harness lints each case's ``proj`` tree as if it were the
``repro`` package, so ``qos/governor.py`` here is subject to the same
confinement rules as the real governor: process parallelism belongs in
``runner/``, never next to the epoch control loop.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor


def recompute_shares(signals):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(sum, signals))


def spawn_sampler(target):
    proc = multiprocessing.Process(target=target)
    proc.start()
    return proc

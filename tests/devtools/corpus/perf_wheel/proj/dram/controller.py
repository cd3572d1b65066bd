"""Seeded PERF002 violations: model code reaching into the wheel.

The corpus harness lints each case's ``proj`` tree as if it were the
``repro`` package, so ``dram/controller.py`` here is subject to the same
confinement rules as the real controller: only ``sim/engine.py`` knows
the bucket layout, and everything else schedules through the engine.
"""

from repro.sim.engine import _WHEEL_MASK, Engine
from ..sim.engine import _WHEEL_SIZE


def arm_pass(engine: Engine, when: int, callback, token: int) -> None:
    if when < engine.now + _WHEEL_SIZE:
        engine._wheel[when & _WHEEL_MASK].append((callback, (token,)))
    else:
        engine.post_at(when, callback, token)

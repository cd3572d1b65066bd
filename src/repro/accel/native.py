"""Native event-kind registration for the compiled wheel core.

The C extension executes a closed set of hot callbacks ("native
kinds") without re-entering the interpreter.  The extension only knows
kind *tags*; this module binds each tag to the concrete Python
function/class pair at load time and hands the table to
``_wheelcore._install_kinds`` together with the helper objects the C
handlers need (sort keys, the ``deque`` type, the exact ``Stats`` /
``ClassStats`` / ``Bank`` / ``DataBus`` classes used for type guards).

The set of tags is governed by :data:`NATIVE_KERNELS` below; the
handshake refuses to install a table that disagrees with it, and
analyzer rule HOT006 checks the same manifest (extracted statically
from this file) against the ``repro: native-kernel`` source markers.
Growing the mirrored set is therefore always a three-sided change: C
handler, manifest entry, source marker.
"""

from __future__ import annotations

from repro._sha256 import sha256

__all__ = [
    "NATIVE_KERNELS",
    "install_native_kinds",
    "manifest_digest",
    "native_kinds",
]


#: The committed native-mirror inventory: callbacks the compiled wheel
#: core executes in C without re-entering the interpreter.  Keys are
#: qualnames; values are the kind tags the C extension registers via
#: ``_install_kinds``.  Kept a plain dict literal so HOT006 can read it
#: without importing the package.
NATIVE_KERNELS: dict[str, str] = {
    "repro.core.pacer.Pacer._release_head": "pacer_release_head",
    "repro.dram.controller.MemoryController._run_pass": "mc_run_pass",
    "repro.dram.controller.MemoryController._complete": "mc_complete",
    "repro.dram.controller.MemoryController._complete_fused": "mc_complete_fused",
    "repro.sim.system.System._deliver": "sys_deliver",
    "repro.sim.system.System._pump_mc": "sys_pump_mc",
    "repro.sim.system.System._enqueue_response": "sys_enqueue_response",
    "repro.sim.system.System._flush_responses": "sys_flush_responses",
    "repro.sim.system.System._on_mc_space": "sys_on_mc_space",
    "repro.core.arbiter.PriorityArbiter.on_accept": "mc_policy_on_accept",
    "repro.core.arbiter.PriorityArbiter.pick": "mc_policy_pick",
}


def native_kinds() -> dict[str, str]:
    """qualname -> kind tag, as committed in :data:`NATIVE_KERNELS`."""
    return dict(NATIVE_KERNELS)


def manifest_digest() -> str:
    """Stable digest of the native-kind inventory.

    Folded into the build fingerprint so a manifest change (new kind,
    renamed tag) invalidates cached extension builds whose registered
    table would no longer match.
    """
    payload = "\n".join(f"{qual}={kind}" for qual, kind in sorted(NATIVE_KERNELS.items()))
    return sha256(payload.encode("utf-8")).hexdigest()[:16]


def install_native_kinds(core) -> None:
    """Register the (function, exact class) table with a loaded core."""
    from collections import deque

    from repro.accel import AccelUnavailable
    from repro.core.arbiter import PriorityArbiter
    from repro.core.pacer import Pacer
    from repro.dram.bank import Bank
    from repro.dram.channel import DataBus
    from repro.dram.controller import MemoryController
    from repro.sim.stats import ClassStats, Stats
    from repro.sim.system import _BY_KEY, _BY_NOC_SEQ, System

    kinds = {
        "pacer_release_head": (Pacer._release_head, Pacer),
        "mc_run_pass": (MemoryController._run_pass, MemoryController),
        "mc_complete": (MemoryController._complete, MemoryController),
        "mc_complete_fused": (MemoryController._complete_fused, MemoryController),
        "sys_deliver": (System._deliver, System),
        "sys_pump_mc": (System._pump_mc, System),
        "sys_enqueue_response": (System._enqueue_response, System),
        "sys_flush_responses": (System._flush_responses, System),
        # Synchronous mirrors: recognized at their C call sites (listener
        # fan-out, arbiter pick/accept), not via wheel dispatch.
        "sys_on_mc_space": (System._on_mc_space, System),
        "mc_policy_on_accept": (PriorityArbiter.on_accept, PriorityArbiter),
        "mc_policy_pick": (PriorityArbiter.pick, PriorityArbiter),
    }
    declared = set(NATIVE_KERNELS.values())
    if set(kinds) != declared:
        missing = sorted(declared - set(kinds))
        extra = sorted(set(kinds) - declared)
        raise AccelUnavailable(
            "native kind table disagrees with the NATIVE_KERNELS manifest "
            f"(missing={missing}, unregistered={extra}); update "
            "NATIVE_KERNELS and the kind table in repro.accel.native "
            "together"
        )
    helpers = {
        "bank": Bank,
        "databus": DataBus,
        "stats": Stats,
        "class_stats": ClassStats,
        "deque": deque,
        "by_key": _BY_KEY,
        "by_noc_seq": _BY_NOC_SEQ,
    }
    core._install_kinds(kinds, helpers)

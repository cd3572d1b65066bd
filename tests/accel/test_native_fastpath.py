"""Native fast-path coverage, counters, and forced-miss parity.

The compiled wheel core recognizes a closed set of hot callbacks and
runs them in C.  These tests pin the three contracts that make that
safe to ship: coverage (quick fig05 dispatches ≥90% natively), counter
and trace parity between the backends, and graceful degradation — a
subclassed component fails the exact-class guard, falls back to the
Python callback, and the simulation stays byte-identical anyway.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.core.pabst import PabstMechanism
from repro.core.pacer import Pacer
from repro.dram.controller import MemoryController
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.stream import StreamWorkload


def _payload(figure: str, backend: str) -> dict:
    return {
        "figure": figure,
        "quick": True,
        "backend": backend,
        "cell": {},
        "seed": 0,
    }


def _build_system(system_cls=System, epochs: int = 4) -> System:
    config = SystemConfig.default_experiment(cores=4, num_mcs=2)
    registry = QoSRegistry()
    registry.define_class(0, "hi", weight=3, l3_ways=8)
    registry.define_class(1, "lo", weight=1, l3_ways=8)
    workloads = {}
    for core in range(4):
        registry.assign_core(core, 0 if core < 2 else 1)
        workloads[core] = StreamWorkload()
    system = system_cls(config, registry, workloads, mechanism=PabstMechanism())
    system.run_epochs(epochs)
    system.finalize()
    return system


# ----------------------------------------------------------------------
# coverage + byte identity on the quick figure runs
# ----------------------------------------------------------------------
def _execute_counted(figure: str, backend: str) -> tuple[dict, dict]:
    """Run one quick figure; return its outcome and the fast-path delta.

    The extension's counters are process-global, so the delta around the
    call isolates this run's dispatch coverage.
    """
    from repro.runner.worker import execute_payload

    before = accel.fastpath_stats()
    out = execute_payload(_payload(figure, backend))
    after = accel.fastpath_stats()
    delta = {key: after[key] - before[key] for key in ("hits", "misses")}
    delta["kinds"] = {
        tag: count - before["kinds"].get(tag, 0)
        for tag, count in after["kinds"].items()
    }
    return out, delta


def test_fig05_quick_byte_identical_with_high_hit_rate(c_backend):
    c_out, fastpath = _execute_counted("fig05", "c")
    pure_out, pure_fastpath = _execute_counted("fig05", "pure")
    assert c_out["ok"] and pure_out["ok"]
    assert c_out["report"] == pure_out["report"]
    # the pure backend moves no native counter
    assert pure_fastpath["hits"] == pure_fastpath["misses"] == 0
    assert not any(pure_fastpath["kinds"].values())
    hits, misses = fastpath["hits"], fastpath["misses"]
    assert hits / (hits + misses) >= 0.90
    # the dominant dispatch kinds and the synchronous mirrors all fire
    kinds = fastpath["kinds"]
    assert kinds["mc_run_pass"] > 0
    assert kinds["pacer_release_head"] > 0
    assert kinds["sys_pump_mc"] > 0
    assert kinds["mc_policy_pick"] > 0
    assert kinds["mc_policy_on_accept"] > 0
    assert kinds["sys_on_mc_space"] > 0


# ----------------------------------------------------------------------
# obs registry parity
# ----------------------------------------------------------------------
def test_obs_registry_parity_between_backends(c_backend):
    snaps = {}
    for name in ("pure", "c"):
        with accel.backend(name):
            system = _build_system()
        snap = system.obs.snapshot()
        accel_counters = {
            key: value
            for key, value in snap["counters"].items()
            if key.startswith("accel.")
        }
        rest = {
            section: {
                key: value
                for key, value in values.items()
                if not key.startswith("accel.")
            }
            for section, values in snap.items()
        }
        snaps[name] = (accel_counters, rest)
    # identical registries modulo the backend-diagnostic accel.* counters
    assert snaps["pure"][1] == snaps["c"][1]
    assert snaps["pure"][0]["accel.fastpath_hits"] == 0
    assert snaps["pure"][0]["accel.fastpath_misses"] == 0
    assert snaps["c"][0]["accel.fastpath_hits"] > 0


# ----------------------------------------------------------------------
# Chrome-trace parity on quick fig05
# ----------------------------------------------------------------------
def _normalized_trace(document: dict) -> str:
    """Canonical JSON with request ids rebased to the run's first id.

    Request ids are process-global and never reset, so two figure runs
    in one process are offset by a constant; the per-run *sequence* is
    what determinism guarantees.
    """
    events = document["traceEvents"]
    req_ids = [
        event["args"]["req"]
        for event in events
        if "req" in event.get("args", {})
    ]
    base = min(req_ids, default=0)
    for event in events:
        if "req" in event.get("args", {}):
            event["args"]["req"] -= base
    return json.dumps(document, sort_keys=True)


def test_fig05_chrome_trace_parity(c_backend):
    from repro.experiments.common import traced
    from repro.obs.trace import RequestTracer
    from repro.runner.worker import figure_module

    module = figure_module("fig05")
    documents = {}
    for name in ("pure", "c"):
        tracer = RequestTracer(capacity=1 << 18)
        with accel.backend(name), traced(tracer):
            module.run(quick=True, seed=0)
        documents[name] = _normalized_trace(tracer.to_chrome_trace())
    assert documents["pure"] == documents["c"]


# ----------------------------------------------------------------------
# forced misses: subclassed components decline the exact-class guards
# ----------------------------------------------------------------------
class _ShadowSystem(System):
    pass


class _ShadowController(MemoryController):
    pass


class _ShadowPacer(Pacer):
    pass


def _comparable(system: System) -> tuple:
    snap = system.obs.snapshot()
    rest = {
        section: {
            key: value
            for key, value in values.items()
            if not key.startswith("accel.")
        }
        for section, values in snap.items()
    }
    return (system.engine.now, system.engine.dispatched, rest)


@settings(max_examples=6, deadline=None)
@given(
    sub_system=st.booleans(),
    sub_controller=st.booleans(),
    sub_pacer=st.booleans(),
    epochs=st.integers(min_value=2, max_value=4),
)
def test_forced_misses_preserve_dispatch_parity(
    c_backend, sub_system, sub_controller, sub_pacer, epochs
):
    """Subclasses fail the exact-type guards; the run must not notice.

    Every declined dispatch falls back to the Python callback, so the
    clock, the dispatch count, and every registered counter must match
    the pure run exactly — the fast path only ever changes wall time.
    """
    import repro.core.pabst as pabst_mod
    import repro.sim.system as system_mod

    patches = []
    if sub_controller:
        patches.append((system_mod, "MemoryController", _ShadowController))
    if sub_pacer:
        patches.append((pabst_mod, "Pacer", _ShadowPacer))
    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, cls in patches:
        setattr(mod, name, cls)
    system_cls = _ShadowSystem if sub_system else System
    try:
        before = accel.fastpath_stats()
        with accel.backend("pure"):
            pure = _build_system(system_cls=system_cls, epochs=epochs)
        assert accel.fastpath_stats() == before
        with accel.backend("c"):
            compiled = _build_system(system_cls=system_cls, epochs=epochs)
        after = accel.fastpath_stats()
    finally:
        for mod, name, cls in originals:
            setattr(mod, name, cls)
    assert _comparable(pure) == _comparable(compiled)
    delta_misses = after["misses"] - before["misses"]
    delta_hits = after["hits"] - before["hits"]
    assert delta_hits + delta_misses > 0
    if sub_system or sub_controller or sub_pacer:
        # at least one registered kind declined on the type guard
        assert delta_misses > 0
    else:
        assert delta_hits > 0

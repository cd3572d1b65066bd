"""Process-pool fan-out over run specs with caching and failure isolation.

:func:`run_specs` is the one entry point: it resolves cache hits first,
fans the misses out over a ``ProcessPoolExecutor`` (or runs them inline
for ``workers <= 1``), enforces a per-spec timeout, and stores fresh
successes back into the cache.  A worker crash or a broken pool degrades
to sequential in-process execution rather than failing the sweep, and
counts a ``pool.broken`` warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.obs.warnings import obs_warn
from repro.runner.cache import ResultCache
from repro.runner.fingerprint import source_fingerprint
from repro.runner.spec import RunSpec
from repro.runner.worker import execute_payload

__all__ = ["SweepOutcome", "run_specs"]


@dataclass
class SweepOutcome:
    """One spec's result: where it came from and what happened."""

    spec: RunSpec
    result: dict
    cached: bool = False

    @property
    def ok(self) -> bool:
        return bool(self.result.get("ok"))

    @property
    def error(self) -> str | None:
        return None if self.ok else str(self.result.get("error", "unknown"))


def _failure(kind: str, detail: str) -> dict:
    return {"ok": False, "error": f"{kind}: {detail}"}


def _run_sequential(
    specs: Sequence[RunSpec],
    progress: Callable[[str], None] | None,
) -> list[dict]:
    results = []
    for spec in specs:
        if progress is not None:
            progress(f"run  {spec.label()}")
        results.append(execute_payload(spec.to_payload()))
    return results


def _run_pool(
    specs: Sequence[RunSpec],
    workers: int,
    timeout: float | None,
    progress: Callable[[str], None] | None,
) -> list[dict]:
    # Imported here, the one path that forks: loading the pool costs every
    # process ~2 MB, and an inline sweep or a cache hit needs none of it.
    from concurrent.futures import ProcessPoolExecutor, process
    from concurrent.futures import TimeoutError as FutureTimeoutError

    results: list[dict | None] = [None] * len(specs)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(execute_payload, spec.to_payload()) for spec in specs
            ]
            for index, (spec, future) in enumerate(zip(specs, futures)):
                try:
                    results[index] = future.result(timeout=timeout)
                except FutureTimeoutError:
                    future.cancel()
                    results[index] = _failure(
                        "timeout", f"{spec.label()} exceeded {timeout}s"
                    )
                except process.BrokenProcessPool:
                    raise
                except Exception as exc:  # worker died mid-task
                    results[index] = _failure(type(exc).__name__, str(exc))
                if progress is not None and results[index] is not None:
                    status = "ok" if results[index].get("ok") else "FAIL"
                    progress(f"{status:<4} {spec.label()}")
    except process.BrokenProcessPool:
        # Pool is unusable (a worker was killed, fork failed, ...): finish
        # the unresolved specs sequentially in this process.
        obs_warn(
            "pool.broken",
            "process pool broke; finishing %d spec(s) sequentially",
            sum(result is None for result in results),
        )
        if progress is not None:
            progress("process pool broke; falling back to sequential execution")
        for index, spec in enumerate(specs):
            if results[index] is None:
                results[index] = execute_payload(spec.to_payload())
    return [
        result if result is not None else _failure("internal", "no result")
        for result in results
    ]


def run_specs(
    specs: Sequence[RunSpec],
    workers: int = 1,
    timeout: float | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    progress: Callable[[str], None] | None = None,
) -> list[SweepOutcome]:
    """Run every spec, reusing cached results where possible.

    Returns outcomes in spec order.  Only successful runs are cached;
    failures (including timeouts) are returned but never persisted.
    """
    fingerprint = source_fingerprint()
    outcomes: dict[int, SweepOutcome] = {}
    misses: list[tuple[int, RunSpec]] = []

    for index, spec in enumerate(specs):
        cached = (
            cache.load(spec.spec_hash(), fingerprint)
            if (cache is not None and use_cache)
            else None
        )
        if cached is not None:
            if progress is not None:
                progress(f"hit  {spec.label()}")
            outcomes[index] = SweepOutcome(spec=spec, result=cached, cached=True)
        else:
            misses.append((index, spec))

    miss_specs = [spec for _, spec in misses]
    if miss_specs:
        if workers > 1 and len(miss_specs) > 1:
            results = _run_pool(miss_specs, workers, timeout, progress)
        else:
            results = _run_sequential(miss_specs, progress)
        for (index, spec), result in zip(misses, results):
            outcomes[index] = SweepOutcome(spec=spec, result=result, cached=False)
            if cache is not None and result.get("ok"):
                cache.store(
                    spec.spec_hash(), fingerprint, spec.canonical_json(), result
                )

    return [outcomes[index] for index in range(len(specs))]

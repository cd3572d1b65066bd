"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro run fig05 [--quick] [--seed N] [--sanitize]
    python -m repro run-all [--quick]
    python -m repro sweep fig07 [--quick] [--workers N] [--no-cache]
                          [--backend {pure,c,auto}]
    python -m repro arena [--quick] [--mechanisms a,b] [--scenarios x,y]
                          [--workers N] [--output PATH]
                          [--backend {pure,c,auto}]
    python -m repro cache [--clear]
    python -m repro trace fig05 [--quick] [--seed N] [--output PATH]
                          [--buffer N] [--metrics PATH] [--sanitize]
                          [--backend {pure,c,auto}]
    python -m repro accel [info|build]
    python -m repro info
    python -m repro lint [paths ...] [--format {text,json,sarif}]
                         [--list-rules] [--timings] [--no-cache]

``--sanitize`` attaches the runtime invariant checker
(:mod:`repro.sim.sanitizer`) to every system the experiment builds;
``lint`` runs the determinism linter — per-file rules plus the
whole-program analysis pass (:mod:`repro.devtools.lint`,
:mod:`repro.devtools.analysis`); all flags after ``lint`` are forwarded
to the linter.
``sweep`` and ``arena`` end with any warnings counted by
:mod:`repro.obs.warnings` while they ran (a corrupt cache entry, a
broken process pool); ``cache`` reports the result cache under
``.repro-cache/``, emptying it first with ``--clear``.  ``trace`` re-runs
one experiment with the request tracer attached (:mod:`repro.obs.trace`)
and writes Chrome trace-event JSON viewable in Perfetto or
chrome://tracing.
``--backend`` selects the engine implementation (:mod:`repro.accel`):
``pure`` is the always-available reference, ``c`` compiles and loads the
extension (an error when no toolchain is present), and ``auto`` uses a
prebuilt extension when one exists and degrades to ``pure`` otherwise;
``accel`` builds the extension or reports its status.

Each experiment prints the same report table/series its benchmark asserts
against; see EXPERIMENTS.md for the paper-vs-measured record.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import Callable

__all__ = ["EXPERIMENTS", "main"]

#: name -> (module, description); a module is imported only when its
#: experiment runs, so ``repro run fig05`` never loads the other figures.
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "fig01": ("repro.experiments.fig01_motivation",
              "source- vs target-only regulation on both mixes"),
    "fig05": ("repro.experiments.fig05_proportional",
              "proportional allocation: two stream classes at 7:3"),
    "fig06": ("repro.experiments.fig06_work_conserving",
              "work conservation with a phase-alternating streamer"),
    "fig07": ("repro.experiments.fig07_source_and_target",
              "PABST vs its source-only and target-only halves"),
    "fig08": ("repro.experiments.fig08_excess",
              "proportional redistribution of unused bandwidth"),
    "fig09": ("repro.experiments.fig09_memcached",
              "memcached service-time distribution under co-location"),
    "fig10": ("repro.experiments.fig10_isolation",
              "SPEC weighted slowdown vs a streaming aggressor"),
    "fig11": ("repro.experiments.fig11_iaas",
              "IaaS consolidation vs a static bandwidth partition"),
    "fig12": ("repro.experiments.fig12_efficiency",
              "memory-efficiency cost of bandwidth QoS"),
    "soc256": ("repro.experiments.soc256",
               "256-core/32-MC scale-out run on one engine"),
    "arena": ("repro.experiments.arena",
              "every QoS mechanism head-to-head over the scenario matrix"),
}


def _experiment_runner(name: str) -> Callable:
    """Import experiment ``name``'s module and return its ``run``."""
    return importlib.import_module(EXPERIMENTS[name][0]).run


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_, description) in EXPERIMENTS.items():
        print(f"{name:<{width}}  {description}")
    return 0


def _run_experiment(name: str, quick: bool, seed: int, sanitize: bool = False) -> None:
    from repro.experiments.common import sanitized

    runner = _experiment_runner(name)
    description = EXPERIMENTS[name][1]
    mode = "quick" if quick else "full"
    suffix = ", sanitized" if sanitize else ""
    print(f"== {name} ({mode}{suffix}): {description}")
    started = time.perf_counter()
    with sanitized(sanitize):
        result = runner(quick=quick, seed=seed)
    elapsed = time.perf_counter() - started
    print(result.report())
    print(f"[{elapsed:.1f}s]")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    _run_experiment(args.experiment, args.quick, args.seed, args.sanitize)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    for index, name in enumerate(EXPERIMENTS):
        if index:
            print()
        _run_experiment(name, args.quick, args.seed, args.sanitize)
    return 0


def _resolve_backend(name: str) -> str | None:
    """Resolve ``--backend`` at the CLI boundary; None (+stderr) on failure.

    Specs carry the *resolved* name, so cache entries and sweep summaries
    never say "auto" — they say which backend actually ran.
    """
    from repro import accel

    try:
        return accel.resolve_backend(name)
    except accel.AccelUnavailable as exc:
        print(f"--backend={name} unavailable: {exc}", file=sys.stderr)
        return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache, run_specs, specs_for_figure

    if args.experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    specs = specs_for_figure(
        args.experiment, quick=args.quick, seed=args.seed, backend=backend,
    )
    cache = ResultCache(args.cache_dir)
    started = time.perf_counter()
    outcomes = run_specs(
        specs,
        workers=args.workers,
        timeout=args.timeout,
        cache=cache,
        use_cache=not args.no_cache,
        progress=print,
    )
    elapsed = time.perf_counter() - started

    failures = 0
    for outcome in outcomes:
        print()
        origin = "cached" if outcome.cached else "fresh"
        if outcome.ok:
            rate = outcome.result.get("events_per_sec", 0.0)
            print(f"== {outcome.spec.label()} ({origin}, "
                  f"{rate:,.0f} events/s)")
            print(outcome.result["report"])
        else:
            failures += 1
            print(f"== {outcome.spec.label()} FAILED: {outcome.error}")
    hits = sum(1 for o in outcomes if o.cached)
    print()
    print(f"[{len(outcomes)} cell(s), {hits} cached, {failures} failed, "
          f"{elapsed:.1f}s, workers={args.workers}, backend={backend}]")
    _print_warnings()
    return 1 if failures else 0


def _print_warnings() -> None:
    """Print the warning counters this process has bumped, if any."""
    from repro.obs.warnings import warning_counts

    warnings = warning_counts()
    if warnings:
        print("warnings:")
        for name in sorted(warnings):
            print(f"  {name}: {warnings[name]}")


def _split_csv(value: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if value is None:
        return default
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _cmd_arena(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import arena
    from repro.mechanisms import ALL_MECHANISMS
    from repro.runner import ResultCache, run_specs
    from repro.runner.spec import RunSpec

    mechanisms = _split_csv(args.mechanisms, ALL_MECHANISMS)
    scenarios = _split_csv(args.scenarios, arena.SCENARIOS)
    unknown = [name for name in mechanisms if name not in ALL_MECHANISMS]
    if unknown:
        known = ", ".join(ALL_MECHANISMS)
        print(f"unknown mechanism(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    unknown = [name for name in scenarios if name not in arena.SCENARIOS]
    if unknown:
        known = ", ".join(arena.SCENARIOS)
        print(f"unknown scenario(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    # One (scenario, mechanism) cell per spec so the pool parallelizes the
    # matrix and the cache re-serves individual head-to-heads.
    specs = [
        RunSpec(
            figure="arena",
            cell={"scenarios": (scenario,), "mechanisms": (mechanism,)},
            seed=args.seed,
            quick=args.quick,
            backend=backend,
        )
        for scenario in scenarios
        for mechanism in mechanisms
    ]
    cache = ResultCache(args.cache_dir)
    started = time.perf_counter()
    outcomes = run_specs(
        specs,
        workers=args.workers,
        timeout=args.timeout,
        cache=cache,
        use_cache=not args.no_cache,
        progress=print,
    )
    elapsed = time.perf_counter() - started
    failures = 0
    documents = []
    for outcome in outcomes:
        if not outcome.ok:
            failures += 1
            print(f"== {outcome.spec.label()} FAILED: {outcome.error}",
                  file=sys.stderr)
            continue
        document = outcome.result.get("metrics")
        if document is None:
            failures += 1
            print(f"== {outcome.spec.label()} returned no metrics document",
                  file=sys.stderr)
            continue
        documents.append(document)
    if not documents:
        print("no arena cells completed", file=sys.stderr)
        return 1
    merged = arena.merge_documents(documents)
    cells = arena.validate_report(merged)
    print(arena.comparative_report(merged))
    hits = sum(1 for o in outcomes if o.cached)
    print()
    print(f"[{cells} cell(s): {len(merged['mechanisms'])} mechanism(s) x "
          f"{len(merged['scenarios'])} scenario(s), {hits} cached, "
          f"{failures} failed, {elapsed:.1f}s, workers={args.workers}, "
          f"backend={backend}]")
    _print_warnings()
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote {args.output}]")
    return 1 if failures else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.clear:
        print(f"[removed {cache.clear()} result(s)]")
    stats = cache.stats()
    print(f"{stats['directory']}: {stats['entries']} result(s), "
          f"{stats['bytes']:,} bytes (cap {stats['max_entries']})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import JsonlSink, RequestTracer, write_chrome_trace
    from repro.experiments.common import sanitized, traced

    if args.experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    from repro import accel

    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    runner = _experiment_runner(args.experiment)
    description = EXPERIMENTS[args.experiment][1]
    mode = "quick" if args.quick else "full"
    print(f"== {args.experiment} ({mode}, traced, backend={backend}): "
          f"{description}")
    tracer = RequestTracer(capacity=args.buffer)
    sinks = []
    metrics_sink = None
    if args.metrics is not None:
        metrics_sink = JsonlSink(args.metrics)
        sinks.append(metrics_sink)
    started = time.perf_counter()
    try:
        with accel.backend(backend), sanitized(args.sanitize), \
                traced(tracer, sinks):
            result = runner(quick=args.quick, seed=args.seed)
    finally:
        if metrics_sink is not None:
            metrics_sink.close()
    elapsed = time.perf_counter() - started
    print(result.report())
    output = (
        Path(args.output)
        if args.output is not None
        else Path(f"trace_{args.experiment}.json")
    )
    document = tracer.to_chrome_trace()
    write_chrome_trace(output, document)
    print(f"[{elapsed:.1f}s]")
    print(f"[{tracer.recorded:,} transitions recorded, "
          f"{tracer.dropped:,} dropped by the ring, "
          f"{len(document['traceEvents']):,} trace events]")
    print(f"[wrote {output} — open in Perfetto or chrome://tracing]")
    if metrics_sink is not None:
        print(f"[wrote {metrics_sink.published} epoch record(s) "
              f"to {args.metrics}]")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import lint

    # An explicit argv list: passing None would make lint.main re-parse
    # sys.argv and mistake the "lint" verb for a path.  Everything after
    # the verb (paths and lint flags alike) forwards verbatim, so
    # ``repro lint --format=sarif src`` works without mirroring the
    # linter's option surface here.
    return lint.main(args.lint_args or ["src", "tests"])


def _cmd_accel(args: argparse.Namespace) -> int:
    from repro import accel
    from repro.accel import build as build_mod

    if args.action == "build":
        try:
            path = build_mod.build()
        except accel.AccelUnavailable as exc:
            print(f"accel build failed: {exc}", file=sys.stderr)
            return 1
        print(f"[built {path}]")
        return 0
    # info (the default): status without side effects — never compiles
    path = build_mod.artifact_path()
    cc = build_mod.compiler()
    print(f"source:      {build_mod.SOURCE_PATH}")
    print(f"fingerprint: {build_mod.source_fingerprint()}")
    print(f"compiler:    {cc if cc else 'none found (tried gcc, cc, clang)'}")
    print(f"artifact:    {path} "
          f"({'present' if path.exists() else 'not built'})")
    # probe the prebuilt artifact the way auto does, but not through
    # resolve_backend("auto"): a status query is not a runtime fallback
    # and must not count as one
    try:
        accel._load_core(build_if_missing=False)
        auto = "c"
    except accel.AccelUnavailable:
        auto = "pure"
    print(f"auto resolves to: {auto}")
    from repro.accel import native

    kinds = native.native_kinds()
    print(f"native kinds ({len(kinds)}, manifest "
          f"{native.manifest_digest()}):")
    for qualname, tag in sorted(kinds.items(), key=lambda kv: kv[1]):
        print(f"  {tag:<24} {qualname}")
    stats = accel.fastpath_stats()
    total = stats["hits"] + stats["misses"]
    if total:
        print(f"fast-path this process: {stats['hits']:,} hits / "
              f"{stats['misses']:,} misses "
              f"({stats['hits'] / total:.2%})")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro import SPEC_PROFILES, SystemConfig, __version__

    config = SystemConfig.default_experiment()
    paper = SystemConfig.paper_32core()
    print(f"repro {__version__} - PABST (HPCA 2017) reproduction")
    print()
    print("default experiment machine:")
    print(f"  cores={config.cores}  mcs={config.num_mcs}  "
          f"peak={config.peak_bandwidth:.0f} B/cycle  "
          f"epoch={config.epoch_cycles} cycles")
    print("paper Table III machine:")
    print(f"  cores={paper.cores}  mcs={paper.num_mcs}  "
          f"peak={paper.peak_bandwidth:.0f} B/cycle  "
          f"epoch={paper.epoch_cycles} cycles")
    print()
    print("SPEC CPU2006 proxies:", ", ".join(sorted(SPEC_PROFILES)))
    return 0


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=("pure", "c", "auto"), default="pure",
        help="engine implementation: the pure-Python reference, the "
             "compiled C extension (built on demand; errors without a "
             "toolchain), or auto (a prebuilt extension when present, "
             "else pure)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the PABST (HPCA 2017) evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name, e.g. fig05")
    run.add_argument("--quick", action="store_true",
                     help="reduced scale (seconds instead of minutes)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--sanitize", action="store_true",
                     help="enable the runtime invariant sanitizer")
    run.set_defaults(func=_cmd_run)

    run_all = sub.add_parser("run-all", help="run every experiment")
    run_all.add_argument("--quick", action="store_true")
    run_all.add_argument("--seed", type=int, default=0)
    run_all.add_argument("--sanitize", action="store_true",
                         help="enable the runtime invariant sanitizer")
    run_all.set_defaults(func=_cmd_run_all)

    sweep = sub.add_parser(
        "sweep", help="run one experiment's grid cells in parallel"
    )
    sweep.add_argument("experiment", help="experiment name, e.g. fig07")
    sweep.add_argument("--quick", action="store_true",
                       help="reduced scale (seconds instead of minutes)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = run in-process)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-cell timeout in seconds")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore cached results (still refreshes them)")
    sweep.add_argument("--cache-dir", default=".repro-cache",
                       help="result cache directory (default: .repro-cache)")
    _add_backend_argument(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    arena_cmd = sub.add_parser(
        "arena",
        help="run every QoS mechanism head-to-head over the scenario "
             "matrix and print a comparative report",
    )
    arena_cmd.add_argument("--quick", action="store_true",
                           help="reduced scale (seconds instead of minutes)")
    arena_cmd.add_argument("--seed", type=int, default=0)
    arena_cmd.add_argument("--mechanisms", default=None,
                           help="comma-separated mechanism subset "
                                "(default: every registered mechanism)")
    arena_cmd.add_argument("--scenarios", default=None,
                           help="comma-separated scenario subset "
                                "(default: the full matrix)")
    arena_cmd.add_argument("--workers", type=int, default=1,
                           help="worker processes (1 = run in-process)")
    arena_cmd.add_argument("--timeout", type=float, default=None,
                           help="per-cell timeout in seconds")
    arena_cmd.add_argument("--no-cache", action="store_true",
                           help="ignore cached results (still refreshes them)")
    arena_cmd.add_argument("--cache-dir", default=".repro-cache",
                           help="result cache directory "
                                "(default: .repro-cache)")
    arena_cmd.add_argument("--output", default=None,
                           help="also write the merged repro.arena/v1 JSON "
                                "document to this path")
    _add_backend_argument(arena_cmd)
    arena_cmd.set_defaults(func=_cmd_arena)

    cache = sub.add_parser(
        "cache", help="report or clear the result cache"
    )
    cache.add_argument("--cache-dir", default=".repro-cache",
                       help="cache directory (default: .repro-cache)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached result")
    cache.set_defaults(func=_cmd_cache)

    trace = sub.add_parser(
        "trace",
        help="run one experiment with the request tracer attached and "
             "export Chrome trace-event JSON",
    )
    trace.add_argument("experiment", help="experiment name, e.g. fig05")
    trace.add_argument("--quick", action="store_true",
                       help="reduced scale (seconds instead of minutes)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--output", default=None,
                       help="trace JSON path (default: trace_<fig>.json)")
    trace.add_argument("--buffer", type=int, default=65536,
                       help="ring-buffer capacity in transitions; the trace "
                            "keeps the last N (default 65536)")
    trace.add_argument("--metrics", default=None,
                       help="also stream per-epoch metric records to this "
                            "JSONL file")
    trace.add_argument("--sanitize", action="store_true",
                       help="enable the runtime invariant sanitizer")
    _add_backend_argument(trace)
    trace.set_defaults(func=_cmd_trace)

    accel = sub.add_parser(
        "accel",
        help="build the compiled backend or report its status",
    )
    accel.add_argument("action", nargs="?", choices=("info", "build"),
                       default="info",
                       help="info: report toolchain/artifact status "
                            "(default); build: compile the extension now")
    accel.set_defaults(func=_cmd_accel)

    lint = sub.add_parser(
        "lint",
        help="run the determinism linter and whole-program analyzer",
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER, metavar="args",
        help="paths and linter flags, forwarded to repro.devtools.lint "
             "(default: src tests; see 'repro lint --help' there)",
    )
    lint.set_defaults(func=_cmd_lint)

    sub.add_parser("info", help="show machine presets and workloads").set_defaults(
        func=_cmd_info
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse's REMAINDER refuses a leading option token, so flag-first
    # invocations like ``repro lint --list-rules`` forward directly.
    if argv and argv[0] == "lint":
        from repro.devtools import lint

        return lint.main(argv[1:] or ["src", "tests"])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

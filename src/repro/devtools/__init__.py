"""Developer tooling for the PABST reproduction.

``repro.devtools`` hosts the static-analysis machinery that keeps the
simulator honest, in two tiers:

* The per-file determinism linter (:mod:`repro.devtools.lint`)
  mechanically enforces the rules in README.md's "Determinism rules"
  section: no ambient randomness, no wall-clock reads inside timed
  layers, no float cycle arithmetic, no order leaks from unordered
  containers.
* The whole-program analyzer (:mod:`repro.devtools.analysis`) builds a
  project symbol table + call graph and checks properties no single
  file can show: cross-module determinism taint (DET1xx), hot-kernel
  compiled-subset discipline (HOT), and observability provider
  integrity (OBS).

Supporting modules: :mod:`repro.devtools.formats` (text/JSON/SARIF
output), :mod:`repro.devtools.baseline` (grandfathered-finding
suppression), :mod:`repro.devtools.fixes` (``--fix`` autofixes).

Run everything as ``python -m repro.devtools.lint src tests`` or via the
``repro lint`` CLI subcommand.
"""

__all__ = [
    "Diagnostic",
    "analyze_project",
    "lint_file",
    "lint_paths",
    "lint_source",
]


def __getattr__(name):
    # Lazy re-export so ``python -m repro.devtools.lint`` does not import
    # the submodule twice (runpy would warn about the stale sys.modules
    # entry otherwise).
    if name == "analyze_project":
        from repro.devtools.analysis import analyze_project

        return analyze_project
    if name in __all__:
        from repro.devtools import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

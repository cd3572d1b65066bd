"""HOT006: the compiled backend's native mirrors match their manifest.

The C wheel core executes a closed set of Python callbacks natively.
Each mirrored function carries a trailing ``repro: native-kernel``
marker on its ``def`` line, and the marked set must agree exactly with
the module-level ``NATIVE_KERNELS`` dict literal the package declares
(for ``repro``: :data:`repro.accel.native.NATIVE_KERNELS`, which the
backend also checks at load time).  The manifest is extracted
statically from the indexed sources, so test corpora declare (and
violate) their own inventory the same way.
"""

from __future__ import annotations

import ast

from repro.devtools.analysis.symbols import FunctionInfo, ModuleInfo, ProjectIndex
from repro.devtools.lint import Diagnostic

__all__ = [
    "NATIVE_MARKER",
    "analyze_hot_kernels",
    "find_native_kernels",
]

NATIVE_MARKER = "repro: native-kernel"


def find_native_kernels(index: ProjectIndex) -> dict[str, FunctionInfo]:
    """Every function whose ``def`` line carries the native-kernel marker."""
    kernels: dict[str, FunctionInfo] = {}
    for module in index.modules.values():
        for fn in _iter_functions(module):
            if fn.node is None:
                continue
            line_index = fn.node.lineno - 1
            if line_index < len(module.lines) and NATIVE_MARKER in module.lines[line_index]:
                kernels[fn.qualname] = fn
    return kernels


def _native_manifest(index: ProjectIndex) -> dict[str, str]:
    """The NATIVE_KERNELS manifest that governs ``index``'s package.

    Module-level ``NATIVE_KERNELS`` dict literals found inside the
    package, statically extracted and merged.
    """
    manifest: dict[str, str] = {}
    for module in sorted(index.modules):
        tree = index.modules[module].tree
        if tree is None:
            continue
        for node in tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if not (isinstance(target, ast.Name) and target.id == "NATIVE_KERNELS"):
                continue
            value = node.value
            if not isinstance(value, ast.Dict):
                continue
            for key, val in zip(value.keys, value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(val, ast.Constant)
                    and isinstance(val.value, str)
                ):
                    manifest[key.value] = val.value
    return manifest


def analyze_hot_kernels(index: ProjectIndex) -> list[Diagnostic]:
    # Two-sided check: manifest entries must be marked; marked functions
    # must be in the manifest.  A native marker claims a C twin exists,
    # and an unregistered twin is a violation in any package.
    diagnostics: list[Diagnostic] = []
    native_manifest = _native_manifest(index)
    native_marked = find_native_kernels(index)
    for qualname in sorted(native_manifest):
        if qualname.split(".")[0] != index.package:
            continue
        if qualname in native_marked:
            continue
        module_name = _owning_module(index, qualname)
        module = index.modules.get(module_name)
        diagnostics.append(
            Diagnostic(
                path=module.path if module is not None else "<manifest>",
                line=1,
                col=0,
                code="HOT006",
                message=(
                    f"NATIVE_KERNELS entry {qualname} (kind "
                    f"'{native_manifest[qualname]}') is not marked with "
                    f"'{NATIVE_MARKER}' on its def line (or does not "
                    "exist); the registered C mirrors and the marked set "
                    "must agree"
                ),
            )
        )
    for qualname, fn in sorted(native_marked.items()):
        if qualname in native_manifest:
            continue
        module = index.modules[fn.module]
        diagnostics.append(
            Diagnostic(
                path=module.path,
                line=fn.lineno,
                col=0,
                code="HOT006",
                message=(
                    f"{qualname} is marked '{NATIVE_MARKER}' but absent "
                    "from the NATIVE_KERNELS manifest; a native marker "
                    "claims a registered C twin — declare the kind tag "
                    "or drop the marker"
                ),
            )
        )
    return diagnostics


def _owning_module(index: ProjectIndex, qualname: str) -> str:
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        candidate = ".".join(parts[:cut])
        if candidate in index.modules:
            return candidate
    return ""


def _iter_functions(module: ModuleInfo):
    for fn in module.functions.values():
        yield fn
    for cls in module.classes.values():
        yield from cls.methods.values()

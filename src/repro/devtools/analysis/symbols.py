"""Project symbol table: modules, classes, functions, inferred field types.

The whole-program passes (taint, HOT, OBS) all consume one shared
:class:`ProjectIndex` built in a single parse of the package tree.  The
index records, per module, the import alias table, every class with its
*field graph* (attribute name -> inferred type reference), and every
function/method with its AST kept in memory for the flow passes.

Type references are plain strings so they stay cheap and serializable:

* a dotted qualname for a class defined in the analyzed package
  (``repro.dram.controller.MemoryController``);
* ``list[X]`` / ``dict[K, V]`` / ``tuple[X]`` / ``set[X]`` /
  ``deque[X]`` for containers, with element types inferred recursively;
* lowercase tokens for builtins (``int``, ``str``);
* ``?`` when inference gives up — consumers must treat ``?`` as "skip",
  never as "violation", so inference gaps cannot produce false alarms.

Field types come from three places, later ones refining earlier ones:
class-body annotations, parameter annotations flowing through
``self.x = param`` assignments, and constructor-call inference on the
right-hand side of ``self.x = ...`` in any method.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = [
    "ClassInfo",
    "FieldInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_index",
]

_CONTAINER_CALLS = {
    "list": "list",
    "dict": "dict",
    "set": "set",
    "tuple": "tuple",
    "frozenset": "set",
    "deque": "deque",
    "defaultdict": "dict",
    "OrderedDict": "dict",
}


@dataclass
class FieldInfo:
    """One attribute slot on a class: where it was bound and to what."""

    name: str
    type_ref: str
    lineno: int
    end_lineno: int
    method: str  # method that bound it ("<class>" for class-body bindings)


@dataclass
class FunctionInfo:
    """A function or method with its AST retained for the flow passes."""

    qualname: str
    module: str
    name: str
    lineno: int
    end_lineno: int
    params: tuple[str, ...]  # positional-or-keyword names, `self` included
    annotations: dict[str, str]
    is_method: bool
    owner: str | None  # owning class qualname for methods
    is_property: bool
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False, default=None)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    lineno: int
    bases: tuple[str, ...]  # resolved dotted names where possible
    fields: dict[str, FieldInfo] = field(default_factory=dict)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    class_attrs: set[str] = field(default_factory=set)
    slots: tuple[str, ...] | None = None
    has_dynamic_getattr: bool = False


@dataclass
class ModuleInfo:
    name: str  # dotted module name, e.g. ``repro.sim.engine``
    path: str
    source: str = field(repr=False, default="")
    lines: tuple[str, ...] = field(repr=False, default=())
    tree: ast.Module = field(repr=False, default=None)
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


class ProjectIndex:
    """All modules of one package plus cross-module lookup helpers."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def resolve_name(self, module: ModuleInfo, name: str) -> str | None:
        """Dotted target for a bare name in ``module`` (local def or import)."""
        if name in module.classes:
            return module.classes[name].qualname
        if name in module.functions:
            return module.functions[name].qualname
        return module.imports.get(name)

    def class_attrs(self, qualname: str) -> set[str] | None:
        """Every statically-known attribute of a class, bases included.

        Returns ``None`` when any base is outside the index (or defines a
        dynamic ``__getattr__``), meaning the attribute universe is open
        and absence checks must not fire.
        """
        info = self.classes.get(qualname)
        if info is None:
            return None
        if info.has_dynamic_getattr:
            return None
        attrs = set(info.fields)
        attrs.update(info.class_attrs)
        attrs.update(info.methods)
        if info.slots is not None:
            attrs.update(info.slots)
        for base in info.bases:
            if base in ("object", "Exception", "RuntimeError", "ValueError"):
                continue
            base_attrs = self.class_attrs(base)
            if base_attrs is None:
                return None
            attrs.update(base_attrs)
        return attrs

    def field_type(self, class_qualname: str, attr: str) -> str:
        """Inferred type reference of ``attr`` on a class (bases searched)."""
        info = self.classes.get(class_qualname)
        if info is None:
            return "?"
        slot = info.fields.get(attr)
        if slot is not None:
            return slot.type_ref
        for base in info.bases:
            found = self.field_type(base, attr)
            if found != "?":
                return found
        return "?"

    def method(self, class_qualname: str, name: str) -> FunctionInfo | None:
        """Look a method up on a class or its indexed bases."""
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        fn = info.methods.get(name)
        if fn is not None:
            return fn
        for base in info.bases:
            fn = self.method(base, name)
            if fn is not None:
                return fn
        return None

    def summary(self) -> dict:
        """Compact JSON-able inventory (cached beside the diagnostics)."""
        return {
            "package": self.package,
            "modules": {
                name: {
                    "classes": sorted(mod.classes),
                    "functions": sorted(mod.functions),
                }
                for name, mod in sorted(self.modules.items())
            },
        }


# ----------------------------------------------------------------------
# type-reference helpers
# ----------------------------------------------------------------------
def container_parts(type_ref: str) -> tuple[str, tuple[str, ...]] | None:
    """Split ``dict[int, X]`` into ``("dict", ("int", "X"))``; None if plain."""
    if "[" not in type_ref or not type_ref.endswith("]"):
        return None
    head, _, rest = type_ref.partition("[")
    inner = rest[:-1]
    parts: list[str] = []
    depth = 0
    current = ""
    for char in inner:
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
            continue
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        current += char
    if current.strip():
        parts.append(current.strip())
    return head, tuple(parts)


def element_type(type_ref: str) -> str:
    """Element type of a container reference (value type for dicts)."""
    parts = container_parts(type_ref)
    if parts is None:
        return "?"
    head, args = parts
    if not args:
        return "?"
    if head == "dict":
        return args[1] if len(args) > 1 else "?"
    return args[0]


def strip_optional(type_ref: str) -> str:
    """``X | None`` / ``Optional[X]`` -> ``X``."""
    ref = type_ref.strip()
    if ref.startswith("Optional[") and ref.endswith("]"):
        return ref[len("Optional[") : -1].strip()
    if "|" in ref:
        alternatives = [part.strip() for part in ref.split("|")]
        alternatives = [part for part in alternatives if part != "None"]
        if len(alternatives) == 1:
            return alternatives[0]
    return ref


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
class _ModuleBuilder:
    def __init__(self, index: ProjectIndex, module: ModuleInfo) -> None:
        self.index = index
        self.module = module

    # -- imports -------------------------------------------------------
    def collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.module.imports[local] = f"{base}.{alias.name}"

    def _from_base(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # relative import: resolve against this module's dotted name
        parts = self.module.name.split(".")
        # level 1 == current package (drop the module segment), etc.
        anchor = parts[: len(parts) - node.level]
        if not anchor:
            return node.module
        if node.module:
            return ".".join(anchor) + "." + node.module
        return ".".join(anchor)

    # -- annotation resolution -----------------------------------------
    def annotation_ref(self, node: ast.expr | None) -> str:
        if node is None:
            return "?"
        text = self._ann_text(node)
        return self.resolve_annotation_text(text)

    @staticmethod
    def _ann_text(node: ast.expr) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value  # string annotation
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - malformed annotation
            return "?"

    def resolve_annotation_text(self, text: str) -> str:
        text = strip_optional(text)
        if not text or text == "None":
            return "?"
        if text.startswith(("Callable", "typing.Callable")):
            return "?"  # callables via annotation are usually bound methods
        parts = container_parts(text)
        if parts is not None:
            head, args = parts
            head_resolved = self._resolve_plain(head)
            if head_resolved in ("list", "dict", "set", "tuple", "deque"):
                inner = ", ".join(self.resolve_annotation_text(a) for a in args)
                return f"{head_resolved}[{inner}]"
            return head_resolved
        return self._resolve_plain(text)

    def _resolve_plain(self, text: str) -> str:
        text = text.strip().strip('"').strip("'")
        if not text or not text[0].isalpha() and text[0] != "_":
            return "?"
        if text in ("int", "float", "str", "bool", "bytes", "list", "dict",
                    "set", "tuple", "deque", "Deque"):
            return "deque" if text == "Deque" else text
        head, _, rest = text.partition(".")
        resolved = self.index.resolve_name(self.module, head)
        if resolved is None:
            return "?"
        dotted = resolved + ("." + rest if rest else "")
        # collapse "module.Class" to the class qualname when indexed
        if dotted in self.index.classes:
            return dotted
        # maybe "pkg.mod.Class" where resolved is a module name
        if rest and resolved in self.index.modules:
            candidate = f"{resolved}.{rest}"
            if candidate in self.index.classes:
                return candidate
        if dotted in self.index.classes or dotted in self.index.modules:
            return dotted
        return dotted if dotted.startswith(self.index.package + ".") else "?"

    # -- expression type inference -------------------------------------
    def dotted_chain(self, node: ast.expr) -> list[str] | None:
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.append(node.id)
        chain.reverse()
        return chain

    def infer_call_type(self, node: ast.Call, env: dict[str, str]) -> str:
        chain = self.dotted_chain(node.func)
        if chain is None:
            return "?"
        name = chain[-1]
        if len(chain) == 1:
            if name in _CONTAINER_CALLS:
                head = _CONTAINER_CALLS[name]
                if node.args:
                    inner = self.infer_expr_type(node.args[0], env)
                    elem = element_type(inner) if container_parts(inner) else "?"
                    return f"{head}[{elem}]"
                return f"{head}[?]"
            resolved = self.index.resolve_name(self.module, name)
            if resolved in self.index.classes:
                return resolved
            return "?"
        root = chain[0]
        root_target = self.module.imports.get(root, root)
        if name in _CONTAINER_CALLS and len(chain) == 2:
            return f"{_CONTAINER_CALLS[name]}[?]"
        # module-attribute constructor: ``pkgmod.Class(...)``
        dotted = ".".join([root_target] + chain[1:])
        if dotted in self.index.classes:
            return dotted
        return "?"

    def infer_expr_type(self, node: ast.expr, env: dict[str, str]) -> str:
        """Best-effort type reference for an expression.

        ``env`` maps local names (including ``self.<attr>`` pseudo-names)
        to type references.
        """
        if isinstance(node, ast.ListComp):
            return f"list[{self.infer_expr_type(node.elt, env)}]"
        if isinstance(node, ast.SetComp):
            return f"set[{self.infer_expr_type(node.elt, env)}]"
        if isinstance(node, ast.DictComp):
            key = self.infer_expr_type(node.key, env)
            value = self.infer_expr_type(node.value, env)
            return f"dict[{key}, {value}]"
        if isinstance(node, ast.List):
            elem = self.infer_expr_type(node.elts[0], env) if node.elts else "?"
            return f"list[{elem}]"
        if isinstance(node, ast.Set):
            elem = self.infer_expr_type(node.elts[0], env) if node.elts else "?"
            return f"set[{elem}]"
        if isinstance(node, ast.Tuple):
            elem = self.infer_expr_type(node.elts[0], env) if node.elts else "?"
            return f"tuple[{elem}]"
        if isinstance(node, ast.Dict):
            key = self.infer_expr_type(node.keys[0], env) if node.keys and node.keys[0] else "?"
            value = self.infer_expr_type(node.values[0], env) if node.values else "?"
            return f"dict[{key}, {value}]"
        if isinstance(node, ast.Constant):
            if node.value is None:
                return "?"
            return type(node.value).__name__
        if isinstance(node, ast.Call):
            return self.infer_call_type(node, env)
        if isinstance(node, ast.Name):
            return env.get(node.id, "?")
        if isinstance(node, ast.Attribute):
            chain = self.dotted_chain(node)
            if chain is not None and chain[0] == "self":
                pseudo = "self." + ".".join(chain[1:])
                if pseudo in env:
                    return env[pseudo]
                if len(chain) == 2:
                    return env.get(pseudo, "?")
                # self.field.attr: field type -> attribute type
                owner = env.get("self." + chain[1], "?")
                ref = owner
                for attr in chain[2:]:
                    if ref in ("?",) or container_parts(ref) is not None:
                        return "?"
                    ref = self.index.field_type(ref, attr)
                return ref
            if chain is not None:
                base = env.get(chain[0])
                if base is not None and base not in ("?",):
                    ref = base
                    for attr in chain[1:]:
                        if container_parts(ref) is not None:
                            return "?"
                        ref = self.index.field_type(ref, attr)
                    return ref
            return "?"
        if isinstance(node, ast.IfExp):
            primary = self.infer_expr_type(node.body, env)
            if primary != "?":
                return primary
            return self.infer_expr_type(node.orelse, env)
        if isinstance(node, ast.Subscript):
            return element_type(self.infer_expr_type(node.value, env))
        if isinstance(node, ast.Await):
            return "?"
        if isinstance(node, ast.BinOp):
            return "?"
        return "?"

    # -- class extraction ----------------------------------------------
    def build_class(self, node: ast.ClassDef) -> ClassInfo:
        qualname = f"{self.module.name}.{node.name}"
        bases = []
        for base in node.bases:
            chain = self.dotted_chain(base)
            if chain is None:
                continue
            if len(chain) == 1:
                resolved = self.index.resolve_name(self.module, chain[0])
                bases.append(resolved or chain[0])
            else:
                root = self.module.imports.get(chain[0], chain[0])
                bases.append(".".join([root] + chain[1:]))
        info = ClassInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            lineno=node.lineno,
            bases=tuple(bases),
        )
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.target.id == "__slots__":
                    continue
                info.fields[stmt.target.id] = FieldInfo(
                    name=stmt.target.id,
                    type_ref=self.annotation_ref(stmt.annotation),
                    lineno=stmt.lineno,
                    end_lineno=stmt.end_lineno or stmt.lineno,
                    method="<class>",
                )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__slots__":
                        info.slots = self._literal_strings(stmt.value)
                        continue
                    info.class_attrs.add(target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "__getattr__":
                    info.has_dynamic_getattr = True
                fn = self.build_function(stmt, owner=info)
                info.methods[stmt.name] = fn
                self.index.functions[fn.qualname] = fn
        # field inference over every method body, __init__ first so later
        # methods refine rather than shadow the constructor's bindings
        ordered = sorted(
            info.methods.values(), key=lambda fn: (fn.name != "__init__", fn.lineno)
        )
        for fn in ordered:
            self._collect_self_assignments(info, fn)
        return info

    @staticmethod
    def _literal_strings(node: ast.expr) -> tuple[str, ...] | None:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            values = []
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    values.append(elt.value)
            return tuple(values)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return (node.value,)
        return None

    def _collect_self_assignments(self, info: ClassInfo, fn: FunctionInfo) -> None:
        node = fn.node
        if node is None:
            return
        env: dict[str, str] = {}
        for param, ref in fn.annotations.items():
            env[param] = ref
        for attr, slot in info.fields.items():
            env.setdefault("self." + attr, slot.type_ref)
        for stmt in ast.walk(node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if target is None:
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attr = target.attr
                if annotation is not None:
                    ref = self.annotation_ref(annotation)
                elif value is not None:
                    ref = self.infer_expr_type(value, env)
                else:
                    ref = "?"
                existing = info.fields.get(attr)
                if existing is None:
                    info.fields[attr] = FieldInfo(
                        name=attr,
                        type_ref=ref,
                        lineno=stmt.lineno,
                        end_lineno=stmt.end_lineno or stmt.lineno,
                        method=fn.name,
                    )
                elif existing.type_ref == "?" and ref != "?":
                    existing.type_ref = ref
                env["self." + attr] = info.fields[attr].type_ref
            elif isinstance(target, ast.Name) and value is not None:
                env.setdefault(target.id, self.infer_expr_type(value, env))

    # -- function extraction -------------------------------------------
    def build_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: ClassInfo | None = None,
    ) -> FunctionInfo:
        if owner is not None:
            qualname = f"{owner.qualname}.{node.name}"
        else:
            qualname = f"{self.module.name}.{node.name}"
        params = tuple(
            arg.arg for arg in node.args.posonlyargs + node.args.args
        )
        annotations = {}
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            if arg.annotation is not None:
                annotations[arg.arg] = self.annotation_ref(arg.annotation)
        if owner is not None and params and params[0] == "self":
            annotations.setdefault("self", owner.qualname)
        is_property = any(
            isinstance(dec, ast.Name) and dec.id == "property"
            or isinstance(dec, ast.Attribute) and dec.attr in ("setter", "getter")
            for dec in node.decorator_list
        )
        return FunctionInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            lineno=node.lineno,
            end_lineno=node.end_lineno or node.lineno,
            params=params,
            annotations=annotations,
            is_method=owner is not None,
            owner=owner.qualname if owner is not None else None,
            is_property=is_property,
            node=node,
        )


def _module_name(package: str, root: Path, path: Path) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = [package] + list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def build_index(
    root: Path | str,
    package: str | None = None,
    sources: dict[str, str] | None = None,
) -> ProjectIndex:
    """Index every ``*.py`` under ``root`` (a package directory).

    ``sources`` overrides file contents (used by tests to index inline
    snippets without touching disk): a mapping of path-string -> source.
    """
    root = Path(root)
    if package is None:
        package = root.name
    index = ProjectIndex(package)
    if sources is not None:
        items: Iterable[tuple[Path, str]] = [
            (Path(path), text) for path, text in sorted(sources.items())
        ]
    else:
        items = [
            (path, path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))
        ]
    # first pass: parse and register names so imports can resolve
    pending: list[tuple[ModuleInfo, ast.Module]] = []
    for path, text in items:
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError:
            continue  # the per-file linter reports E999 for this file
        name = _module_name(package, root, path)
        module = ModuleInfo(
            name=name,
            path=str(path),
            source=text,
            lines=tuple(text.splitlines()),
            tree=tree,
        )
        index.modules[name] = module
        pending.append((module, tree))
    # second pass: imports, then classes/functions (annotation resolution
    # needs every module's import table populated first)
    builders = []
    for module, tree in pending:
        builder = _ModuleBuilder(index, module)
        builder.collect_imports(tree)
        builders.append((builder, module, tree))
    for builder, module, tree in builders:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                info = builder.build_class(stmt)
                module.classes[stmt.name] = info
                index.classes[info.qualname] = info
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = builder.build_function(stmt)
                module.functions[stmt.name] = fn
                index.functions[fn.qualname] = fn
    # third pass: re-run field inference now that *all* classes exist, so
    # cross-module constructor calls resolve regardless of file order
    for builder, module, tree in builders:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                info = module.classes[stmt.name]
                ordered = sorted(
                    info.methods.values(),
                    key=lambda fn: (fn.name != "__init__", fn.lineno),
                )
                for fn in ordered:
                    builder._collect_self_assignments(info, fn)
    return index

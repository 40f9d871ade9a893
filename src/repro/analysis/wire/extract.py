"""Whole-program extraction of the wire contract.

Four passes over the parsed modules, all purely syntactic (no imports of
the analyzed code, so the extractor works on fixtures and broken trees
alike):

* **tag tables** — modules that look like :mod:`repro.serial.tags`
  (named ``tags.py`` or defining several canonical tag names) contribute
  their ``UPPER = int`` assignments;
* **registrations** — ``global_registry.register(Cls, name="wire.Name",
  get_state=..., ...)`` calls, both the direct form and the
  loop-over-pairs idiom ``for _cls, _name in ((A, "a"), ...):``;
* **state shapes** — for each registered class, the getter
  (``__getstate__`` or the ``get_state=`` function) yields the field
  list in wire order; the *longest* tuple return is the full shape, the
  setter's unpacking (``*rest`` / ``len(state)`` branching) decides how
  many fields are required, and an ``if base.F`` test anywhere in the
  getter records ``F`` as its own emission guard — the only-widen-when-
  set discipline ``ReplicationMode`` and ``InvokeRequest`` follow;
* **verbs** — every literal RMI verb the flow layer sees
  (:func:`repro.analysis.flow.protocol.verb_events_of`).

The located intermediate (:class:`Extraction`) feeds the wire rules;
:func:`spec_of` collapses it into the canonical :class:`WireSpec`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.flow.protocol import verb_events_of
from repro.analysis.flow.symbols import SymbolTable
from repro.analysis.visitor import dotted_name
from repro.analysis.wire.spec import WireClass, WireField, WireSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource

#: Names whose presence marks a module as a tag table even if it is not
#: literally called ``tags.py`` (fixtures, vendored copies).
_CANONICAL_TAG_NAMES = frozenset(
    {"NONE", "FALSE", "TRUE", "INT", "FLOAT", "STR", "BYTES", "LIST", "TUPLE", "DICT", "OBJECT"}
)
_TAG_MODULE_THRESHOLD = 3

#: Engine cache key (same sharing discipline as the flow Project).
_CACHE_KEY = "wire-extraction"


# ----------------------------------------------------------------------
# located intermediates
# ----------------------------------------------------------------------
@dataclass
class TagAssign:
    name: str
    value: int
    node: ast.Assign


@dataclass
class TagTable:
    module: "ModuleSource"
    assigns: list[TagAssign]


@dataclass
class FieldShape:
    name: str
    optional: bool
    guard: str | None
    node: ast.AST  # the tuple element introducing the field


@dataclass
class RegisteredClass:
    wire_name: str
    class_name: str
    module: "ModuleSource"
    node: ast.Call  # the register(...) call
    classdef: ast.ClassDef | None
    state: str  # "tuple" | "passthrough" | "dict"
    custom_state: bool
    optional_tail: bool
    fields: list[FieldShape] = field(default_factory=list)
    getter: ast.FunctionDef | None = None
    setter: ast.FunctionDef | None = None


@dataclass
class Extraction:
    """Everything the wire passes found, with source locations."""

    modules: list["ModuleSource"]
    tag_tables: list[TagTable]
    classes: list[RegisteredClass]
    verbs: frozenset[str]

    @classmethod
    def build(
        cls, modules: list["ModuleSource"], symtab: SymbolTable | None = None
    ) -> "Extraction":
        if symtab is None:
            symtab = SymbolTable.build(modules)
        tables = [t for m in modules if (t := _tag_table_of(m)) is not None]
        registered: list[RegisteredClass] = []
        for module in modules:
            registered.extend(_registrations_of(module))
        verbs = frozenset(
            event.verb for func in symtab.functions for event in verb_events_of(func)
        )
        return cls(modules=modules, tag_tables=tables, classes=registered, verbs=verbs)

    @classmethod
    def of(cls, modules: list["ModuleSource"], cache: dict) -> "Extraction":
        """The per-run shared instance (see ``ProjectRule``'s cache)."""
        extraction = cache.get(_CACHE_KEY)
        if extraction is None or extraction.modules is not modules:
            # Share the symbol table with the flow rules when possible.
            from repro.analysis.flow.project import Project

            extraction = cls.build(modules, Project.of(modules, cache).symtab)
            cache[_CACHE_KEY] = extraction
        return extraction


# ----------------------------------------------------------------------
# tags
# ----------------------------------------------------------------------
def _tag_table_of(module: "ModuleSource") -> TagTable | None:
    assigns: list[TagAssign] = []
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id.isupper()
            and isinstance(stmt.value, ast.Constant)
            and type(stmt.value.value) is int
        ):
            assigns.append(TagAssign(stmt.targets[0].id, stmt.value.value, stmt))
    if not assigns:
        return None
    stem = module.display_path.replace("\\", "/").rsplit("/", 1)[-1]
    names = {a.name for a in assigns}
    if stem != "tags.py" and len(names & _CANONICAL_TAG_NAMES) < _TAG_MODULE_THRESHOLD:
        return None
    return TagTable(module=module, assigns=assigns)


# ----------------------------------------------------------------------
# registrations
# ----------------------------------------------------------------------
def _is_register_call(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr != "register":
        return False
    base = dotted_name(node.func.value)
    return base is not None and "registry" in base.rsplit(".", 1)[-1].lower()


def _loop_pairs(
    loop: ast.For, cls_var: str, name_var: str
) -> list[tuple[str, str]]:
    """``for _cls, _name in ((A, "a"), (B, "b")):`` → [("A","a"), ...]."""
    if not isinstance(loop.target, ast.Tuple):
        return []
    targets = [t.id for t in loop.target.elts if isinstance(t, ast.Name)]
    if cls_var not in targets or name_var not in targets:
        return []
    cls_at, name_at = targets.index(cls_var), targets.index(name_var)
    if not isinstance(loop.iter, ast.Tuple | ast.List):
        return []
    pairs: list[tuple[str, str]] = []
    for elt in loop.iter.elts:
        if not (isinstance(elt, ast.Tuple) and len(elt.elts) == len(targets)):
            continue
        cls_elt, name_elt = elt.elts[cls_at], elt.elts[name_at]
        if (
            isinstance(cls_elt, ast.Name)
            and isinstance(name_elt, ast.Constant)
            and isinstance(name_elt.value, str)
        ):
            pairs.append((cls_elt.id, name_elt.value))
    return pairs


def _registrations_of(module: "ModuleSource") -> list[RegisteredClass]:
    loops = [n for n in ast.walk(module.tree) if isinstance(n, ast.For)]
    classdefs = {
        n.name: n for n in module.tree.body if isinstance(n, ast.ClassDef)
    }
    functions = {
        n.name: n for n in module.tree.body if isinstance(n, ast.FunctionDef)
    }
    out: list[RegisteredClass] = []
    for call in ast.walk(module.tree):
        if not _is_register_call(call) or not call.args:
            continue
        arg0 = call.args[0]
        if not isinstance(arg0, ast.Name):
            continue
        keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        name_kw = keywords.get("name")
        custom_state = bool(
            {"get_state", "set_state", "factory"} & keywords.keys()
        )
        getter_name = (
            keywords["get_state"].id
            if isinstance(keywords.get("get_state"), ast.Name)
            else None
        )
        setter_name = (
            keywords["set_state"].id
            if isinstance(keywords.get("set_state"), ast.Name)
            else None
        )
        if isinstance(name_kw, ast.Constant) and isinstance(name_kw.value, str):
            pairs = [(arg0.id, name_kw.value)]
        elif isinstance(name_kw, ast.Name):
            loop = next(
                (l for l in loops if any(n is call for n in ast.walk(l))), None
            )
            pairs = _loop_pairs(loop, arg0.id, name_kw.id) if loop is not None else []
        else:
            # No literal wire name — a dynamic registration (porting,
            # decorator helpers) outside the static contract.
            continue
        for class_name, wire_name in pairs:
            classdef = classdefs.get(class_name)
            shape = _state_shape(module, classdef, functions, getter_name, setter_name)
            out.append(
                RegisteredClass(
                    wire_name=wire_name,
                    class_name=class_name,
                    module=module,
                    node=call,
                    classdef=classdef,
                    state=shape.state,
                    custom_state=custom_state,
                    optional_tail=shape.optional_tail,
                    fields=shape.fields,
                    getter=shape.getter,
                    setter=shape.setter,
                )
            )
    return out


# ----------------------------------------------------------------------
# state shapes
# ----------------------------------------------------------------------
@dataclass
class _Shape:
    state: str
    optional_tail: bool
    fields: list[FieldShape]
    getter: ast.FunctionDef | None
    setter: ast.FunctionDef | None


def _method(classdef: ast.ClassDef | None, name: str) -> ast.FunctionDef | None:
    if classdef is None:
        return None
    for stmt in classdef.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _state_shape(
    module: "ModuleSource",
    classdef: ast.ClassDef | None,
    functions: dict[str, ast.FunctionDef],
    getter_name: str | None,
    setter_name: str | None,
) -> _Shape:
    getter = (
        functions.get(getter_name)
        if getter_name is not None
        else _method(classdef, "__getstate__")
    )
    setter = (
        functions.get(setter_name)
        if setter_name is not None
        else _method(classdef, "__setstate__")
    )
    if getter is None:
        # Default reflective state: the instance dict, keyed by name.
        return _Shape("dict", False, [], None, setter)
    base = _first_param(getter)
    returns = [
        r for r in ast.walk(getter) if isinstance(r, ast.Return) and r.value is not None
    ]
    tuple_returns = [r for r in returns if isinstance(r.value, ast.Tuple)]
    if not tuple_returns:
        if not returns:
            return _Shape("dict", False, [], getter, setter)
        value = returns[0].value
        name = _field_name(value, base)
        return _Shape(
            "passthrough",
            False,
            [FieldShape(name=name, optional=False, guard=None, node=value)],
            getter,
            setter,
        )
    longest = max(tuple_returns, key=lambda r: len(r.value.elts))
    elts = longest.value.elts
    names = [_field_name(elt, base) for elt in elts]
    required, optional_tail = _setter_shape(setter, fallback=min(
        len(r.value.elts) for r in tuple_returns
    ))
    required = min(required, len(names))
    guarded = _guard_attrs(getter, base)
    fields = [
        FieldShape(
            name=name,
            optional=index >= required,
            guard=name if (index >= required and name in guarded) else None,
            node=elts[index],
        )
        for index, name in enumerate(names)
    ]
    return _Shape("tuple", optional_tail, fields, getter, setter)


def _first_param(func: ast.FunctionDef) -> str:
    args = func.args
    ordered = [*args.posonlyargs, *args.args]
    return ordered[0].arg if ordered else "self"


def _field_name(node: ast.expr, base: str) -> str:
    """The attribute a state-tuple element carries."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == base
    ):
        return node.attr
    if isinstance(node, ast.Call) and len(node.args) == 1:
        # ``list(iface.methods)`` — a converted attribute.
        return _field_name(node.args[0], base)
    if isinstance(node, ast.Name):
        return node.id
    return ast.unparse(node)


def _setter_shape(setter: ast.FunctionDef | None, *, fallback: int) -> tuple[int, bool]:
    """(required field count, tolerates-short-tuples) from the setter.

    ``a, b, c, *rest = state`` → (3, True); branches on ``len(state)``
    with 4- and 5-name unpacks → (4, True); a plain n-name unpack →
    (n, False).  Without a setter, the narrowest getter return decides.
    """
    if setter is None:
        return fallback, False
    lengths: set[int] = set()
    star_required: int | None = None
    for node in ast.walk(setter):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Tuple):
            continue
        star_at = next(
            (i for i, elt in enumerate(target.elts) if isinstance(elt, ast.Starred)),
            None,
        )
        if star_at is not None:
            star_required = (
                star_at if star_required is None else min(star_required, star_at)
            )
        else:
            lengths.add(len(target.elts))
    if star_required is not None:
        return star_required, True
    if not lengths:
        return fallback, False
    if len(lengths) > 1:
        return min(lengths), True
    return lengths.pop(), False


def _guard_attrs(getter: ast.FunctionDef, base: str) -> set[str]:
    """Attributes of ``base`` referenced by any If test in the getter.

    Both widening disciplines land here: ``if mode.codec: return
    <wide>`` and ``if self.trace is None: return <narrow>``.
    """
    out: set[str] = set()
    for node in ast.walk(getter):
        if not isinstance(node, ast.If):
            continue
        for ref in ast.walk(node.test):
            if (
                isinstance(ref, ast.Attribute)
                and isinstance(ref.value, ast.Name)
                and ref.value.id == base
            ):
                out.add(ref.attr)
    return out


# ----------------------------------------------------------------------
# spec assembly
# ----------------------------------------------------------------------
def spec_of(extraction: Extraction) -> WireSpec:
    """Collapse a located extraction into the canonical spec."""
    tags: dict[str, int] = {}
    for table in extraction.tag_tables:
        for assign in table.assigns:
            tags.setdefault(assign.name, assign.value)
    classes: dict[str, WireClass] = {}
    for reg in extraction.classes:
        classes.setdefault(
            reg.wire_name,
            WireClass(
                cls=reg.class_name,
                module=reg.module.display_path.replace("\\", "/"),
                state=reg.state,
                custom_state=reg.custom_state,
                optional_tail=reg.optional_tail,
                fields=tuple(
                    WireField(name=f.name, optional=f.optional, guard=f.guard)
                    for f in reg.fields
                ),
            ),
        )
    return WireSpec(tags=tags, classes=classes, verbs=tuple(sorted(extraction.verbs)))


def extract_modules(modules: list["ModuleSource"]) -> WireSpec:
    """One-shot: parsed modules → canonical spec (CLI entry point)."""
    return spec_of(Extraction.build(modules))

"""SPEC001: every spec field must be reachable from to_dict/from_dict.

The declarative API round-trips frozen dataclass specs through plain dicts
(``to_dict``/``from_dict``); a field that serialization machinery cannot
see silently drops on save/load and resurfaces as an irreproducible run.
For each frozen dataclass that participates in serialization (inherits the
``_SpecBase`` machinery, declares ``_nested``/``_tuple_fields``, or defines
``to_dict``/``from_dict`` by hand) the rule checks:

* ``_nested`` keys and ``_tuple_fields`` entries name declared fields;
* under the generic ``_SpecBase`` machinery, fields annotated with a
  spec-like type (``*Spec`` or ``RunContext``) are listed in ``_nested`` —
  otherwise ``from_dict`` would hand the constructor a plain dict;
* hand-written ``to_dict``/``from_dict`` overrides either delegate to
  ``super()``, enumerate ``dataclasses.fields(...)`` (generically complete
  by construction), or jointly mention every declared field.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import LintRule
from ..walker import SourceModule

__all__ = ["SpecCoverageRule"]

_SERIALIZER_NAMES: frozenset[str] = frozenset({"to_dict", "from_dict"})


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _annotation_leaf(node: ast.expr) -> str | None:
    """Rightmost name of an annotation (``api.GraphSpec`` -> ``GraphSpec``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1].strip("'\" ")
    if isinstance(node, ast.Subscript):
        # Optional[GraphSpec] / "GraphSpec | None" style wrappers: look inside.
        return _annotation_leaf(node.slice)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_leaf(node.left)
        return left if left is not None else _annotation_leaf(node.right)
    return None


def _string_keys(node: ast.expr) -> list[tuple[str, ast.expr]] | None:
    """(key, key-node) pairs of a dict literal with constant-string keys."""
    if not isinstance(node, ast.Dict):
        return None
    pairs = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            pairs.append((key.value, key))
    return pairs


def _string_elements(node: ast.expr) -> list[tuple[str, ast.expr]]:
    """(value, node) pairs of constant strings in a tuple/list/set literal."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return []
    return [
        (element.value, element)
        for element in node.elts
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]


class SpecCoverageRule(LintRule):
    """SPEC001: spec dataclass fields vs. their serialization machinery."""

    rule_id = "SPEC001"
    summary = (
        "frozen spec dataclass has a field invisible to to_dict/from_dict "
        "(or serialization metadata naming an unknown field)"
    )
    exempt_fragments = ("/tests/", "tests/conftest")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: SourceModule, node: ast.ClassDef
    ) -> Iterator[Finding]:
        fields = self._declared_fields(node)
        metadata = self._class_metadata(node)
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name in _SERIALIZER_NAMES
        }
        has_spec_base = any(
            "SpecBase" in (base.id if isinstance(base, ast.Name) else getattr(base, "attr", ""))
            for base in node.bases
        )
        if not (has_spec_base or metadata or methods):
            # Plain frozen dataclass with no serialization surface at all
            # (e.g. an internal record type): nothing to cross-check.
            return
        field_names = {name for name, _ in fields}
        for meta_name, entries in metadata.items():
            for key, key_node in entries:
                if key not in field_names:
                    yield self.finding(
                        module,
                        key_node,
                        f"{node.name}.{meta_name} names {key!r} which is not "
                        "a declared field",
                    )
        if has_spec_base:
            nested_keys = {key for key, _ in metadata.get("_nested", [])}
            for name, annotation in fields:
                leaf = _annotation_leaf(annotation) if annotation is not None else None
                if leaf is None:
                    continue
                if (leaf.endswith("Spec") or leaf == "RunContext") and name not in nested_keys:
                    yield self.finding(
                        module,
                        annotation,
                        f"{node.name}.{name} is a nested {leaf} but is "
                        "missing from _nested; from_dict would leave it a "
                        "plain dict",
                    )
        yield from self._check_overrides(module, node, methods, field_names)

    def _check_overrides(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        methods: dict[str, ast.FunctionDef],
        field_names: set[str],
    ) -> Iterator[Finding]:
        """Check hand-written serializers jointly.

        Fields must be reachable from the to_dict/from_dict *pair*: a field
        mentioned by either method counts (e.g. a runtime-only field that
        ``from_dict`` explicitly rejects).  A method that delegates to
        ``super()`` or enumerates ``dataclasses.fields(...)`` covers every
        field by construction.
        """
        if not methods:
            return
        mentioned: set[str] = set()
        for method in methods.values():
            if self._delegates_to_super(method) or self._enumerates_fields(method):
                return
            for child in ast.walk(method):
                if isinstance(child, ast.Attribute):
                    mentioned.add(child.attr)
                elif isinstance(child, ast.Name):
                    mentioned.add(child.id)
                elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                    mentioned.add(child.value)
                elif isinstance(child, ast.keyword) and child.arg is not None:
                    mentioned.add(child.arg)
        anchor = min(methods.values(), key=lambda method: method.lineno)
        names = "/".join(sorted(methods))
        for name in sorted(field_names - mentioned):
            yield self.finding(
                module,
                anchor,
                f"{cls.name}.{names} never mention field {name!r}; "
                "the field would be dropped on round-trip",
            )

    def _delegates_to_super(self, method: ast.FunctionDef) -> bool:
        for child in ast.walk(method):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Call)
                and isinstance(child.func.value.func, ast.Name)
                and child.func.value.func.id == "super"
                and child.func.attr in _SERIALIZER_NAMES
            ):
                return True
        return False

    def _enumerates_fields(self, method: ast.FunctionDef) -> bool:
        """Whether the method iterates ``dataclasses.fields(...)``."""
        for child in ast.walk(method):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            leaf = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if leaf == "fields":
                return True
        return False

    def _declared_fields(
        self, node: ast.ClassDef
    ) -> list[tuple[str, ast.expr | None]]:
        fields: list[tuple[str, ast.expr | None]] = []
        for item in node.body:
            if not isinstance(item, ast.AnnAssign):
                continue
            if not isinstance(item.target, ast.Name):
                continue
            name = item.target.id
            if name.startswith("_"):
                continue
            annotation_text = ast.dump(item.annotation)
            if "ClassVar" in annotation_text:
                continue
            fields.append((name, item.annotation))
        return fields

    def _class_metadata(
        self, node: ast.ClassDef
    ) -> dict[str, list[tuple[str, ast.expr]]]:
        """Literal contents of ``_nested`` / ``_tuple_fields`` declarations."""
        metadata: dict[str, list[tuple[str, ast.expr]]] = {}
        for item in node.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(item, ast.AnnAssign) and item.value is not None:
                target, value = item.target, item.value
            elif isinstance(item, ast.Assign) and len(item.targets) == 1:
                target, value = item.targets[0], item.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if target.id == "_nested":
                pairs = _string_keys(value)
                if pairs is not None:
                    metadata["_nested"] = pairs
            elif target.id == "_tuple_fields":
                metadata["_tuple_fields"] = _string_elements(value)
        return metadata

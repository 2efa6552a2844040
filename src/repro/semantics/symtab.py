"""Scopes and binding contours.

The first stage of semantic analysis gathers type names introduced by
``typedef`` declarations into a *binding contour* per scope, which is
then propagated through the scope (paper Figure 8a/b).  Identifier
namespace decisions -- is ``a`` a type name or an ordinary identifier
here? -- are then simple scope lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator


class Namespace(Enum):
    """Which identifier namespace a binding occupies.

    The typedef problem exists precisely because C's context-free syntax
    cannot distinguish these namespaces without binding information.
    """

    TYPE = "type"
    ORDINARY = "ordinary"  # variables, functions


@dataclass(frozen=True)
class Binding:
    """One name binding."""

    name: str
    namespace: Namespace
    kind: str  # "typedef", "var", "param", "func"
    node: object = None  # the declaring parse-DAG node


class Scope:
    """A lexical scope: one binding contour plus a parent chain."""

    def __init__(self, parent: "Scope | None" = None) -> None:
        self.parent = parent
        self._bindings: dict[str, Binding] = {}

    def bind(self, binding: Binding) -> None:
        """Add a binding; later bindings shadow earlier ones in-scope."""
        self._bindings[binding.name] = binding

    def lookup_local(self, name: str) -> Binding | None:
        return self._bindings.get(name)

    def lookup(self, name: str) -> Binding | None:
        """Innermost-scope-first lookup."""
        scope: Scope | None = self
        while scope is not None:
            binding = scope._bindings.get(name)
            if binding is not None:
                return binding
            scope = scope.parent
        return None

    def is_type_name(self, name: str) -> bool:
        """The namespace decision at the heart of the typedef problem."""
        binding = self.lookup(name)
        return binding is not None and binding.namespace is Namespace.TYPE

    def bindings(self) -> Iterator[Binding]:
        yield from self._bindings.values()

    def depth(self) -> int:
        depth = 0
        scope = self.parent
        while scope is not None:
            depth += 1
            scope = scope.parent
        return depth

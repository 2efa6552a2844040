"""Cross-document typedef dependency tracking.

A *project* is a set of named documents (service sessions) where some
documents depend on others for type names — minic's stand-in for
``#include`` semantics, declared explicitly through the service's
``depends`` op rather than parsed out of the text.

:class:`ProjectGraph` is the bookkeeping core: a dependency DAG plus a
cache of each document's *exported* typedef names (global-scope
typedefs, :meth:`TypedefAnalyzer.exported_typedefs`).  The cache is
keyed by document name, not live session, so it survives LRU eviction
of the exporting session; dependents opened later still see the last
announced exports.

The graph itself is deliberately transport-free: the service layers
(`SessionManager` in-process, `ShardDispatcher` across workers) own the
propagation of "names changed" deltas to dependent sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ProjectGraph:
    """Dependency DAG + per-document export cache."""

    # dependent -> the documents it imports type names from
    _deps: dict[str, set[str]] = field(default_factory=dict)
    # dependency -> the documents importing from it
    _rdeps: dict[str, set[str]] = field(default_factory=dict)
    # document -> last announced exported typedef names
    _exports: dict[str, set[str]] = field(default_factory=dict)

    # -- edges -------------------------------------------------------------

    def depend(self, dependent: str, dependency: str) -> None:
        """Record that ``dependent`` imports type names from ``dependency``."""
        if dependent == dependency:
            raise ValueError("a document cannot depend on itself")
        self._deps.setdefault(dependent, set()).add(dependency)
        self._rdeps.setdefault(dependency, set()).add(dependent)

    def drop_dependent(self, name: str) -> None:
        """Forget the edges *out of* ``name`` (its imports).

        Exports and incoming edges survive: other documents may still
        depend on ``name`` even after its session closes.
        """
        for dependency in self._deps.pop(name, set()):
            peers = self._rdeps.get(dependency)
            if peers is not None:
                peers.discard(name)
                if not peers:
                    del self._rdeps[dependency]

    def dependents_of(self, name: str) -> set[str]:
        return set(self._rdeps.get(name, ()))

    def dependencies_of(self, name: str) -> set[str]:
        return set(self._deps.get(name, ()))

    def has_dependencies(self, name: str) -> bool:
        return bool(self._deps.get(name))

    def is_dependency(self, name: str) -> bool:
        return bool(self._rdeps.get(name))

    # -- exports -----------------------------------------------------------

    def exports(self, name: str) -> set[str]:
        return set(self._exports.get(name, ()))

    def update_exports(
        self, name: str, names: set[str]
    ) -> tuple[set[str], set[str]]:
        """Replace ``name``'s export set; return ``(added, removed)``."""
        previous = self._exports.get(name, set())
        names = set(names)
        self._exports[name] = names
        return names - previous, previous - names

    def seed_exports(self, name: str, names: set[str]) -> None:
        """Install an export set without computing a delta (cross-shard
        seeding: the authoritative delta was produced elsewhere)."""
        self._exports[name] = set(names)

    def record_delta(
        self,
        dependent: str,
        dependency: str,
        added: set[str],
        removed: set[str],
    ) -> None:
        """Record an export delta of ``dependency`` pushed to ``dependent``
        from elsewhere (a cross-shard ``invalidate``): the edge plus the
        patched export cache, so a later rehydration of ``dependent``
        re-seeds the current names.  Idempotent."""
        self.depend(dependent, dependency)
        exports = self._exports.setdefault(dependency, set())
        exports |= added
        exports -= removed

    def imports_for(self, name: str) -> set[str]:
        """Union of the cached exports of everything ``name`` depends on."""
        imported: set[str] = set()
        for dependency in self._deps.get(name, ()):
            imported |= self._exports.get(dependency, set())
        return imported

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "dependents": len(self._deps),
            "dependencies": len(self._rdeps),
            "edges": sum(len(v) for v in self._deps.values()),
            "documents_with_exports": len(self._exports),
            "exported_names": sum(len(v) for v in self._exports.values()),
        }

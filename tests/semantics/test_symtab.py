"""Unit tests for scopes and their binding contours."""

from repro.semantics import Binding, Namespace, Scope


def bind(scope, name, namespace=Namespace.ORDINARY, kind="var"):
    binding = Binding(name, namespace, kind)
    scope.bind(binding)
    return binding


class TestScope:
    def test_local_lookup(self):
        scope = Scope()
        binding = bind(scope, "x")
        assert scope.lookup("x") is binding
        assert scope.lookup_local("x") is binding

    def test_missing_name(self):
        assert Scope().lookup("nope") is None

    def test_parent_chain(self):
        outer = Scope()
        inner = Scope(outer)
        binding = bind(outer, "x")
        assert inner.lookup("x") is binding
        assert inner.lookup_local("x") is None

    def test_shadowing(self):
        outer = Scope()
        inner = Scope(outer)
        bind(outer, "x", Namespace.TYPE, "typedef")
        shadow = bind(inner, "x", Namespace.ORDINARY, "var")
        assert inner.lookup("x") is shadow
        assert outer.lookup("x").namespace is Namespace.TYPE

    def test_rebinding_replaces(self):
        scope = Scope()
        bind(scope, "x", Namespace.TYPE)
        second = bind(scope, "x", Namespace.ORDINARY)
        assert scope.lookup("x") is second

    def test_is_type_name(self):
        scope = Scope()
        bind(scope, "T", Namespace.TYPE, "typedef")
        bind(scope, "v")
        assert scope.is_type_name("T")
        assert not scope.is_type_name("v")
        assert not scope.is_type_name("unknown")

    def test_depth(self):
        a = Scope()
        b = Scope(a)
        c = Scope(b)
        assert (a.depth(), b.depth(), c.depth()) == (0, 1, 2)

    def test_bindings_iteration(self):
        scope = Scope()
        bind(scope, "x")
        bind(scope, "y")
        assert {b.name for b in scope.bindings()} == {"x", "y"}

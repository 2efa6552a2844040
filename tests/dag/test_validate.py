"""The invariant validator must catch seeded corruption."""

import pytest

from repro import Document, Language
from repro.dag.nodes import ProductionNode, TerminalNode
from repro.dag.validate import (
    InvariantError,
    check_document,
    validate_document,
    validate_tree,
    validation_enabled,
)
from repro.langs import get_language
from repro.lexing.tokens import Token

LANG = Language.from_dsl(
    """
%token NUM /[0-9]+/
%token ID /[a-z]+/
program : stmt* ;
stmt : ID '=' NUM ';' ;
"""
)


def parsed_doc(text="a = 1; b = 2;"):
    doc = Document(LANG, text)
    doc.parse()
    return doc


def some_stmt(doc):
    stack = [doc.tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ProductionNode) and node.production.lhs == "stmt":
            return node
        stack.extend(node.kids)
    raise AssertionError("no stmt node found")


class TestCleanDocuments:
    def test_committed_document_validates(self):
        assert validate_document(parsed_doc()) == []

    def test_unparsed_document_validates_vacuously(self):
        assert validate_document(Document(LANG, "((")) == []

    def test_check_document_passes(self):
        check_document(parsed_doc())  # no raise


class TestSeededCorruption:
    def test_broken_parent_link(self):
        doc = parsed_doc()
        stmt = some_stmt(doc)
        stmt.kids[0].parent = None
        problems = validate_tree(doc.tree)
        assert any("no parent link" in p for p in problems)

    def test_parent_outside_tree(self):
        doc = parsed_doc()
        stmt = some_stmt(doc)
        orphan = ProductionNode(stmt.production, stmt.kids)
        stmt.kids[0].parent = orphan
        problems = validate_tree(doc.tree)
        assert problems  # chain no longer reaches the root

    def test_stale_yield_width(self):
        doc = parsed_doc()
        stmt = some_stmt(doc)
        stmt.n_terms += 1
        problems = validate_tree(doc.tree)
        assert any("n_terms" in p for p in problems)

    def test_stream_node_replaced_by_copy(self):
        doc = parsed_doc()
        doc.tokens = [TerminalNode(doc.tokens[0].token)] + doc.tokens[1:]
        problems = validate_document(doc)
        assert any("node stream" in p for p in problems)

    def test_terminal_dropped_from_stream(self):
        doc = parsed_doc()
        doc.tokens = doc.tokens[1:]
        problems = validate_document(doc)
        assert any("node stream" in p for p in problems)

    def test_text_mismatch(self):
        doc = parsed_doc()
        doc.text += " trailing"
        problems = validate_document(doc)
        assert any("reconstruct" in p for p in problems)

    def test_leaked_scratch_state(self):
        doc = parsed_doc()
        doc._removed_nodes = [TerminalNode(Token("ID", "leak"))]
        problems = validate_document(doc)
        assert any("removed nodes survive" in p for p in problems)

    def test_check_document_raises(self):
        doc = parsed_doc()
        some_stmt(doc).n_terms += 1
        with pytest.raises(InvariantError):
            check_document(doc)


class TestEnableSwitch:
    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert not validation_enabled()
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert not validation_enabled()
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert validation_enabled()

    def test_parse_checks_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        doc = parsed_doc()  # parse under validation: must not raise
        doc.edit(4, 1, "9")
        doc.parse()


class TestRegressions:
    """Edits that once committed a tree breaking the invariants."""

    def test_repair_inside_error_region_refreshes_its_width(self):
        """Sequence repair splices into a sequence an error node
        salvaged; the error node's cached width must follow."""
        text = (
            "  p3 = (p3 / 77) + (p3 / p3);\n  p3 (x4);\n  T1 * x5;\n"
            "  T1 * x6;\n  p3 = p3;\n  if (49 - 55) p3 = p3 / 66 * p3 / 28;\n"
            "  int v8;\n}\n"
        )
        doc = Document(get_language("minic"), text, balanced_sequences=True)
        assert doc.parse().error_regions == 1
        doc.delete(82, 3)
        doc.parse()
        assert validate_document(doc) == []

    def test_items_spliced_under_new_parts_get_in_tree_parents(self):
        """The commit's re-adoption sweep reaches new items below the
        sequence parts built this commit, so no terminal keeps a parent
        from a dead parse branch."""
        text = (
            "typedef int T1;\nint fn2(int p3) {\n  return 22;\n"
            "  p3 = (int *) p3;\n  while (p3) p3 = p3 - 1;\n  p3 (x4);\n"
            "  T1 * x5;\n  p3 (x6);\n  p3 = (84 * p3 / (p3 - 45));\n}\n"
        )
        doc = Document(get_language("fullc"), text, balanced_sequences=True)
        doc.parse(recover=False)
        doc.edit(64, 3, ";;")
        doc.edit(127, 3, "")
        doc.parse(recover=False)
        assert validate_document(doc) == []

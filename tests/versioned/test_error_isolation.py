"""Error-node isolation: malformed input commits a tree (paper 4.3)."""

import random

import pytest

from repro import Document, Language, obs
from repro.dag.nodes import ErrorNode, ProductionNode
from repro.dag.traversal import error_regions
from repro.dag.validate import validate_document
from repro.langs import get_language
from repro.langs.generators import generate_program
from repro.parser import ParseError

LANG = Language.from_dsl(
    """
%token NUM /[0-9]+/
%token ID /[a-z]+/
program : stmt* ;
stmt : ID '=' NUM ';' ;
"""
)


def salvaged_stmts(root):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ProductionNode) and node.production.lhs == "stmt":
            out.append(node)
            continue
        stack.extend(node.kids)
    return out


class TestFreshDocumentIsolation:
    def test_bad_fresh_document_commits_with_error_regions(self):
        doc = Document(LANG, "a = 1; ) ( b = 2;")
        report = doc.parse()
        assert report.recovered
        assert report.error_regions >= 1
        assert doc.version == 1
        assert doc.has_errors
        assert doc.source_text() == "a = 1; ) ( b = 2;"
        assert validate_document(doc) == []

    def test_wellformed_structure_is_salvaged_around_errors(self):
        doc = Document(LANG, "a = 1; ??? b = 2; c = 3;")
        doc.parse()
        # The error is confined; the surrounding statements survive as
        # ordinary productions that later analyses (and reuse) can see.
        assert len(salvaged_stmts(doc.tree)) >= 3
        regions = error_regions(doc.tree)
        assert regions
        assert all(isinstance(r, ErrorNode) for r in regions)

    def test_pure_garbage_is_one_region(self):
        doc = Document(LANG, "??? ;;; (((")
        report = doc.parse()
        assert report.recovered
        assert doc.source_text() == "??? ;;; ((("

    def test_clean_parse_reports_no_errors(self):
        doc = Document(LANG, "a = 1;")
        report = doc.parse()
        assert not report.recovered
        assert report.error_regions == 0
        assert not doc.has_errors

    def test_recover_false_leaves_fresh_document_pristine(self):
        doc = Document(LANG, "a = 1; )))")
        with pytest.raises(ParseError):
            doc.parse(recover=False)
        assert doc.tree is None
        assert doc.version == 0
        assert doc.tokens == []


class TestEditingThroughErrors:
    def test_fixing_edit_clears_error_regions(self):
        doc = Document(LANG, "a = 1; b 2;")  # missing '='
        report = doc.parse()
        assert report.recovered and doc.has_errors
        doc.insert(doc.text.index("2"), "= ")
        report = doc.parse()
        assert report.error_regions == 0
        assert not doc.has_errors
        assert doc.source_text() == "a = 1; b = 2;"
        assert validate_document(doc) == []

    def test_edit_that_keeps_errors_reisolates(self):
        doc = Document(LANG, "a = 1; b 2;")
        doc.parse()
        doc.insert(0, "q = 9; ")  # good prefix, error still present
        report = doc.parse()
        assert report.recovered
        assert report.error_regions >= 1
        assert doc.source_text() == "q = 9; a = 1; b 2;"
        assert validate_document(doc) == []

    def test_breaking_edit_on_clean_document_still_reverts(self):
        # A clean committed version exists, so the ladder prefers
        # history-sensitive reversion over isolation (paper 4.3).
        doc = Document(LANG, "a = 1;")
        doc.parse()
        doc.insert(0, "(((")
        report = doc.parse()
        assert report.reverted_edits
        assert not report.recovered
        assert doc.source_text() == "a = 1;"

    def test_error_sessions_converge_to_clean(self):
        doc = Document(LANG, "x 1;")
        doc.parse()
        assert doc.has_errors
        doc.insert(doc.text.index("1"), "= ")
        doc.parse()
        assert not doc.has_errors
        for _ in range(2):
            doc.edit(4, 1, "7")
            report = doc.parse()
            assert report.fully_incorporated and not report.recovered

    def test_version_advances_per_isolated_commit(self):
        doc = Document(LANG, "a 1;")
        doc.parse()
        assert doc.version == 1
        doc.insert(0, ")")
        doc.parse()
        assert doc.version == 2


class TestRepairAfterIsolation:
    @pytest.mark.parametrize(
        "balanced", [True, False], ids=["balanced", "spines"]
    )
    def test_removing_a_confined_error_parses_incrementally(self, balanced):
        # Isolation salvages "a = 1;" as a whole program sentence; the
        # repaired text must parse without recovery, not be re-isolated.
        doc = Document(
            get_language("calc"),
            "a = 1; b = 2 ) ; c = 3; d = 4;",
            balanced_sequences=balanced,
        )
        assert doc.parse().error_regions == 1
        doc.edit(doc.text.index(")"), 1, "")
        with obs.collecting() as work:
            report = doc.parse(recover=False)
        assert work.get("doc.recoveries", 0) == 0
        assert not report.recovered and not doc.has_errors
        assert doc.source_text() == "a = 1; b = 2  ; c = 3; d = 4;"
        assert validate_document(doc) == []


def token_spans(doc):
    """(offset, text) of every non-empty token, trivia skipped."""
    spans = []
    offset = 0
    for node in doc.tokens:
        token = node.token
        offset += len(token.trivia)
        if token.text:
            spans.append((offset, token.text))
        offset += len(token.text)
    return spans


@pytest.mark.fuzz
@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "spines"])
@pytest.mark.parametrize("name", ["calc", "minic", "fullc"])
def test_retyping_a_deleted_token_parses_without_recovery(name, balanced):
    """Delete a token, isolate, type it back: valid text parses as is."""
    lang = get_language(name)
    rng = random.Random(f"retype-{name}-{balanced}")
    for trial in range(20):
        doc = Document(
            lang, generate_program(name, 8, seed=trial),
            balanced_sequences=balanced,
        )
        doc.parse(recover=False)
        at, text = rng.choice(token_spans(doc))
        doc.edit(at, len(text), "")
        doc.isolate()
        doc.edit(at, 0, text)
        report = doc.parse(recover=False)
        assert not report.recovered, (trial, at, text)
        assert doc.source_text() == doc.text
        assert validate_document(doc) == []

"""Fault injection: every crash point must roll back transactionally."""

import pytest

from repro import Document, Language
from repro.dag.validate import validate_document
from repro.langs.calc import calc_language
from repro.testing import InjectedFault, inject, observed_points

pytestmark = pytest.mark.faults

LANG = Language.from_dsl(
    """
%token NUM /[0-9]+/
%token ID /[a-z]+/
program : stmt* ;
stmt : ID '=' NUM ';' ;
"""
)

COMMIT_POINTS = [
    "commit:start",
    "commit:adopted",
    "commit:collapsed",
    "commit:rooted",
]
RECOVER_POINTS = ["recover:after-revert"]
REPAIR_POINTS = ["repair:before-splice", "repair:after-splice"]


def fresh_doc(text="a = 1; b = 2;"):
    doc = Document(LANG, text)
    doc.parse()
    return doc


def state_of(doc):
    return (
        doc.version,
        doc.text,
        doc.source_text(),
        [t.text for t in doc.tokens],
        len(doc._edit_log),
    )


class TestDiscovery:
    """Crash points are enumerated, not hard-coded into a stale list."""

    def test_commit_points_observed(self):
        doc = fresh_doc()
        doc.edit(4, 1, "7")
        points = observed_points(doc.parse)
        assert set(COMMIT_POINTS) <= set(points)

    def test_recovery_points_observed(self):
        doc = fresh_doc()
        doc.insert(0, "(((")
        points = observed_points(doc.parse)
        assert set(RECOVER_POINTS) <= set(points)

    def test_isolation_point_observed(self):
        doc = Document(LANG, "a = 1; )))")
        points = observed_points(doc.parse)
        assert "isolate:reparse" in points

    def test_repair_points_observed(self):
        doc = Document(calc_language(), "a = 1; b = 2; c = 3;",
                       balanced_sequences=True)
        doc.parse()
        doc.edit(doc.text.index("2"), 1, "55")
        points = observed_points(doc.parse)
        assert set(REPAIR_POINTS) <= set(points)

    def test_disarmed_points_do_nothing(self):
        doc = fresh_doc()
        doc.edit(4, 1, "7")
        assert doc.parse().fully_incorporated  # no plan armed


class TestCommitCrashes:
    @pytest.mark.parametrize("point", COMMIT_POINTS)
    def test_rollback_then_clean_retry(self, point):
        doc = fresh_doc()
        doc.edit(4, 1, "7")
        before = state_of(doc)
        with inject(point):
            with pytest.raises(InjectedFault):
                doc.parse()
        assert state_of(doc) == before  # edit still pending, tree intact
        report = doc.parse()
        assert report.fully_incorporated
        assert doc.source_text() == "a = 7; b = 2;"
        assert validate_document(doc) == []

    @pytest.mark.parametrize("point", COMMIT_POINTS)
    def test_first_parse_crash_leaves_pristine(self, point):
        doc = Document(LANG, "a = 1;")
        with inject(point):
            with pytest.raises(InjectedFault):
                doc.parse()
        assert doc.tree is None and doc.version == 0
        assert doc.parse().fully_incorporated


class TestRecoveryCrashes:
    @pytest.mark.parametrize("point", RECOVER_POINTS)
    def test_rollback_keeps_bad_edit_pending(self, point):
        doc = fresh_doc()
        doc.insert(0, "(((")
        before = state_of(doc)
        with inject(point):
            with pytest.raises(InjectedFault):
                doc.parse()
        assert state_of(doc) == before  # rolled back to pre-parse state
        report = doc.parse()  # recovery then completes normally
        assert report.reverted_edits
        assert doc.source_text() == "a = 1; b = 2;"
        assert validate_document(doc) == []

    def test_isolation_crash_leaves_fresh_document_pristine(self):
        doc = Document(LANG, "a = 1; )))")
        with inject("isolate:reparse"):
            with pytest.raises(InjectedFault):
                doc.parse()
        assert doc.tree is None and doc.version == 0
        report = doc.parse()
        assert report.recovered
        assert validate_document(doc) == []


class TestRepairCrashes:
    @pytest.mark.parametrize("point", REPAIR_POINTS)
    def test_splice_crash_rolls_back_committed_tree(self, point):
        # The repair path splices into the *committed* tree before any
        # commit step runs, which is exactly why rollback must cover it.
        doc = Document(calc_language(), "a = 1; b = 2; c = 3;",
                       balanced_sequences=True)
        doc.parse()
        doc.edit(doc.text.index("2"), 1, "55")
        before = state_of(doc)
        with inject(point):
            with pytest.raises(InjectedFault):
                doc.parse()
        assert state_of(doc) == before
        doc.parse()
        assert doc.source_text() == "a = 1; b = 55; c = 3;"
        assert validate_document(doc) == []


class TestPlanMechanics:
    def test_after_skips_early_arrivals(self):
        doc = fresh_doc()
        doc.edit(4, 1, "7")
        doc.parse()
        doc.edit(4, 1, "9")
        # commit:start fires once per commit; after=1 lets this parse's
        # single arrival pass and the fault never triggers.
        with inject("commit:start", after=1) as plan:
            doc.parse()
        assert plan.hits["commit:start"] == 1

    def test_plans_nest_and_restore(self):
        doc = fresh_doc()
        with inject(None) as outer:
            with inject("commit:start"):
                doc.edit(4, 1, "7")
                with pytest.raises(InjectedFault):
                    doc.parse()
            doc.parse()  # outer plan (recording only) is active again
        assert outer.hits["commit:start"] >= 1

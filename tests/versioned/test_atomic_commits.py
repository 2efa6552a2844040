"""Every version change is atomic, its invariant check included.

A :class:`Document` changes version in four ways: an incremental parse,
a balanced-sequence repair, a reversion trial of the recovery ladder,
and isolation.  Each runs in one rollback scope that also runs the
``REPRO_VALIDATE`` check, so an invariant failure found after a
completed commit still leaves the document exactly as it was on entry.

Isolation never fails on syntax: the tolerant parse confines every
error to a region, so :meth:`Document.isolate` commits on any text.
"""

import random

import pytest

from repro import Document, Language
from repro.dag import validate
from repro.dag.validate import InvariantError, validate_document
from repro.langs import get_language, language_names
from repro.langs.calc import calc_language
from repro.langs.generators import generate_program
from repro.testing import inject

LANG = Language.from_dsl(
    """
%token NUM /[0-9]+/
%token ID /[a-z]+/
program : stmt* ;
stmt : ID '=' NUM ';' ;
"""
)


@pytest.fixture
def broken_check(monkeypatch):
    """Validation on; while the returned list is non-empty, every check
    reports a problem."""
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    armed = []
    real = validate.validate_document

    def report(doc):
        return ["injected violation"] if armed else real(doc)

    monkeypatch.setattr(validate, "validate_document", report)
    return armed


def committed(lang=LANG, text="a = 1; b = 2; c = 3;", balanced=False):
    """A document whose last commit removed a terminal."""
    doc = Document(lang, text, balanced_sequences=balanced)
    doc.parse()
    doc.edit(text.index("1"), 1, "4")
    doc.parse()
    assert doc.last_removed_terminals
    return doc


def state_of(doc):
    return {
        "version": doc.version,
        "text": doc.text,
        "dirty": doc.dirty,
        "has_errors": doc.has_errors,
        "error_regions": doc._error_count,
        "tree": doc.tree,
        "tokens": list(doc.tokens),
        "last_removed": list(doc.last_removed_terminals),
    }


def assert_as_before(doc, before):
    after = state_of(doc)
    for key in ("version", "text", "dirty", "has_errors", "error_regions"):
        assert after[key] == before[key], key
    assert after["tree"] is before["tree"]
    for key in ("tokens", "last_removed"):
        assert len(after[key]) == len(before[key]), key
        assert all(a is b for a, b in zip(after[key], before[key])), key


def fails_and_rolls_back(doc, armed, operation):
    """``operation`` raises InvariantError and changes nothing; then,
    with a working check, the document commits normally."""
    before = state_of(doc)
    armed.append(True)
    with pytest.raises(InvariantError):
        operation()
    assert_as_before(doc, before)
    armed.clear()
    operation()
    assert validate_document(doc) == []


@pytest.mark.faults
class TestFailedCheckRollsBack:
    def test_clean_incremental_edit(self, broken_check):
        doc = committed()
        doc.edit(doc.text.index("2"), 1, "7")
        fails_and_rolls_back(doc, broken_check, doc.parse)
        assert doc.text == doc.source_text() == "a = 4; b = 7; c = 3;"

    def test_sequence_repair_edit(self, broken_check):
        doc = committed(calc_language(), balanced=True)
        doc.edit(doc.text.index("2"), 1, "55")
        with inject(None) as plan:
            fails_and_rolls_back(doc, broken_check, doc.parse)
        # Repaired twice, by the rolled-back parse and by the retry.
        assert plan.hits.get("repair:after-splice") == 2
        assert plan.hits.get("commit:start") is None
        assert doc.source_text() == "a = 4; b = 55; c = 3;"

    def test_edit_the_ladder_reverts(self, broken_check):
        doc = committed()
        doc.edit(0, 0, "(((")
        fails_and_rolls_back(doc, broken_check, doc.parse)
        assert doc.source_text() == "a = 4; b = 2; c = 3;"

    def test_isolation_rung_of_an_erroneous_document(self, broken_check):
        doc = Document(calc_language(), "a = 1; b = 2; ) c = 3; d = 4;",
                       balanced_sequences=True)
        doc.parse()
        doc.edit(doc.text.index("1"), 1, "9")  # repaired beside the error
        doc.parse()
        assert doc.has_errors and doc.last_removed_terminals
        doc.edit(len(doc.text), 0, " ((")
        fails_and_rolls_back(doc, broken_check, doc.parse)
        assert doc.has_errors and not doc.dirty

    def test_isolate_directly(self, broken_check):
        doc = committed()
        doc.edit(doc.text.index("b"), 0, ") ")
        fails_and_rolls_back(doc, broken_check, doc.isolate)
        assert doc.has_errors
        assert doc.source_text() == "a = 4; ) b = 2; c = 3;"

    def test_fresh_document(self, broken_check):
        doc = Document(LANG, "a = 1; ) b = 2;")
        fails_and_rolls_back(doc, broken_check, doc.parse)
        assert doc.has_errors and doc.version == 1


JUNK = ["(", ")", "{", "}", ";", ",", "=", "*", "@", "#", "int ", "typedef ",
        "x", "7", " ", "\n", "if (", "end"]


def junk(rng, pieces):
    return "".join(rng.choice(JUNK) for _ in range(pieces))


@pytest.mark.fuzz
@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "spines"])
@pytest.mark.parametrize("name", language_names())
def test_isolate_is_total(name, balanced):
    """Isolation commits whatever the text: junk on a fresh document,
    junk inserted into a committed one."""
    lang = get_language(name)
    rng = random.Random(f"{name}-{balanced}")
    program = generate_program(name, 6, seed=1)
    for _ in range(3):
        doc = Document(lang, junk(rng, 12), balanced_sequences=balanced)
        report = doc.isolate()
        assert report.recovered and doc.version == 1
        assert doc.source_text() == doc.text
        assert validate_document(doc) == []

        doc = Document(lang, program, balanced_sequences=balanced)
        doc.parse(recover=False)
        doc.edit(rng.randrange(len(doc.text) + 1), 0, junk(rng, 4))
        report = doc.isolate()
        assert report.recovered and doc.version == 2 and not doc.dirty
        assert doc.source_text() == doc.text
        assert validate_document(doc) == []

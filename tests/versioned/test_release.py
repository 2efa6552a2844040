"""`Document.release()`: a dropped document's DAG is freed by refcounting.

The parse DAG is parent-linked, so a document let go of without a
release is one reference cycle the cyclic collector must find.  After
``release()`` no node of the document may be cyclic garbage, whatever
the document last did: an ordinary incremental parse, a sequence
repair, an isolation, or a ``recover=False`` failure that rolled back.
The released document keeps its text and version and parses again from
scratch.
"""

import gc
import re
from contextlib import contextmanager

import pytest

from repro import Document, obs
from repro.dag.nodes import Node
from repro.dag.validate import validate_document
from repro.langs import get_language, language_names
from repro.langs.generators import generate_program, generate_scenario
from repro.parser import ParseError


@contextmanager
def cyclic_garbage():
    """Count the parse-DAG nodes the block leaves to the cyclic collector.

    Earlier garbage is collected first, so only what the block lets go
    of is counted; the count is ``found["nodes"]`` after the block.
    """
    found = {"nodes": 0}
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found["nodes"] = sum(isinstance(obj, Node) for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def released(doc: Document) -> int:
    """Release ``doc``; the nodes it let go of that are cyclic garbage."""
    with cyclic_garbage() as found:
        doc.release()
    return found["nodes"]


def edited_document(name: str = "minic", balanced: bool = True) -> Document:
    text, script = generate_scenario(name, 40, seed=2, n_steps=4)
    doc = Document(get_language(name), text, balanced_sequences=balanced)
    doc.parse(recover=False)
    for step in script:
        doc.edit(step.offset, step.remove, step.insert)
        doc.parse(recover=False)
    return doc


def test_a_dropped_document_is_cyclic_garbage_without_release():
    """The baseline the release removes."""
    holder = [edited_document()]
    with cyclic_garbage() as found:
        holder.clear()
    assert found["nodes"] > 100


def test_release_keeps_text_and_version_and_reparses_from_scratch():
    doc = edited_document()
    text, version = doc.text, doc.version
    doc.release()
    assert doc.tree is None and doc.tokens == [] and doc.last_result is None
    assert doc.dirty and not doc.has_errors
    assert (doc.text, doc.version) == (text, version)
    report = doc.parse(recover=False)
    assert not report.recovered
    assert doc.version == version + 1
    assert doc.source_text() == text
    assert validate_document(doc) == []


def test_removed_terminals_ancestors_are_released():
    """The structure the last edit replaced hangs from the removed
    terminals and points down into live subtrees: it is released too."""
    doc = Document(get_language("minic"), generate_program("minic", 40, 2))
    doc.parse(recover=False)
    number = re.search(r"\b\d+\b", doc.text)
    doc.edit(number.start(), len(number.group()), "7 + 8")
    doc.parse(recover=False)
    assert doc.last_removed_terminals
    assert released(doc) == 0


def test_release_of_a_never_parsed_document():
    doc = Document(get_language("calc"), "a = 1;")
    doc.release()
    doc.parse(recover=False)
    assert doc.source_text() == "a = 1;"


BREAK = " @ "  # an error token in every registered grammar


@pytest.mark.fuzz
@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "spines"])
@pytest.mark.parametrize("name", language_names())
def test_no_node_is_cyclic_garbage_after_release(name, balanced):
    """Along edit scripts, release after each kind of commit.

    Trial ``seed`` stops at one of four points: after the edit script
    (a sequence repair or an ordinary incremental parse), after a
    ``recover=False`` failure that rolled back, after ``isolate()``, and
    after the error is deleted and the text parsed again.  Then no node
    is cyclic garbage, and a following ``parse()`` commits the text.
    """
    lang = get_language(name)
    stops = ("script", "failed", "isolated", "retyped")
    seen: set[str] = set()
    for seed in range(8):
        stop = stops[seed % len(stops)]
        text, script = generate_scenario(name, 12, seed=seed, n_steps=4)
        doc = Document(lang, text, balanced_sequences=balanced)
        doc.parse(recover=False)
        last = "initial"
        with obs.collecting() as work:
            for step in script:
                doc.edit(step.offset, step.remove, step.insert)
                repairs = work.get("seq.repairs", 0)
                doc.parse(recover=False)
                repaired = work.get("seq.repairs", 0) > repairs
                last = "repair" if repaired else "parse"
            if stop != "script":
                at = len(doc.text) // 2
                doc.edit(at, 0, BREAK)
                with pytest.raises(ParseError):
                    doc.parse(recover=False)
                last = "failed"
                if stop != "failed":
                    doc.isolate()
                    last = "isolated"
                if stop == "retyped":
                    doc.edit(at, len(BREAK), "")
                    doc.parse()
                    last = "retyped"
        seen.add(last)
        version, current = doc.version, doc.text
        assert released(doc) == 0, (seed, last)
        assert (doc.text, doc.version) == (current, version)
        doc.parse()
        assert doc.source_text() == doc.text == current, (seed, last)
        assert validate_document(doc) == [], (seed, last)
    expected = {"failed", "isolated", "retyped"}
    if balanced and lang.grammar.sequence_shapes:
        expected.add("repair")
    if not balanced:
        expected.add("parse")
    assert expected <= seen

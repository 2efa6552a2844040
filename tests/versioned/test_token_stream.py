"""The token stream is the parse DAG's own terminals.

``Document.tokens`` holds terminal nodes: an unchanged token *is* the
committed tree's terminal, and a token relexed since the last parse is a
new node with no parent.  So "is this terminal committed?" is
``node.parent is not None``, with no bookkeeping beside the stream.
These properties pin the rule down along generated edit scripts of every
registered grammar, through rolled-back failures and snapshot round
trips.
"""

from __future__ import annotations

import pickle

import pytest

from repro.langs import get_language
from repro.langs.generators import SCENARIO_BUILDERS, generate_scenario
from repro.parser.iglr import ParseError
from repro.versioned.document import Document

pytestmark = pytest.mark.fuzz


def check_stream(doc: Document, where: str) -> None:
    """The freshness rule against the committed tree's terminal yield.

    * the parentless stream nodes are exactly the stream nodes missing
      from the committed yield;
    * ``_removed_nodes`` is exactly the committed terminals that left the
      stream.
    """
    committed = list(doc.tree.iter_terminals())[1:]  # after BOS
    in_tree = {id(node) for node in committed}
    parentless = [id(node) for node in doc.tokens if node.parent is None]
    missing = [id(node) for node in doc.tokens if id(node) not in in_tree]
    assert parentless == missing, where

    in_stream = {id(node) for node in doc.tokens}
    left = {id(node) for node in committed if id(node) not in in_stream}
    removed = [id(node) for node in doc._removed_nodes]
    assert len(removed) == len(set(removed)) and set(removed) == left, where


def check_committed(doc: Document, where: str) -> None:
    check_stream(doc, where)
    assert all(node.parent is not None for node in doc.tokens), where
    assert not doc._removed_nodes, where


def rolled_back_failure(doc: Document, where: str) -> None:
    """Insert junk ``parse(recover=False)`` rejects, then take it out."""
    for junk in (") ;", "} ;", "= =", "+ +"):
        doc.insert(0, junk)
        check_stream(doc, f"{where}: junk {junk!r} typed")
        try:
            doc.parse(recover=False)
        except ParseError:
            check_stream(doc, f"{where}: junk {junk!r} rolled back")
            doc.delete(0, len(junk))
            check_stream(doc, f"{where}: junk {junk!r} deleted")
            doc.parse()
            check_committed(doc, f"{where}: junk {junk!r} reparsed")
            return
        doc.delete(0, len(junk))
        doc.parse()


def round_trip(doc: Document) -> Document:
    """A pickled snapshot_state -> restore_state copy, as the store makes."""
    payload = pickle.loads(pickle.dumps(doc.snapshot_state()))
    return Document.restore_state(doc.language, payload)


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "spines"])
@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_freshness_rule_along_edit_script(name, balanced):
    text, steps = generate_scenario(
        name, size=30, seed=11, ambiguity_density=0.25, n_steps=10
    )
    doc = Document(get_language(name), text, balanced_sequences=balanced)
    doc.parse()
    check_committed(doc, "first parse")
    for index, step in enumerate(steps):
        where = f"step {index} ({step.note})"
        doc.edit(step.offset, step.remove, step.insert)
        check_stream(doc, f"{where}: edited")
        if index % 3 == 1 and index + 1 < len(steps):
            continue  # the next parse takes two edits at once
        doc.parse()
        check_committed(doc, f"{where}: parsed")
        rolled_back_failure(doc, where)
        # Carry on with the unpickled copy, as a rehydrated session does.
        doc = round_trip(doc)
        check_committed(doc, f"{where}: restored")

"""A wide edit costs one predecessor lookup per change site.

Rewriting most of a document deletes one long run of terminals.  Plan
building and sequence repair look up the terminal before each change
site; when each lookup walked back across the whole deleted run, an
edit deleting D terminals cost O(D^2) -- seconds for a paste over a
2k-token document.  These tests count the terminals every lookup
examines (calls of its skip predicate) instead of timing anything.
"""

from __future__ import annotations

import pytest

import repro.parser.plan as plan_module
import repro.parser.sequences as sequences_module
from repro.bench.workloads import wide_edit
from repro.langs import get_language
from repro.langs.generators import generate_program
from repro.versioned.document import Document


def _counting(lookup, calls):
    def counted_lookup(node, skip=lambda t: False):
        def counted(term):
            calls[0] += 1
            return skip(term)

        return lookup(node, skip=counted)

    return counted_lookup


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "spines"])
@pytest.mark.parametrize("language", ["calc", "minic", "fullc"])
def test_wide_edit_lookups_are_linear_in_deleted_run(
    monkeypatch, language, balanced
):
    doc = Document(
        get_language(language),
        generate_program(language, 40, seed=3),
        balanced_sequences=balanced,
    )
    doc.parse()
    edit = wide_edit(doc)
    doc.edit(edit.offset, edit.length, edit.replacement)
    deleted = len(doc._removed_nodes)
    assert deleted > 100
    calls = [0]
    for module in (plan_module, sequences_module):
        monkeypatch.setattr(
            module,
            "previous_terminal",
            _counting(module.previous_terminal, calls),
        )
    report = doc.parse(recover=False)
    assert report.fully_incorporated and report.error_regions == 0
    assert doc.source_text() == doc.text
    assert calls[0] <= 4 * deleted, (calls[0], deleted)

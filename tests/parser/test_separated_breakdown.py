"""An edit past the first element of a separated sequence never fails.

With balanced sequences, the incremental parser breaks a changed
sequence node into its unchanged item prefix, re-packaged as a sequence
it shifts whole, and the rest.  The items of a separated list include
its separators, so that prefix can end on one (``[a, ',', *b, ',']``),
which is no instance of ``X ++ ','``: the parser shifted it anyway and
rejected the valid text at the next element.  The recovery ladder hid
the defect by isolating a tree equal to the batch tree, so these tests
parse with ``recover=False``.
"""

import pytest

from repro import Document
from repro.bench.workloads import self_cancelling_token_edits
from repro.dag.validate import validate_document
from repro.langs import get_language, language_names
from repro.langs.generators import generate_program
from repro.parser import ParseError

BALANCED = pytest.mark.parametrize(
    "balanced", [True, False], ids=["balanced", "spines"]
)

CASES = [
    pytest.param(
        "fullc", "int f(int p) {\n  int a, *b, c[4];\n  return 0;\n}\n",
        "4", "5", id="fullc-declarators",
    ),
    pytest.param("fullc", "enum E { A, B = 3 };\n", "3", "4",
                 id="fullc-enumerators"),
    pytest.param(
        "minic", "int f(int a, int b) {\n  a = g(a, b + 1);\n  return a;\n}\n",
        "1", "2", id="minic-args",
    ),
]


@BALANCED
@pytest.mark.parametrize("name, text, old, new", CASES)
def test_edit_in_later_element_parses(name, text, old, new, balanced):
    doc = Document(get_language(name), text, balanced_sequences=balanced)
    doc.parse(recover=False)
    at = text.index(old)
    doc.edit(at, len(old), new)
    report = doc.parse(recover=False)
    assert report.error_regions == 0
    assert doc.source_text() == doc.text
    assert validate_document(doc) == []


@pytest.mark.fuzz
@BALANCED
@pytest.mark.parametrize("name", language_names())
def test_token_edits_never_reject_valid_text(name, balanced):
    """Self-cancelling literal edits inside lines always parse.

    Whole-line edit scripts never split a sequence element from its
    separator, so this property edits single NUM tokens: six
    replacements, each applied and cancelled, in ten generated
    programs per grammar.
    """
    language = get_language(name)
    failures = []
    for seed in range(10):
        text = generate_program(name, 30, seed, 0.3)
        doc = Document(language, text, balanced_sequences=balanced)
        doc.parse(recover=False)
        try:
            edits = self_cancelling_token_edits(doc, 6, seed=seed)
        except ValueError:
            continue  # no NUM tokens in this grammar's programs
        for edit in edits:
            original = doc.text[edit.offset:edit.offset + edit.length]
            steps = [
                (edit.offset, edit.length, edit.replacement),
                (edit.offset, len(edit.replacement), original),
            ]
            for at, remove, insert in steps:
                doc.edit(at, remove, insert)
                try:
                    doc.parse(recover=False)
                except ParseError as error:
                    failures.append((seed, at, insert, str(error)))
                    doc = Document(
                        language, doc.text, balanced_sequences=balanced
                    )
                    doc.parse(recover=False)
    assert failures == []

"""Edit-script workloads for the incremental experiments.

The paper's incremental measurement protocol (section 5) applies
"self-cancelling modifications to individual tokens, parsing after each
such change"; these helpers build such scripts deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..versioned.document import Document


@dataclass(frozen=True)
class TokenEdit:
    """Replace one token's text at a given offset."""

    offset: int
    length: int
    replacement: str


def numeric_token_sites(doc: Document) -> list[tuple[int, int]]:
    """(offset, length) of every NUM token in the document."""
    sites: list[tuple[int, int]] = []
    pos = 0
    for node in doc.tokens:
        token = node.token
        if token.type == "NUM":
            sites.append((pos + len(token.trivia), len(token.text)))
        pos += token.width
    return sites


def self_cancelling_token_edits(
    doc: Document, count: int, seed: int = 0
) -> list[TokenEdit]:
    """Random single-token replacements over NUM tokens.

    The caller applies each edit, reparses, then applies the inverse and
    reparses again, leaving the document as it started -- the paper's
    protocol, which keeps every measurement over the same tree.
    """
    rng = random.Random(seed)
    sites = numeric_token_sites(doc)
    if not sites:
        raise ValueError("document has no NUM tokens to edit")
    edits = []
    for _ in range(count):
        offset, length = sites[rng.randrange(len(sites))]
        edits.append(TokenEdit(offset, length, str(rng.randrange(100, 999))))
    return edits


def apply_and_cancel(doc: Document, edit: TokenEdit) -> None:
    """One self-cancelling modification cycle: edit, parse, undo, parse."""
    original = doc.text[edit.offset : edit.offset + edit.length]
    doc.edit(edit.offset, edit.length, edit.replacement)
    doc.parse()
    doc.edit(edit.offset, len(edit.replacement), original)
    doc.parse()


def wide_edit(doc: Document) -> TokenEdit:
    """One edit that rewrites the middle 90% of the text.

    The replacement is the old middle with the last digit of ten evenly
    spaced NUM tokens altered, so the text stays valid while relexing
    replaces every token of the span: a paste over most of the
    document, or a reformat.
    """
    text = doc.text
    start, end = len(text) // 20, len(text) - len(text) // 20
    sites = [
        (offset, length)
        for offset, length in numeric_token_sites(doc)
        if start <= offset and offset + length <= end
    ]
    if len(sites) < 10:
        raise ValueError("document has fewer than ten NUM tokens in its middle")
    middle = list(text[start:end])
    for offset, length in sites[:: len(sites) // 10][:10]:
        last = offset + length - 1 - start
        middle[last] = str((int(middle[last]) + 1) % 10)
    return TokenEdit(start, end - start, "".join(middle))

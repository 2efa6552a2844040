"""Differential conformance: the service against a direct Document.

Randomized edit scripts (deterministic seeds, >= 200 edits per
language) are split into random batches and driven through an
in-process :class:`AnalysisService` -- all but the last edit of each
batch deferred, so the service batches and coalesces them -- while an
oracle replays the *same* batches, uncoalesced, against a plain
:class:`~repro.versioned.document.Document`.

After every batch:

* the service text (``echo_text``) must be **byte-identical** to the
  pure-string application of the accepted edits -- batching, coalescing,
  and the degradation ladder must never change what the client typed;
* the service must agree with the oracle on token count and error
  presence.  The two reach the client's text by different routes: the
  service parses it as typed and isolates a syntax error in place,
  while the oracle runs the library's default recovery ladder, whose
  history-sensitive reversion may land on an older text, and then
  parses the client's text in a fresh document -- so the comparison is
  an independent check of the service's in-place isolation.

Scripts deliberately pass through syntactically invalid states, so the
error-recovery paths are exercised, not just the happy path.
"""

import asyncio
from random import Random

import pytest

from repro import Document
from repro.langs import get_language
from repro.service import AnalysisService
from repro.testing import random_edit

from ..versioned.test_fuzz_differential import CALC_SNIPPETS, MINIC_SNIPPETS

pytestmark = [pytest.mark.service, pytest.mark.fuzz]

LR2_SNIPPETS = ["x", "y", "z", "c", "e", "xz", "yz c", " ", "q!"]

SCRIPTS = [
    pytest.param("calc", "a = 1; b = 2; c = a + b;", CALC_SNIPPETS, 90125,
                 id="calc"),
    pytest.param("lr2", "xzc", LR2_SNIPPETS, 4711, id="lr2"),
    pytest.param("minic", "int main() { int a; a = 1; return a; }",
                 MINIC_SNIPPETS, 41, id="minic"),
]

EDITS = 200  # per language; ISSUE 4 acceptance floor


class Oracle:
    """Direct-Document replay with the service's text-authority rule."""

    def __init__(self, language, text):
        self.language = language
        self.doc = Document(language, text)
        self.doc.parse()

    def apply_batch(self, edits, target):
        for at, remove, insert in edits:
            self.doc.edit(at, remove, insert)
        self.doc.parse()
        if self.doc.text != target:
            # History-sensitive recovery reverted an edit; the client's
            # text is authoritative, so parse it in a fresh document.
            self.doc = Document(self.language, target)
            self.doc.parse()


def run_script(language_name, seed_text, snippets, seed,
               service_factory=None, edits=EDITS):
    """Drive one randomized script; ``service_factory`` picks the backend.

    The default is the in-process :class:`AnalysisService`; the shard
    suite passes a :class:`~repro.service.pool.ShardDispatcher` factory
    to prove the multi-process backend is protocol-indistinguishable.
    """

    async def go():
        rng = Random(seed)
        language = get_language(language_name)
        service = (
            service_factory() if service_factory else AnalysisService()
        )
        reply = await service.handle(
            {"op": "open", "id": "open", "doc": "d",
             "language": language_name, "text": seed_text}
        )
        assert reply["ok"], reply

        oracle = Oracle(language, seed_text)
        shadow = seed_text
        sent = 0
        while sent < edits:
            batch = []
            for _ in range(rng.randrange(1, 5)):
                at, remove, insert = random_edit(rng, shadow, snippets)
                shadow = shadow[:at] + insert + shadow[at + remove:]
                batch.append((at, remove, insert))
            requests = [
                {
                    "op": "edit",
                    "id": f"e{sent + i}",
                    "doc": "d",
                    "edits": [
                        {"at": at, "remove": remove, "insert": insert}
                    ],
                    "defer": i < len(batch) - 1,
                    "echo_text": i == len(batch) - 1,
                }
                for i, (at, remove, insert) in enumerate(batch)
            ]
            replies = await asyncio.gather(
                *(service.handle(r) for r in requests)
            )
            assert all(r["ok"] for r in replies), replies
            final = replies[-1]
            # Byte-identical: whatever ladder rung ran, the service
            # landed exactly on the text the client typed.
            assert final["text"] == shadow, (
                f"service text diverged after {sent + len(batch)} edits"
            )
            oracle.apply_batch(batch, shadow)
            if oracle.doc.text == shadow:
                assert final["tokens"] == len(oracle.doc.tokens)
                query = await service.handle(
                    {"op": "query", "id": f"q{sent}", "doc": "d"}
                )
                assert query["has_errors"] == oracle.doc.has_errors
            sent += len(batch)

        # End-to-end: the surviving document itself, not just replies.
        # The sharded backend's document lives in a worker process; the
        # query echo is its authoritative text.
        if hasattr(service, "manager"):
            session_doc = service.manager.get("d").doc
            assert session_doc.text == shadow
            assert session_doc.source_text() == shadow
        else:
            final = await service.handle(
                {"op": "query", "id": "final", "doc": "d",
                 "echo_text": True}
            )
            assert final["ok"] and final["text"] == shadow, final
        await service.aclose()
        return sent

    total = asyncio.run(go())
    assert total >= edits


@pytest.mark.parametrize("language_name,seed_text,snippets,seed", SCRIPTS)
def test_service_matches_direct_document(
    language_name, seed_text, snippets, seed
):
    run_script(language_name, seed_text, snippets, seed)

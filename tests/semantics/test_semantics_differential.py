"""Differential conformance for incremental semantics (ISSUE 8).

The claim under test: after any edit script, the incrementally
maintained semantic state -- every choice point's selection and every
alternative's ``filtered``/``filter_reason`` annotations -- is
*byte-identical* to a fresh ``analyze()`` of the final text.  Scripts
are the randomized typedef-heavy edit scripts from
``repro.langs.generators``, replayed against three backends:

* a direct :class:`~repro.versioned.document.Document` with
  journal-driven change detection;
* an in-process :class:`~repro.service.server.AnalysisService`
  session, where the full DAG digest is still reachable;
* a sharded :class:`~repro.service.pool.ShardDispatcher` with two
  worker processes, compared on the wire-visible summary.

Also here: the counter-verified size-independence bound (re-decisions
per edit must not grow with document size), the stale-decision drop
test (spliced-out choices are forgotten, not re-decided), the export
set after a balanced-sequence splice, and the add -> remove -> re-add
round-trip property (``reset_choice`` leaves no
residue, so the final state is byte-identical to the initial one).
"""

import asyncio

import pytest

from repro import Document, obs
from repro.langs.generators import (
    EditStep,
    apply_edit_step,
    generate_typedef_edit_script,
)
from repro.langs.minic import leading_identifier, minic_language
from repro.semantics import TypedefAnalyzer
from repro.semantics.filters import FILTERED, FILTER_REASON

pytestmark = pytest.mark.semantics

SEEDS = [0, 1, 2, 7]


def semantic_digest(doc):
    """Every choice point's full semantic state, in document order.

    Captures, for each symbol node: the leading identifier (if any),
    the index of the selected alternative, and each alternative's
    ``filtered`` flag and ``filter_reason`` -- the complete observable
    output of the analyzer.  Keyed by traversal order, not tree path:
    incremental updates of balanced-sequence trees legitimately produce
    a different spine shape than a fresh parse of the same text, while
    the choice points and their state must still agree exactly.
    """
    entries = []

    def walk(node):
        if node.is_symbol_node:
            name = leading_identifier(node)
            selected = node.selected()
            entries.append(
                (
                    name.text if name is not None else None,
                    None
                    if selected is None
                    else node.alternatives.index(selected),
                    tuple(
                        (
                            bool((alt.annotations or {}).get(FILTERED, False)),
                            (alt.annotations or {}).get(FILTER_REASON),
                        )
                        for alt in node.alternatives
                    ),
                )
            )
        for kid in getattr(node, "kids", ()) or ():
            walk(kid)

    walk(doc.tree)
    return entries


def fresh_analyzer(text, external=(), balanced=False):
    # Service sessions build balanced-sequence documents; the oracle
    # must match the backend's tree shape for paths to line up.
    doc = Document(minic_language(), text, balanced_sequences=balanced)
    doc.parse()
    analyzer = TypedefAnalyzer(doc)
    analyzer.external_typedefs = set(external)
    analyzer.analyze()
    return doc, analyzer


def fresh_digest(text, external=(), balanced=False):
    doc, _ = fresh_analyzer(text, external, balanced)
    return semantic_digest(doc)


def fresh_summary(text, external=()):
    _, analyzer = fresh_analyzer(text, external)
    return analyzer.decision_summary(), sorted(analyzer.exported_typedefs())


def replay_direct(seed, n_steps=14):
    """Drive one incremental analyzer through a script, checking the
    digest against a fresh analyze after every step."""
    base, steps = generate_typedef_edit_script(seed=seed, n_steps=n_steps)
    doc = Document(minic_language(), base)
    doc.parse()
    analyzer = TypedefAnalyzer(doc)
    analyzer.analyze()
    text = base
    for step in steps:
        doc.edit(step.offset, step.remove, step.insert)
        doc.parse()
        analyzer.update()
        text = apply_edit_step(text, step)
        assert doc.text == text
        assert semantic_digest(doc) == fresh_digest(text), step.note


# -- direct Document backends -------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_matches_fresh_analyze(seed):
    replay_direct(seed)


# -- service backends ---------------------------------------------------------


@pytest.mark.service
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_service_session_matches_fresh_analyze(seed):
    """In-process service: wire summary AND internal DAG digest."""

    async def go():
        from repro.service.server import AnalysisService

        service = AnalysisService()
        base, steps = generate_typedef_edit_script(seed=seed, n_steps=10)
        doc = "script.minic"
        reply = await service.handle(
            {"op": "open", "id": 0, "doc": doc, "language": "minic",
             "text": base}
        )
        assert reply["ok"], reply
        reply = await service.handle({"op": "analyze", "id": 1, "doc": doc})
        assert reply["ok"] and not reply.get("sem_error"), reply
        text = base
        for i, step in enumerate(steps):
            reply = await service.handle(
                {"op": "edit", "id": 2 + i, "doc": doc,
                 "edits": [{"at": step.offset, "remove": step.remove,
                            "insert": step.insert}]}
            )
            assert reply["ok"] and not reply.get("sem_error"), (reply, step)
            text = apply_edit_step(text, step)
            reply = await service.handle(
                {"op": "analyze", "id": 100 + i, "doc": doc}
            )
            summary, exports = fresh_summary(text)
            assert reply["sem_state"] == summary, step.note
            assert reply["exports"] == exports, step.note
            session = service.manager.get(doc)
            assert semantic_digest(session.doc) == fresh_digest(
                text, balanced=True
            ), step.note

    asyncio.run(go())


@pytest.mark.service
@pytest.mark.multiproc
@pytest.mark.slow
def test_sharded_service_matches_fresh_analyze():
    """Two worker processes: compared on the wire-visible summary."""

    async def go():
        from repro.service.pool import ShardDispatcher

        service = ShardDispatcher(2, request_timeout=60.0)
        try:
            base, steps = generate_typedef_edit_script(seed=3, n_steps=10)
            doc = "script.minic"
            reply = await service.handle(
                {"op": "open", "id": 0, "doc": doc, "language": "minic",
                 "text": base}
            )
            assert reply["ok"], reply
            reply = await service.handle(
                {"op": "analyze", "id": 1, "doc": doc}
            )
            assert reply["ok"] and not reply.get("sem_error"), reply
            text = base
            for i, step in enumerate(steps):
                reply = await service.handle(
                    {"op": "edit", "id": 2 + i, "doc": doc,
                     "edits": [{"at": step.offset, "remove": step.remove,
                                "insert": step.insert}]}
                )
                assert reply["ok"] and not reply.get("sem_error"), (
                    reply, step,
                )
                text = apply_edit_step(text, step)
                reply = await service.handle(
                    {"op": "analyze", "id": 100 + i, "doc": doc}
                )
                summary, exports = fresh_summary(text)
                assert reply["sem_state"] == summary, step.note
                assert reply["exports"] == exports, step.note
        finally:
            await service.aclose()

    asyncio.run(go())


# -- size independence (counter-verified, mirrors the lexer bound) ------------


def _balanced_program(n_functions):
    """A program whose one ambiguous statement sits in the first
    function; everything after it is unrelated ballast."""
    chunks = ["typedef int T;\n"]
    chunks.append("int fn0(int p0) {\n  T (u0);\n}\n")
    for i in range(1, n_functions):
        chunks.append(
            f"int fn{i}(int p{i}) {{\n  int v{i};\n"
            f"  v{i} = v{i} + {i};\n}}\n"
        )
    return "".join(chunks)


def test_redecisions_independent_of_document_size():
    # Counter-verified O(fanout) bound: toggling the same typedef must
    # re-decide the same choice points no matter how much unrelated
    # document follows them.  The former implementation rescanned the
    # whole tree's binding signature per update (O(N) per edit); this
    # test rejects that by construction -- not by wall clock.  The
    # toggle renames the declared name in place (T <-> U) rather than
    # deleting the line: whole-item splices rebuild enclosing structure
    # and legitimately take the conservative full pass.
    redecisions = []
    full_passes = []
    for n_functions in (5, 20, 80):
        text = _balanced_program(n_functions)
        doc = Document(minic_language(), text)
        doc.parse()
        analyzer = TypedefAnalyzer(doc)
        analyzer.analyze()
        offset = text.index("int T;") + 4
        with obs.collecting() as work:
            doc.edit(offset, 1, "U")
            doc.parse()
            assert analyzer.update().full_pass is False
            doc.edit(offset, 1, "T")
            doc.parse()
            assert analyzer.update().full_pass is False
        redecisions.append(work.get("sem.redecisions", 0))
        full_passes.append(work.get("sem.full_passes", 0))
        assert semantic_digest(doc) == fresh_digest(text)
    assert redecisions[0] == redecisions[1] == redecisions[2], redecisions
    assert redecisions[0] <= 4
    assert full_passes == [0, 0, 0], full_passes


# -- stale decisions on spliced-out subtrees ----------------------------------


def test_spliced_out_decisions_dropped_not_redecided():
    # A decision whose choice point left the tree must be *forgotten*
    # (it has no node to re-filter), never re-decided.  Whole-item
    # splices currently trip the conservative structure guards and take
    # a full pass (which rebuilds the index wholesale), so the worklist
    # is driven directly to pin the drop contract: a name flip reaching
    # a stale index entry drops it, on its own counter, and spends no
    # re-decision work on it.
    text = (
        "typedef int T;\n"
        "int fn0(int p0) {\n"
        "  T (u0);\n"
        "}\n"
    )
    doc = Document(minic_language(), text)
    doc.parse()
    analyzer = TypedefAnalyzer(doc)
    report = analyzer.analyze()
    assert len(report.decisions) == 1

    stmt = "  T (u0);\n"
    doc.edit(text.index(stmt), len(stmt), "")
    doc.parse()
    with obs.collecting() as work:
        update = analyzer._apply_candidates({"T"})
    assert work.get("sem.decisions_dropped", 0) == 1
    assert work.get("sem.redecisions", 0) == 0
    assert update.sites_refiltered == 0
    assert update.decisions == []
    # The stale entry is gone for good: a second flip finds nothing.
    with obs.collecting() as work:
        analyzer._apply_candidates({"T"})
    assert work.get("sem.decisions_dropped", 0) == 0


def test_spliced_out_decisions_absent_end_to_end():
    # The same splice through the public API: the update (conservative
    # full pass or not) must leave no trace of the dead choice, and the
    # result must match a fresh analyze byte for byte.
    text = (
        "typedef int T;\n"
        "int fn0(int p0) {\n"
        "  T (u0);\n"
        "  T (u1);\n"
        "}\n"
    )
    doc = Document(minic_language(), text)
    doc.parse()
    analyzer = TypedefAnalyzer(doc)
    analyzer.analyze()
    assert analyzer.decision_summary()["decisions"] == 2
    stmt = "  T (u0);\n"
    doc.edit(text.index(stmt), len(stmt), "")
    doc.parse()
    analyzer.update()
    assert analyzer.decision_summary()["decisions"] == 1
    assert semantic_digest(doc) == fresh_digest(doc.text)


def test_balanced_splice_drops_removed_typedef_from_exports():
    # Sequence repair splices the deleted item out of the balanced
    # spine, but the replaced spine parts keep parent pointers into the
    # live tree: liveness must check membership, not just follow
    # parents.  With uses of the removed name, the update must still
    # take the fast path (re-deciding only those uses).
    header = "".join(f"typedef int T{i};\n" for i in range(6))
    header += "".join(f"int v{i};\n" for i in range(30))
    uses = "int f(int p) {\n  T3 (u0);\n  T3 (u1);\n}\n"
    line = "typedef int T3;\n"
    for text in (header, header + uses):
        doc = Document(minic_language(), text, balanced_sequences=True)
        doc.parse()
        analyzer = TypedefAnalyzer(doc)
        analyzer.analyze()
        with obs.collecting() as work:
            doc.edit(text.index(line), len(line), "")
            doc.parse()
            report = analyzer.update()
        assert work.get("seq.repairs", 0) == 1
        assert report.full_pass is False
        fresh_doc, fresh = fresh_analyzer(doc.text, balanced=True)
        assert "T3" not in analyzer.exported_typedefs()
        assert analyzer.exported_typedefs() == fresh.exported_typedefs()
        assert analyzer.decision_summary() == fresh.decision_summary()
        assert semantic_digest(doc) == semantic_digest(fresh_doc)


# -- add -> remove -> re-add round trip (reset_choice leaves no residue) ------


@pytest.mark.parametrize("seed", SEEDS)
def test_typedef_toggle_round_trip_is_byte_identical(seed):
    base, _ = generate_typedef_edit_script(seed=seed, n_steps=0)
    doc = Document(minic_language(), base)
    doc.parse()
    analyzer = TypedefAnalyzer(doc)
    analyzer.analyze()
    initial = semantic_digest(doc)
    line = "typedef int Q0;\n"
    offset = base.index(line)

    doc.edit(offset, len(line), "")
    doc.parse()
    analyzer.update()
    removed = semantic_digest(doc)
    # The intermediate state must itself match a fresh analyze: the
    # choice points that lost their typedef go back to fully-live
    # alternatives with no stale filter_reason (reset_choice, not
    # accept).
    assert removed == fresh_digest(doc.text)

    doc.edit(offset, 0, line)
    doc.parse()
    analyzer.update()
    assert doc.text == base
    assert semantic_digest(doc) == initial

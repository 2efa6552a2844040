"""The DAG's synthesized counts are exact, and filling them costs the edit.

Every node carries ``n_nodes`` (unique nodes of its subtree) and
``n_choices`` (live choice points among them); ``census`` fills the
unknown ones bottom-up and readers take them at the root.  The oracle
is a fresh walk of the whole DAG: ``measure_space`` and
``choice_points``.
"""

from __future__ import annotations

import pickle
import statistics

import pytest

from repro import obs
from repro.bench.workloads import self_cancelling_token_edits
from repro.dag import SymbolNode, choice_points, measure_space
from repro.dag.nodes import UNKNOWN, ProductionNode
from repro.dag.traversal import census
from repro.langs import get_language
from repro.langs.generators import (
    SCENARIO_BUILDERS,
    generate_calc_program,
    generate_minic,
    generate_scenario,
)
from repro.parser.iglr import ParseError, ParseResult, ParseStats
from repro.semantics.filters import apply_syntactic_filters, production_tags
from repro.versioned.document import Document


def walked(root):
    return measure_space(root).nodes, len(choice_points(root))


def assert_exact(doc, where):
    census(doc.tree)
    assert (doc.tree.n_nodes, doc.tree.n_choices) == walked(doc.tree), where
    assert doc.tree_node_count() == doc.tree.n_nodes
    assert doc.is_ambiguous == (doc.tree.n_choices > 0)


def restored(doc):
    """A pickle round trip of the committed state, as the store does."""
    payload = pickle.loads(pickle.dumps(doc.snapshot_state()))
    return Document.restore_state(doc.language, payload)


def discriminating_preferences(root):
    """(symbol, tag) pairs that collapse some choice points of ``root``."""
    prefs = {}
    for choice in choice_points(root):
        first, *others = choice.alternatives
        rest = set().union(*(production_tags(alt) for alt in others))
        unique = sorted(production_tags(first) - rest)
        if unique:
            prefs.setdefault(choice.symbol, unique[0])
    return list(prefs.items())


def break_parse(doc):
    """Make a syntax error that ``parse(recover=False)`` rejects."""
    for junk in (") ;", "} ;", "= =", "+ +"):
        doc.insert(0, junk)
        try:
            doc.parse(recover=False)
        except ParseError:
            return junk
        doc.delete(0, len(junk))
        doc.parse()
    return None


class TestCountsMatchWalks:
    @pytest.mark.parametrize(
        "balanced", [True, False], ids=["balanced", "spines"]
    )
    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_along_edit_script(self, name, balanced):
        lang = get_language(name)
        text, steps = generate_scenario(
            name, size=30, seed=7, ambiguity_density=0.25, n_steps=10
        )
        doc = Document(lang, text, balanced_sequences=balanced)
        report = doc.parse()
        assert report.ambiguous_regions == len(choice_points(doc.tree))
        assert_exact(doc, "fresh parse")
        for index, step in enumerate(steps):
            doc.edit(step.offset, step.remove, step.insert)
            report = doc.parse()
            where = f"step {index} ({step.note})"
            assert report.ambiguous_regions == len(choice_points(doc.tree))
            assert_exact(doc, where)

            junk = break_parse(doc)
            if junk is not None:
                assert_exact(doc, f"{where}: rolled back")
                doc.delete(0, len(junk))
                doc.parse()
                assert_exact(doc, f"{where}: repaired")

            copy = restored(doc)
            assert copy.tree.n_nodes == doc.tree.n_nodes != UNKNOWN
            assert copy.tree.n_choices == doc.tree.n_choices
            assert_exact(copy, f"{where}: restored")

            filtered = restored(doc)
            prefs = discriminating_preferences(filtered.tree)
            if prefs:
                assert apply_syntactic_filters(filtered.tree, prefs) > 0
            assert_exact(filtered, f"{where}: filtered")

            # Carry on with the unpickled tree, as a rehydrated session does.
            doc = copy

    def test_choice_node_counts_its_region_once(self):
        doc = Document(get_language("minic"), "T * x;\n")
        doc.parse()
        choices = choice_points(doc.tree)
        assert choices
        region = choices[0]
        shared = sum(
            measure_space(alt).nodes for alt in region.alternatives
        ) + 1 - measure_space(region).nodes
        assert shared > 0  # the alternatives do share the terminals
        assert isinstance(region, SymbolNode)
        assert (region.n_nodes, region.n_choices) == walked(region)

    def test_added_choice_is_recounted(self):
        doc = Document(get_language("minic"), "T * x;\n")
        doc.parse()
        region = choice_points(doc.tree)[0]
        assert region.n_nodes != UNKNOWN
        first = region.alternatives[0]
        region.add_choice(ProductionNode(first.production, first.kids))
        census(region)
        assert (region.n_nodes, region.n_choices) == walked(region)

    def test_commit_recounts_pooled_nodes_over_a_patched_proxy(self):
        """A node reused from the retention pool keeps its old counts.

        When a proxy under it becomes a choice node later in the same
        round, ``replace_kids`` resets only the proxy's direct user; the
        commit must recount every node the round produced.
        """
        doc = Document(
            get_language("minic"), "int a;\nT * x;\nint b;\n",
            balanced_sequences=False,
        )
        doc.parse()
        region = choice_points(doc.tree)[0]
        user, proxy = region.parent, region.alternatives[0]

        def patch(old, new):
            user.replace_kids(
                tuple(new if kid is old else kid for kid in user.kids)
            )

        pooled = [user]
        while pooled[-1].parent is not doc.tree:
            pooled.append(pooled[-1].parent)
        assert len(pooled) > 2
        # The previous version held the first interpretation alone.
        patch(region, proxy)
        for node in [*pooled, doc.tree]:
            node.forget_counts()
        census(doc.tree)
        assert doc.tree.n_choices == len(choice_points(doc.tree)) == 0
        # This round: the pooled chain is rebuilt over the user, then the
        # second interpretation patches the proxy.
        patch(proxy, region)
        doc._commit(
            ParseResult(pooled[-1], ParseStats(), new_nodes=[*pooled, region])
        )
        assert_exact(doc, "after the commit")


def _median_fill(doc, n_edits=12):
    """Median nodes a parse's census fills, over self-cancelling edits."""
    fills = []
    for edit in self_cancelling_token_edits(doc, n_edits, seed=17):
        original = doc.text[edit.offset : edit.offset + edit.length]
        for length, text in (
            (edit.length, edit.replacement),
            (len(edit.replacement), original),
        ):
            doc.edit(edit.offset, length, text)
            with obs.collecting() as work:
                doc.parse()
            fills.append(work.get("dag.census_filled", 0))
    return statistics.median(fills)


@pytest.mark.parametrize(
    "name, generate, small, large",
    [
        ("calc", generate_calc_program, 200, 3200),
        ("minic", generate_minic, 250, 4000),
    ],
)
def test_fill_cost_does_not_grow_with_the_document(name, generate, small, large):
    medians = {}
    for size in (small, large):
        doc = Document(
            get_language(name), generate(size, seed=11), balanced_sequences=True
        )
        doc.parse()
        medians[size] = (_median_fill(doc), len(doc.tokens))
    (fill_small, tokens_small), (fill_large, tokens_large) = (
        medians[small],
        medians[large],
    )
    assert 1200 <= tokens_small <= 2000 and tokens_large >= 20000
    assert fill_large <= 1.5 * fill_small, medians

"""Tests reproducing the paper's Appendix B parser trace."""

from repro.dag.nodes import TerminalNode
from repro.langs.lr2 import LR2_GRAMMAR
from repro.langs.minic import minic_language
from repro.language import Language
from repro.lexing import Token
from repro.lexing.tokens import EOS
from repro.parser import IGLRParser, InputStream
from repro.obs import Tracer, format_trace


def traced_parse(language, text):
    tracer = Tracer()
    parser = IGLRParser(language.table, tracer=tracer)
    tokens = language.lexer.lex(text)
    stream = InputStream([TerminalNode(t) for t in tokens])
    result = parser.parse(stream)
    return tracer, result


class TestLR2Trace:
    def test_split_recorded(self):
        tracer, _ = traced_parse(Language.from_dsl(LR2_GRAMMAR), "x z c")
        kinds = [e.kind for e in tracer.events]
        assert "split" in kinds

    def test_both_interpretations_reduced_during_split(self):
        # Figure 7: U -> x and V -> x are both reduced while the parsers
        # are forked; only one survives into the tree.
        tracer, result = traced_parse(Language.from_dsl(LR2_GRAMMAR), "x z c")
        reds = tracer.reductions()
        assert "u -> x" in reds and "v -> x" in reds
        symbols = {n.symbol for n in result.root.walk() if not n.is_terminal}
        assert "v" not in symbols

    def test_deterministic_suffix_single_parser(self):
        tracer, _ = traced_parse(Language.from_dsl(LR2_GRAMMAR), "x z c")
        # The final accept happens with one parser.
        assert tracer.events[-1].kind == "accept"

    def test_trace_formatting(self):
        tracer, _ = traced_parse(Language.from_dsl(LR2_GRAMMAR), "x z c")
        text = format_trace(tracer)
        assert "S: x 'x'" in text
        assert "R: u -> x" in text
        assert "[2 parsers]" in text


class TestAppendixB:
    """The typedef example: both readings of ``a (b);`` built in tandem."""

    def test_dual_reductions_in_ambiguous_region(self):
        tracer, result = traced_parse(
            minic_language(), "int f() { a (b); }"
        )
        reds = tracer.reductions()
        # Appendix B's parallel reductions: the identifier is reduced
        # both as a type name (declaration reading) and as a primary
        # expression (call reading).
        assert any(r.startswith("type_name ->") for r in reds)
        assert any(r.startswith("primary -> ID") for r in reds)
        assert any(r.startswith("decl ->") for r in reds)
        assert any(r.startswith("funcall ->") or "primary ( args )" in r for r in reds)

    def test_split_happens_at_ambiguity(self):
        tracer, _ = traced_parse(minic_language(), "int f() { a (b); }")
        assert tracer.max_parsers() >= 2
        assert tracer.events_during_split()

    def test_no_split_without_ambiguity(self):
        tracer, _ = traced_parse(minic_language(), "int f() { int x; }")
        assert tracer.max_parsers() == 1
        assert not [e for e in tracer.events if e.kind == "split"]

    def test_incremental_trace_shows_subtree_shifts(self):
        from repro import Document
        from repro.obs import Tracer

        lang = minic_language()
        doc = Document(lang, "int f() { int a; int b; int c; }")
        doc.parse()
        tracer = Tracer()
        doc._parser = IGLRParser(lang.table, tracer=tracer)
        doc.edit(doc.text.index("b"), 1, "zz")
        doc.parse()
        assert any(e.kind == "shift-subtree" for e in tracer.events)

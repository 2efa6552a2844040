"""Tests for the Language bundle."""

import pytest

from repro import Language
from repro.grammar import GrammarError
from repro.langs import get_language, language_names
from repro.tables.cache import grammar_fingerprint

CALC = """
%token NUM /[0-9]+/
%left '+'
e : e '+' e | NUM ;
"""

AMBIG = """
%token NUM /[0-9]+/
e : e '+' e | NUM ;
"""


class TestLanguage:
    def test_from_dsl(self):
        lang = Language.from_dsl(CALC)
        assert lang.grammar.start == "e"
        assert lang.is_deterministic

    def test_ambiguous_language(self):
        lang = Language.from_dsl(AMBIG)
        assert not lang.is_deterministic

    def test_precedence_can_be_disabled(self):
        lang = Language.from_dsl(CALC, resolve_precedence=False)
        assert not lang.is_deterministic

    def test_slr_method(self):
        lang = Language.from_dsl(CALC, method="slr")
        assert lang.table.method == "slr"

    def test_root_production_shape(self):
        lang = Language.from_dsl(CALC)
        assert lang.root_production.lhs == "__root__"
        assert lang.root_production.rhs[1] == "e"

    def test_lexer_compiled(self):
        lang = Language.from_dsl(CALC)
        tokens = lang.lexer.lex("1+2")
        assert [t.type for t in tokens][:3] == ["NUM", "+", "NUM"]

    def test_repr_mentions_determinism(self):
        assert "non-deterministic" in repr(Language.from_dsl(AMBIG))
        assert "deterministic" in repr(Language.from_dsl(CALC))

    def test_bad_grammar_raises(self):
        with pytest.raises(GrammarError):
            Language.from_dsl("%start s\n")

    @pytest.mark.parametrize("name", language_names())
    def test_table_key_is_the_fingerprint(self, name):
        """Computed once, the key equals the fingerprint snapshots on
        disk were stamped with."""
        lang = get_language(name)
        assert lang.table_key == grammar_fingerprint(
            lang.grammar, lang.table.method, True
        )

    def test_table_key_of_an_inline_grammar(self):
        lang = Language.from_dsl(CALC, method="slr")
        assert lang.table_key == grammar_fingerprint(lang.grammar, "slr", True)
        assert lang.table_key != Language.from_dsl(CALC).table_key

"""A language bundles a grammar, its parse table, and its lexer.

This is the unit Ensemble compiles off-line from a high-level
specification and loads into the running environment (paper section 5).
Construction is pure computation here: parse the DSL, expand regular
right parts, build the (conflict-preserving) LALR or SLR table, and
compile the lexical DFA.  Table construction goes through the
persistent cache in :mod:`repro.tables.cache`, mirroring the paper's
off-line table generation: a process pays for any given grammar's
table at most once, and warm processes load it from disk.
"""

from __future__ import annotations

from typing import Literal

from .grammar.cfg import Grammar, Production
from .grammar.dsl import GrammarSpec, parse_grammar_spec
from .lexing.lexer import LexerSpec
from .lexing.tokens import BOS, EOS
from .tables.cache import build_table, grammar_fingerprint
from .tables.parse_table import ParseTable

# The pseudo-production for document roots: root -> bos body eos.
ROOT_SYMBOL = "__root__"


def make_root_production(start: str) -> Production:
    return Production(0, ROOT_SYMBOL, (BOS, start, EOS))


class Language:
    """An analyzable language: grammar + parse table + lexer.

    Args:
        spec: a parsed grammar description.
        method: LR table flavour, ``"lalr"`` (default) or ``"slr"``.
        resolve_precedence: apply declared precedence/associativity as
            static syntactic filters during table construction.
        label: origin tag recorded against the cached parse table.
            Registered built-ins pass ``builtin:<name>``; anything
            compiled from ad-hoc DSL text defaults to
            ``inline:<start>`` so the ``repro tables`` cache listing
            can tell the two apart.
    """

    def __init__(
        self,
        spec: GrammarSpec,
        method: Literal["lalr", "slr"] = "lalr",
        resolve_precedence: bool = True,
        *,
        label: str | None = None,
    ) -> None:
        self.spec = spec
        self.grammar: Grammar = spec.grammar
        self.label = label or f"inline:{spec.grammar.start}"
        self.table = build_table(
            spec.grammar,
            method=method,
            resolve_precedence=resolve_precedence,
            label=self.label,
        )
        self.lexer = LexerSpec.from_grammar_spec(spec)
        self.root_production = make_root_production(self.grammar.start)
        # The parse-table key that snapshots carry and grammar reloads
        # compare, always computed with precedence resolution on.
        # Hashing the grammar takes up to 0.13 ms, so it is done once.
        self.table_key = grammar_fingerprint(
            self.grammar, self.table.method, True
        )
        self._fragment_tables: dict[str, ParseTable] = {}

    @classmethod
    def from_dsl(
        cls,
        text: str,
        method: Literal["lalr", "slr"] = "lalr",
        resolve_precedence: bool = True,
        *,
        label: str | None = None,
    ) -> "Language":
        """Compile a grammar DSL description into a language."""
        return cls(
            parse_grammar_spec(text),
            method=method,
            resolve_precedence=resolve_precedence,
            label=label,
        )

    @property
    def is_deterministic(self) -> bool:
        """True when the table has no conflicts (plain LR suffices)."""
        return self.table.is_deterministic

    def fragment_table(self, symbol: str) -> ParseTable:
        """A parse table rooted at ``symbol`` (cached).

        Sequence repair (paper 3.4) reparses element ranges in isolation;
        that needs tables whose start symbol is the sequence nonterminal.
        The productions are shared with the main grammar, so fragment
        parses build nodes indistinguishable from the main parser's.
        """
        table = self._fragment_tables.get(symbol)
        if table is None:
            fragment_grammar = Grammar(
                self.grammar.productions,
                self.grammar.terminals,
                symbol,
                precedence=self.grammar.precedence,
            )
            table = build_table(
                fragment_grammar,
                method=self.table.method,
                label=f"fragment:{symbol}",
            )
            self._fragment_tables[symbol] = table
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "deterministic" if self.is_deterministic else "non-deterministic"
        return (
            f"Language(start={self.grammar.start!r}, {kind}, "
            f"{self.table.n_states} states)"
        )

"""Differential property: relex == batch lex on real-language sources.

Randomized edit sessions against generated calc and MiniC programs,
seeded through the `repro.testing.faults` randomness helpers so every
failure replays deterministically.  After each edit the incrementally
relexed stream must be value-identical (type, text, trivia, lookahead)
to a from-scratch lex of the same text.
"""

from random import Random

import pytest

from repro.dag.nodes import TerminalNode
from repro.langs import get_language
from repro.langs.generators import generate_calc_program, generate_minic
from repro.lexing import relex, stream_text
from repro.testing.faults import random_edit

# Snippets mix well-formed fragments with garbage: the lexer must stay
# consistent through invalid intermediate states too.
CALC_SNIPPETS = ["1", "42", "x", " + y", "; z = 3", "(", ")", " ", "@@"]
MINIC_SNIPPETS = [
    "1",
    "x",
    " + y",
    "; int z = 4;",
    "{",
    "}",
    "if (x) ",
    " ",
    "$$",
]

N_EDITS = 12
SEEDS = range(10)


def _view(tokens):
    return [(t.type, t.text, t.trivia, t.lookahead) for t in tokens]


def _tokens(nodes):
    return [node.token for node in nodes]


def _run_session(language_name, base_text, snippets, seed):
    spec = get_language(language_name).lexer
    rng = Random(seed)
    text = base_text
    nodes = [TerminalNode(tok) for tok in spec.lex(text)]
    for _ in range(N_EDITS):
        offset, remove, insert = random_edit(rng, text, snippets)
        new_text = text[:offset] + insert + text[offset + remove :]
        result = relex(spec, nodes, new_text, offset, remove, len(insert))
        assert stream_text(_tokens(result.tokens)) == new_text
        assert _view(_tokens(result.tokens)) == _view(spec.lex(new_text))
        nodes, text = result.tokens, new_text


@pytest.mark.parametrize("seed", SEEDS)
def test_calc_random_edit_sessions_match_batch(seed):
    _run_session(
        "calc", generate_calc_program(16, seed=seed + 1), CALC_SNIPPETS, seed
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_minic_random_edit_sessions_match_batch(seed):
    _run_session(
        "minic", generate_minic(20, seed=seed + 1), MINIC_SNIPPETS, seed
    )

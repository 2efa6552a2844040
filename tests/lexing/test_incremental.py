"""Tests for incremental relexing, including equivalence with batch lexing.

``relex`` reads and returns a stream of terminal nodes: unchanged tokens
come back as the same node objects, rescanned ones as new nodes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.nodes import TerminalNode
from repro.lexing import EOS, LexerSpec, relex
from repro.lexing import stream_text as _stream_text


def spec() -> LexerSpec:
    return LexerSpec(
        token_defs=[
            ("NUM", "[0-9]+"),
            ("ID", "[a-zA-Z_][a-zA-Z0-9_]*"),
        ],
        keywords=["if", "else", ";", "(", ")", "=", "+", "<=", "<"],
        ignore=["[ \\t\\n]+"],
    )


SPEC = spec()


def apply_edit(text, offset, removed, inserted):
    return text[:offset] + inserted + text[offset + removed :]


def lex_nodes(text):
    return [TerminalNode(tok) for tok in SPEC.lex(text)]


def toks(nodes):
    return [node.token for node in nodes]


def stream_text(nodes):
    return _stream_text(toks(nodes))


def do_relex(old_text, offset, removed, inserted):
    old = lex_nodes(old_text)
    new_text = apply_edit(old_text, offset, removed, inserted)
    result = relex(SPEC, old, new_text, offset, removed, len(inserted))
    return old, new_text, result


class TestRelexCorrectness:
    def test_replace_token_text(self):
        old, new_text, res = do_relex("a = 1;", 4, 1, "25")
        assert stream_text(res.tokens) == new_text
        assert [t.type for t in toks(res.tokens)] == ["ID", "=", "NUM", ";", EOS]

    def test_tokens_outside_edit_reused_by_identity(self):
        old, _, res = do_relex("aa = 11; bb = 22;", 5, 2, "33")
        assert res.tokens[0] is old[0]  # 'aa'
        assert res.tokens[-2] is old[-2]  # final ';'

    def test_rescanned_tokens_get_new_nodes(self):
        old, _, res = do_relex("aa = 11; bb = 22;", 5, 2, "33")
        changed = res.changed
        assert [n.token.text for n in changed] == ["33"]
        assert all(n is not o for n in changed for o in old)
        assert all(n.parent is None for n in changed)
        # The replaced window's old nodes are reported by identity.
        assert len(res.removed) == 1 and res.removed[0] is old[2]

    def test_edit_splitting_a_token(self):
        old, new_text, res = do_relex("abc", 1, 0, " ")
        assert [t.text for t in toks(res.tokens) if t.type == "ID"] == ["a", "bc"]
        assert stream_text(res.tokens) == new_text

    def test_edit_joining_tokens(self):
        old, new_text, res = do_relex("ab cd", 2, 1, "")
        ids = [t.text for t in toks(res.tokens) if t.type == "ID"]
        assert ids == ["abcd"]

    def test_keyword_boundary_lookahead(self):
        # "if" + edit appending "f" must become identifier "iff".
        old, new_text, res = do_relex("if (x)", 2, 0, "f")
        first = res.tokens[0].token
        assert first.type == "ID" and first.text == "iff"

    def test_lookahead_invalidation_two_char_operator(self):
        # "<" followed by inserted "=" must re-lex to "<=".
        old, new_text, res = do_relex("a < b", 3, 0, "= ")
        types = [t.type for t in toks(res.tokens)]
        assert "<=" in types and "<" not in types

    def test_insert_at_start(self):
        old, new_text, res = do_relex("x = 1;", 0, 0, "y")
        assert res.tokens[0].token.text == "yx"
        assert stream_text(res.tokens) == new_text

    def test_insert_at_end(self):
        old, new_text, res = do_relex("x = 1", 5, 0, "7")
        nums = [t for t in toks(res.tokens) if t.type == "NUM"]
        assert nums[0].text == "17"

    def test_delete_everything(self):
        old, new_text, res = do_relex("x = 1;", 0, 6, "")
        assert [t.type for t in toks(res.tokens)] == [EOS]

    def test_initial_lex_empty_old(self):
        res = relex(SPEC, [], "a b", 0, 0, 3)
        assert [t.text for t in toks(res.tokens) if t.type == "ID"] == ["a", "b"]

    def test_changed_range_covers_new_tokens(self):
        old, _, res = do_relex("aa = 11; bb = 22;", 5, 2, "33")
        changed_texts = [t.text for t in toks(res.changed)]
        assert "33" in changed_texts
        assert "bb" not in changed_texts

    def test_removed_tokens_reported(self):
        old, _, res = do_relex("aa = 11; bb = 22;", 5, 2, "33")
        removed_texts = [t.text for t in toks(res.removed)]
        assert "11" in removed_texts

    def test_scan_work_is_local(self):
        text = "; ".join(f"v{i} = {i}" for i in range(200)) + ";"
        old = lex_nodes(text)
        new_text = apply_edit(text, 5, 1, "9")
        res = relex(SPEC, old, new_text, 5, 1, "9".__len__())
        assert res.scanned <= 6

    def test_examined_tokens_independent_of_document_size(self):
        # Counter-verified O(edit) bound: the same edit at a fixed offset
        # must examine the same number of old tokens no matter how much
        # document follows it.  The former implementation materialized a
        # resync offset map over the entire tail (O(N) per edit), which
        # this test rejects by construction -- not by wall clock.
        examined = []
        scanned = []
        for n in (50, 200, 800):
            text = "; ".join(f"v{i} = {i}" for i in range(n)) + ";"
            old = lex_nodes(text)
            new_text = apply_edit(text, 5, 1, "9")
            res = relex(SPEC, old, new_text, 5, 1, 1)
            assert stream_text(res.tokens) == new_text
            examined.append(res.examined)
            scanned.append(res.scanned)
        assert examined[0] == examined[1] == examined[2], examined
        assert examined[0] <= 8
        assert scanned[0] == scanned[1] == scanned[2], scanned
        assert scanned[0] <= 6

    def test_whitespace_only_edit_keeps_types(self):
        old, new_text, res = do_relex("a = 1;", 1, 0, "   ")
        assert [t.type for t in toks(res.tokens)] == [t.type for t in toks(old)]
        assert stream_text(res.tokens) == new_text


# -- property: relex == batch lex -------------------------------------------

_ALPHABET = "ab1 ;=<(x"


@given(
    st.text(_ALPHABET, max_size=30),
    st.integers(0, 30),
    st.integers(0, 6),
    st.text(_ALPHABET, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_relex_equals_batch_lex(old_text, offset, removed, inserted):
    offset = min(offset, len(old_text))
    removed = min(removed, len(old_text) - offset)
    old = lex_nodes(old_text)
    new_text = apply_edit(old_text, offset, removed, inserted)
    result = relex(SPEC, old, new_text, offset, removed, len(inserted))
    batch = SPEC.lex(new_text)
    assert [
        (t.type, t.text, t.trivia, t.lookahead) for t in toks(result.tokens)
    ] == [
        (t.type, t.text, t.trivia, t.lookahead) for t in batch
    ]


@given(
    st.text(_ALPHABET, max_size=30),
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 4), st.text(_ALPHABET, max_size=4)),
        max_size=5,
    ),
)
@settings(max_examples=100, deadline=None)
def test_chained_edits_stay_consistent(text, edits):
    tokens = lex_nodes(text)
    for offset, removed, inserted in edits:
        offset = min(offset, len(text))
        removed = min(removed, len(text) - offset)
        new_text = apply_edit(text, offset, removed, inserted)
        result = relex(SPEC, tokens, new_text, offset, removed, len(inserted))
        # Every node is either carried over by identity or new.
        kept = {id(n) for n in tokens}
        assert {id(n) for n in result.removed} <= kept
        assert not {id(n) for n in result.removed} & {id(n) for n in result.tokens}
        tokens = result.tokens
        text = new_text
        assert stream_text(tokens) == text
    batch = SPEC.lex(text)
    assert [(t.type, t.text) for t in toks(tokens)] == [
        (t.type, t.text) for t in batch
    ]

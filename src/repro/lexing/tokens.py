"""Token objects produced by the lexers.

Tokens are the terminal symbols of the parse DAG, so their identity
matters: the incremental lexer hands unchanged text back as the *same*
terminal node, carrying the same ``Token`` object, which lets the
incremental parser recognize unchanged terminals by identity.

A token records how many characters past its own end the lexer examined
(``lookahead``); an edit within that window invalidates the token even
though its own text is untouched (paper Appendix A).
"""

from __future__ import annotations

from dataclasses import dataclass

# Sentinel token types delimiting the stream, mirroring the paper's
# bos/eos terminals.  EOS deliberately equals the grammar's EOF terminal
# so the end-of-stream token indexes the parse table directly.
BOS = "$bos"
EOS = "$eof"
ERROR_TOKEN = "$error"


@dataclass(eq=False)
class Token:
    """One lexical token plus its leading trivia.

    Attributes:
        type: terminal symbol name (grammar terminal, or BOS/EOS/ERROR).
        text: the matched characters.
        trivia: skipped characters (whitespace/comments) *preceding* the
            token; concatenating ``trivia + text`` over a stream
            reconstructs the document exactly.
        lookahead: characters beyond ``text`` examined during recognition.
    """

    type: str
    text: str
    trivia: str = ""
    lookahead: int = 0

    @property
    def width(self) -> int:
        """Total characters owned by the token, trivia included."""
        return len(self.trivia) + len(self.text)

    def same_content(self, other: "Token") -> bool:
        """Value equality ignoring object identity."""
        return (
            self.type == other.type
            and self.text == other.text
            and self.trivia == other.trivia
            and self.lookahead == other.lookahead
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type!r}, {self.text!r})"


class LexError(Exception):
    """Raised by strict lexing when no rule matches."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def stream_text(tokens: list[Token]) -> str:
    """Reconstruct source text from a token stream."""
    return "".join(tok.trivia + tok.text for tok in tokens)


def token_offsets(tokens: list[Token]) -> list[int]:
    """Start offset (including trivia) of each token."""
    offsets = []
    pos = 0
    for tok in tokens:
        offsets.append(pos)
        pos += tok.width
    return offsets

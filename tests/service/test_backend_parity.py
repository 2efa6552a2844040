"""Both service backends answer every request alike.

The sharded backend only routes: whatever the dispatcher does not
answer itself reaches a worker's ``AnalysisService``, which validates
it exactly as the in-process service does.  One request script --
every op in well-formed form, plus malformed requests -- therefore
gets the same replies from an in-process ``AnalysisService`` and from
a two-worker ``ShardDispatcher``, error codes and messages included.

Also here: the op table of docs/SERVICE.md lists exactly the ops the
service answers, so an op cannot ship undocumented.
"""

import asyncio
import re
from pathlib import Path

import pytest

from repro.langs import clear_language_overrides, get_language
from repro.langs.calc import CALC_GRAMMAR
from repro.service import AnalysisService
from repro.service.pool import ShardDispatcher, shard_for
from repro.service.server import OPS
from repro.tables import cache

pytestmark = pytest.mark.service

REPO_ROOT = Path(__file__).resolve().parents[2]

# Two calc documents on different shards, a minic header and a
# dependent on different shards.
CALC_A, CALC_B = "a.calc", "d.calc"
HEADER, DEP = "doc0", "doc1"
HEADER_TEXT = "typedef int T;\n"
DEP_TEXT = "int f(int p) {\n  T (u);\n}\n"
# calc plus a `read` statement; any compiling variant would do.
CALC_VARIANT = CALC_GRAMMAR.replace(
    "| 'print' expr ';'  @print",
    "| 'print' expr ';'  @print\n     | 'read' ID ';'  @read",
)
assert CALC_VARIANT != CALC_GRAMMAR

SCRIPT = [
    # -- every op, well formed ------------------------------------------
    {"op": "ping"},
    {"op": "open", "doc": CALC_A, "language": "calc", "text": "x = 1;"},
    {"op": "open", "doc": CALC_B, "language": "calc", "text": "y = 2;"},
    {"op": "edit", "doc": CALC_A, "echo_text": True,
     "edits": [{"at": 4, "remove": 1, "insert": "9"}]},
    {"op": "parse", "doc": CALC_A},
    {"op": "query", "doc": CALC_A, "echo_text": True},
    {"op": "open", "doc": HEADER, "language": "minic", "text": HEADER_TEXT},
    {"op": "open", "doc": DEP, "language": "minic", "text": DEP_TEXT},
    {"op": "analyze", "doc": HEADER},
    {"op": "depends", "doc": DEP, "on": HEADER},
    {"op": "edit", "doc": HEADER,
     "edits": [{"at": 0, "remove": len(HEADER_TEXT), "insert": ""}]},
    {"op": "analyze", "doc": DEP},
    {"op": "invalidate", "doc": DEP, "on": "ext.minic",
     "added": ["T"], "removed": []},
    {"op": "invalidate", "doc": DEP, "added": [], "removed": ["T"]},
    {"op": "snapshot", "doc": CALC_A},
    {"op": "reload_grammar", "doc": CALC_B, "grammar": CALC_VARIANT},
    {"op": "reload_grammar", "language": "calc", "grammar": CALC_VARIANT},
    {"op": "stats"},
    {"op": "close", "doc": CALC_A},
    # -- malformed or refused -------------------------------------------
    {"op": "frobnicate"},
    {"op": "frobnicate", "doc": CALC_B},
    {"op": "edit"},
    {"op": "edit", "doc": ""},
    {"op": "edit", "doc": CALC_B, "edits": []},
    {"op": "edit", "doc": CALC_B, "edits": "x"},
    {"op": "edit", "doc": CALC_B, "edits": [{"at": 999, "remove": 1}]},
    {"op": "edit", "doc": "missing", "edits": [{"at": 0}]},
    {"op": "query", "doc": ""},
    {"op": "query", "doc": CALC_A},
    {"op": "depends", "doc": "missing"},
    {"op": "depends", "doc": "missing", "on": HEADER},
    {"op": "depends", "doc": DEP, "on": DEP},
    {"op": "depends", "doc": DEP, "on": HEADER, "seed": "T"},
    {"op": "invalidate", "doc": DEP, "added": "T"},
    {"op": "invalidate", "doc": DEP, "on": ""},
    {"op": "invalidate", "doc": ""},
    {"op": "open", "doc": CALC_B, "language": "calc"},
    {"op": "open", "doc": "z.calc", "language": "not-a-language"},
    {"op": "open", "doc": "", "language": "calc"},
    {"op": "reload_grammar", "grammar": CALC_VARIANT},
    {"op": "reload_grammar", "language": "calc", "grammar": ":::"},
    {"op": "reload_grammar", "doc": "", "grammar": CALC_VARIANT},
    {"op": "reload_grammar", "doc": "ghost", "grammar": CALC_VARIANT},
    {"op": "shutdown"},
]


@pytest.fixture
def isolated_tables(tmp_path, monkeypatch):
    # The language-form reload evicts the built-in calc table and
    # installs an override: keep both out of every other test.  Seed
    # the entry the reload evicts, as any serving process would have.
    monkeypatch.setenv(cache.CACHE_ENV, str(tmp_path / "tables"))
    cache.clear_cache()
    lang = get_language("calc")
    cache.build_table(lang.grammar, lang.table.method)
    yield
    cache.clear_cache()
    cache.reset_stats()
    clear_language_overrides()


async def _run_script(service) -> list[dict]:
    replies = []
    try:
        for index, request in enumerate(SCRIPT):
            replies.append(await service.handle(dict(request, id=index)))
    finally:
        await service.aclose()
    return replies


@pytest.mark.multiproc
@pytest.mark.slow
def test_both_backends_reply_alike(tmp_path, isolated_tables):
    assert shard_for(CALC_A, 2) != shard_for(CALC_B, 2)
    assert shard_for(HEADER, 2) != shard_for(DEP, 2)
    inproc = asyncio.run(
        _run_script(AnalysisService(state_dir=tmp_path / "inproc"))
    )
    sharded = asyncio.run(
        _run_script(
            ShardDispatcher(
                2, request_timeout=60.0, state_dir=tmp_path / "sharded"
            )
        )
    )
    assert {request["op"] for request in SCRIPT} >= set(OPS)
    for request, mine, theirs in zip(SCRIPT, inproc, sharded):
        assert mine["ok"] is theirs["ok"], (request, mine, theirs)
        if not mine["ok"]:
            assert mine["error"]["code"] == theirs["error"]["code"], (
                request, mine, theirs,
            )
        if request["op"] == "stats":
            continue
        if request["op"] == "ping":
            assert theirs.pop("workers") == 2
        assert mine == theirs, request


def test_op_table_lists_every_op():
    text = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
    section = text.split("## Protocol", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 2 and "`" in cells[1]:
            documented.update(re.findall(r"`([a-z_]+)`", cells[1]))
    assert documented == set(OPS)

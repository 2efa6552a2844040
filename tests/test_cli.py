"""Tests for the command-line interface and table diagnostics."""

import asyncio
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.grammar import parse_grammar
from repro.tables import ParseTable
from repro.tables.diagnostics import conflict_report, table_summary

CALC_DSL = """
%token NUM /[0-9]+/
%token ID  /[a-zA-Z_][a-zA-Z0-9_]*/
%left '+'
%left '*'
program : stmt* ;
stmt : ID '=' e ';' ;
e : e '+' e | e '*' e | NUM | ID ;
"""

AMBIG_DSL = """
%token NUM /[0-9]+/
e : e '+' e | NUM ;
"""


@pytest.fixture
def calc_files(tmp_path):
    grammar = tmp_path / "calc.g"
    grammar.write_text(CALC_DSL)
    source = tmp_path / "prog.calc"
    source.write_text("a = 1 + 2; b = a * 3;")
    return str(grammar), str(source)


class TestCli:
    def test_grammar_command(self, calc_files, capsys):
        grammar, _ = calc_files
        assert main(["grammar", grammar]) == 0
        out = capsys.readouterr().out
        assert "LALR(1), deterministic" in out
        assert "no conflicts" in out

    def test_grammar_command_with_conflicts(self, tmp_path, capsys):
        path = tmp_path / "ambig.g"
        path.write_text(AMBIG_DSL)
        assert main(["grammar", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shift/reduce" in out
        assert "e -> e · + e" in out

    def test_slr_method_flag(self, calc_files, capsys):
        grammar, _ = calc_files
        assert main(["--method", "slr", "grammar", grammar]) == 0
        assert "SLR(1)" in capsys.readouterr().out

    def test_tokens_command(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["tokens", grammar, source]) == 0
        out = capsys.readouterr().out
        assert "NUM" in out and "'a'" in out

    def test_parse_command(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["parse", grammar, source]) == 0
        out = capsys.readouterr().out
        assert "shifts" in out and "ambiguous regions: 0" in out

    def test_parse_tree_output(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["parse", grammar, source, "--tree", "--max-depth", "2"]) == 0
        assert "program" in capsys.readouterr().out

    def test_parse_balanced(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["parse", grammar, source, "--balanced"]) == 0

    def test_edit_command(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["edit", grammar, source, "4:1:42"]) == 0
        out = capsys.readouterr().out
        assert "work=" in out
        assert "a = 42 + 2" in out

    def test_edit_deletion(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["edit", grammar, source, "0:11:"]) == 0
        assert "b = a * 3;" in capsys.readouterr().out

    def test_edit_deferred_reports(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["edit", grammar, source, "0:1:((("]) == 0
        assert "[edits deferred]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, specs, message",
        [
            ("edit", ["abc"], "bad edit 'abc'"),
            ("edit", ["x:1:y"], "bad edit 'x:1:y'"),
            ("validate", ["4:1:7", "5"], "bad edit '5'"),
            ("validate", ["99:1:x"], "outside document"),
            ("edit", ["0:21:", "1:0:x"], "outside document"),
        ],
        ids=["no-colon", "bad-offset", "no-length", "past-end",
             "past-end-after-edit"],
    )
    def test_bad_edit_is_a_usage_error(
        self, calc_files, capsys, command, specs, message
    ):
        grammar, source = calc_files  # the source has 21 characters
        assert main([command, grammar, source, *specs]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
        if specs[-1] == "5":
            assert captured.out == ""  # specs are checked before parsing

    def test_missing_file(self, calc_files, capsys):
        grammar, _ = calc_files
        assert main(["parse", grammar, "/nonexistent"]) == 2
        assert "error" in capsys.readouterr().err

    def test_validate_command(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["validate", grammar, source]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_validate_with_edits(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["validate", grammar, source, "4:1:42", "0:0:((("]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "reverted" in out

    def test_validate_malformed_source(self, calc_files, tmp_path, capsys):
        grammar, _ = calc_files
        bad = tmp_path / "bad.calc"
        bad.write_text("a = ; ((( 1")
        assert main(["validate", grammar, str(bad)]) == 0
        out = capsys.readouterr().out
        assert "error region(s) isolated" in out

    def test_builtin_language_name(self, tmp_path, capsys):
        source = tmp_path / "prog.calc"
        source.write_text("a = 1 + 2;")
        assert main(["parse", "calc", str(source)]) == 0
        assert "shifts" in capsys.readouterr().out

    def test_unknown_name_still_reports_missing_file(self, capsys):
        assert main(["grammar", "no-such-language"]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_flag(self, calc_files, capsys):
        grammar, source = calc_files
        assert main(["--profile", "parse", grammar, source]) == 0
        captured = capsys.readouterr()
        assert "shifts" in captured.out
        assert "cumulative time" in captured.err
        assert "cmd_parse" in captured.err


class TestTablesCommand:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        from repro.tables import cache

        monkeypatch.setenv(cache.CACHE_ENV, str(tmp_path / "tables"))
        cache.clear_cache()
        cache.reset_stats()
        yield
        cache.clear_cache()
        cache.reset_stats()

    def test_stats_after_build(self, calc_files, capsys):
        grammar, _ = calc_files
        assert main(["grammar", grammar]) == 0
        capsys.readouterr()
        assert main(["tables", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cache dir:" in out
        assert "1 miss(es)" in out
        assert "on-disk entries: 1" in out

    def test_clear(self, calc_files, capsys):
        grammar, _ = calc_files
        assert main(["grammar", grammar]) == 0
        assert main(["tables", "--clear"]) == 0
        capsys.readouterr()
        assert main(["tables"]) == 0
        assert "on-disk entries: 0" in capsys.readouterr().out

    def test_origin_breakdown_separates_inline_from_builtin(
        self, calc_files, capsys
    ):
        # An ad-hoc grammar file compiles with an inline: label...
        grammar, _ = calc_files
        assert main(["grammar", grammar]) == 0
        # ...while a registered language records a builtin: label (the
        # memoized constructor is cleared so build_table actually runs
        # inside this isolated cache).
        from repro.langs.lr2 import lr2_language

        lr2_language.cache_clear()
        lr2_language()
        capsys.readouterr()
        assert main(["tables", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "inline grammars (1): program" in out
        assert "builtin grammars (1): lr2" in out


class TestDiagnostics:
    def test_summary_fields(self):
        table = ParseTable(parse_grammar(AMBIG_DSL))
        text = table_summary(table)
        assert "states:" in text and "conflicts:    1" in text

    def test_conflict_report_lists_items_and_actions(self):
        table = ParseTable(parse_grammar(AMBIG_DSL))
        report = conflict_report(table)
        assert "lookahead '+'" in report
        assert "reduce e -> e + e" in report
        assert "shift, goto state" in report

    def test_deterministic_report(self):
        table = ParseTable(parse_grammar("%token N /[0-9]+/\ns : N ;"))
        assert "no conflicts" in conflict_report(table)

    def test_epsilon_production_rendering(self):
        table = ParseTable(parse_grammar("%token X /x/\ns : X opt ;\nopt : X? ;"))
        # No crash on epsilon items; summary renders.
        assert "states:" in table_summary(table)


class TestServiceStats:
    def test_prints_each_session_queue_depth(self, capsys):
        """``stats --service`` shows the queue depth sessions report."""
        from repro.service import AnalysisService, EditSpec

        async def stats_line() -> bytes:
            service = AnalysisService()
            await service.handle(
                {"op": "open", "id": 1, "doc": "d", "language": "calc",
                 "text": "a = 1;"}
            )
            session = service.manager.get("d")
            session.pause()
            queued = [
                session.submit_edits(i, [EditSpec(4, 1, str(i))])
                for i in range(3)
            ]
            await asyncio.sleep(0)  # the worker takes the first, blocks
            reply = await service.handle({"op": "stats", "id": 2})
            session.resume()
            await asyncio.gather(*queued)
            await service.aclose()
            return (json.dumps(reply) + "\n").encode("utf-8")

        line = asyncio.run(stats_line())
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)
        port = listener.getsockname()[1]

        def answer_once() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.recv(1 << 16)
                conn.sendall(line)

        thread = threading.Thread(target=answer_once, daemon=True)
        thread.start()
        try:
            assert main(["stats", "--service", f"127.0.0.1:{port}"]) == 0
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
        out = capsys.readouterr().out
        assert "queue=2" in out
        # One line per collector generation.
        for generation in range(3):
            assert f"collector gen {generation}: " in out

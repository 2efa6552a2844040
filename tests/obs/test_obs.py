"""Unit and integration tests for the repro.obs observability layer."""

import io
import json

import pytest

from repro import obs
from repro.langs import get_language
from repro.langs.generators import generate_calc_program
from repro.obs import core
from repro.versioned.document import Document


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from ambient obs state (env-configured or prior)."""
    saved_enabled = core._enabled
    saved_exporters = list(core._exporters)
    core.configure(enabled=False)
    core.reset()
    yield
    core.configure(enabled=False)
    core.reset()
    core._exporters.extend(saved_exporters)
    core._enabled = saved_enabled


class TestCounters:
    def test_incr_disabled_is_noop(self):
        obs.incr("c")
        assert obs.counter("c") == 0
        assert obs.counters() == {}

    def test_incr_enabled_accumulates(self):
        obs.configure(enabled=True)
        obs.incr("c")
        obs.incr("c", 4)
        assert obs.counter("c") == 5

    def test_counters_returns_snapshot(self):
        obs.configure(enabled=True)
        obs.incr("c")
        snap = obs.counters()
        obs.incr("c")
        assert snap == {"c": 1}

    def test_reset_zeroes_counters_keeps_enabled(self):
        obs.configure(enabled=True)
        obs.incr("c")
        obs.reset()
        assert obs.counter("c") == 0
        assert obs.enabled()


class TestSpans:
    def test_disabled_span_is_shared_null_object(self):
        assert obs.span("a") is obs.span("b")
        with obs.span("a") as s:
            s.note(k=1)  # must be accepted and ignored
        assert obs.records() == []

    def test_span_records_duration_and_attrs(self):
        obs.configure(enabled=True)
        with obs.span("work", kind="test") as s:
            s.note(extra=2)
        (record,) = obs.records()
        assert record.name == "work"
        assert record.duration >= 0
        assert record.attrs == {"kind": "test", "extra": 2}
        assert record.depth == 0 and record.parent is None

    def test_nested_spans_track_depth_and_parent(self):
        obs.configure(enabled=True)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.records()
        assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
        assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)

    def test_span_captures_counter_deltas_only(self):
        obs.configure(enabled=True)
        obs.incr("before", 10)
        with obs.span("work"):
            obs.incr("inside", 3)
        (record,) = obs.records()
        assert record.deltas == {"inside": 3}

    def test_exception_unwinds_span_stack(self):
        obs.configure(enabled=True)
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise RuntimeError("boom")
        with obs.span("after"):
            pass
        after = obs.records()[-1]
        assert after.depth == 0 and after.parent is None

    def test_registry_cap_counts_dropped(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_RECORDS", 2)
        obs.configure(enabled=True)
        for _ in range(5):
            with obs.span("s"):
                pass
        assert len(obs.records()) == 2
        assert obs.dropped_records() == 3

    def test_span_summary_aggregates(self):
        obs.configure(enabled=True)
        for _ in range(3):
            with obs.span("a"):
                pass
        with obs.span("b"):
            pass
        summary = obs.span_summary()
        assert summary["a"]["calls"] == 3
        assert summary["b"]["calls"] == 1
        assert summary["a"]["total_s"] >= summary["a"]["max_s"]


class TestExporters:
    def test_jsonl_exporter_writes_valid_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(enabled=True, trace_path=str(path))
        with obs.span("outer", tag="t"):
            obs.incr("n", 2)
            with obs.span("inner"):
                pass
        obs.flush()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["span"] for l in lines] == ["inner", "outer"]
        outer = lines[1]
        assert outer["attrs"] == {"tag": "t"}
        assert outer["counters"] == {"n": 2}
        assert outer["depth"] == 0 and lines[0]["depth"] == 1
        assert outer["dur_ms"] >= 0

    def test_logfmt_exporter_writes_key_value_lines(self):
        stream = io.StringIO()
        obs.configure(enabled=True, logfmt=True, stream=stream)
        with obs.span("work", mode="x"):
            obs.incr("n")
        line = stream.getvalue().strip()
        assert line.startswith("span=work ")
        assert "mode=x" in line and "n=1" in line and "dur_ms=" in line

    def test_exporter_errors_are_swallowed(self):
        obs.configure(enabled=True)

        def broken(record):
            raise OSError("disk full")

        core._exporters.append(broken)
        with obs.span("work"):
            pass
        assert core._export_errors == 1
        assert len(obs.records()) == 1

    def test_trace_path_implies_enabled(self, tmp_path):
        obs.configure(enabled=False, trace_path=str(tmp_path / "t.jsonl"))
        assert obs.enabled()

    def test_flush_allows_reopen(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(enabled=True, trace_path=str(path))
        with obs.span("one"):
            pass
        obs.flush()
        with obs.span("two"):
            pass
        obs.flush()
        assert len(path.read_text().splitlines()) == 2


class TestCollecting:
    def test_yields_live_dict_and_isolates_outer_state(self):
        obs.configure(enabled=True)
        obs.incr("outer", 7)
        with obs.collecting() as work:
            obs.incr("inner", 2)
            assert work == {"inner": 2}
        assert work == {"inner": 2}  # readable after the block
        assert obs.counters() == {"outer": 7}

    def test_restores_disabled_state(self):
        assert not obs.enabled()
        with obs.collecting():
            assert obs.enabled()
        assert not obs.enabled()

    def test_suppresses_exporters_inside_block(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(enabled=True, trace_path=str(path))
        with obs.collecting():
            with obs.span("hidden"):
                pass
        with obs.span("visible"):
            pass
        obs.flush()
        spans = [json.loads(l)["span"] for l in path.read_text().splitlines()]
        assert spans == ["visible"]


class TestEnvInit:
    def test_trace_env_attaches_jsonl_exporter(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(core.TRACE_ENV, str(path))
        monkeypatch.delenv(core.OBS_ENV, raising=False)
        core._init_from_env()
        assert obs.enabled()
        assert any(
            isinstance(e, core._JsonlExporter) and e.path == str(path)
            for e in core._exporters
        )

    def test_obs_env_truthy_enables_registry_only(self, monkeypatch):
        monkeypatch.delenv(core.TRACE_ENV, raising=False)
        monkeypatch.setenv(core.OBS_ENV, "on")
        core._init_from_env()
        assert obs.enabled()
        assert core._exporters == []

    def test_no_env_leaves_layer_untouched(self, monkeypatch):
        monkeypatch.delenv(core.TRACE_ENV, raising=False)
        monkeypatch.delenv(core.OBS_ENV, raising=False)
        core._init_from_env()
        assert not obs.enabled()


class TestPipelineIntegration:
    def test_edit_session_reports_paper_counters(self):
        language = get_language("calc")
        text = generate_calc_program(24, seed=5)
        doc = Document(language, text)
        doc.parse()
        offset = doc.text.index("=") + 2
        with obs.collecting() as work:
            doc.edit(offset, 1, "7")
            doc.parse()
        assert work.get("doc.edits") == 1
        assert work.get("doc.parses") == 1
        assert work.get("doc.commits") == 1
        assert work.get("lex.relexes") == 1
        assert work.get("lex.tokens_rescanned", 0) >= 1
        assert work.get("lex.tokens_reused", 0) >= 1
        assert work.get("parse.subtrees_reused", 0) >= 1
        assert work.get("journal.records", 0) >= 1

    def test_balanced_edit_reports_sequence_repair(self):
        language = get_language("calc")
        text = generate_calc_program(24, seed=5)
        doc = Document(language, text, balanced_sequences=True)
        doc.parse()
        offset = doc.text.index("=") + 2
        with obs.collecting() as work:
            doc.edit(offset, 1, "7")
            doc.parse()
        assert work.get("seq.repairs") == 1
        assert work.get("seq.repair_fallbacks", 0) == 0

    def test_edit_session_emits_span_tree(self):
        language = get_language("calc")
        doc = Document(language, "x = 1 + 2 ;")
        doc.parse()
        obs.configure(enabled=True)
        doc.edit(4, 1, "9")
        doc.parse()
        names = {r.name for r in obs.records()}
        assert {"doc.parse", "doc.commit", "lex.relex", "parse.iglr"} <= names
        # Relexing happens at edit() time, outside the parse span.
        relex = next(r for r in obs.records() if r.name == "lex.relex")
        assert relex.parent is None
        commit = next(r for r in obs.records() if r.name == "doc.commit")
        assert commit.parent == "doc.parse"

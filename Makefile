# Convenience targets; all testing goes through pytest.
#
#   make test        - tier-1 correctness suite, then the repository
#                      benchmark's own tests (perfbench/tests)
#   make smoke       - robustness smoke: fuzz + fault-injection suites with
#                      post-commit DAG invariant validation enabled
#   make bench       - reproduction benchmarks (writes benchmarks/results/)
#   make bench-smoke - quick perf-regression gate: writes
#                      BENCH_incremental.json and fails if per-edit
#                      incremental time exceeds batch reparse time, if
#                      disabled-observability overhead exceeds 3% of
#                      per-edit latency, or if the analysis service
#                      cannot hold 8 concurrent sessions with p95 edit
#                      latency under the batch-reparse baseline; also
#                      sweeps the sharded backend (--workers 2) and
#                      fails if one sharded worker falls under 60% of
#                      in-process throughput
#   make serve-smoke - end-to-end analysis-service check: drives a
#                      scripted session through `repro serve` over stdio
#                      (examples/service_session.py), then the same
#                      script through the sharded backend (--workers 2)
#   make shard-smoke - multi-process shard gate: dispatcher routing,
#                      cross-process store locking, cache warm starts,
#                      kill-a-worker recovery (the multiproc marker)
#   make semantics-smoke - incremental-semantics gate: the semantics
#                      marker (differential conformance, project graph,
#                      service ops) plus the cross-document bench check
#                      that re-decisions per header edit track dependent
#                      fanout, not project or document size
#   make grammar-smoke - real-language-scale gate: the grammar marker
#                      (fullc grammar + typedef analysis, DSL error-path
#                      properties, grammar-agnostic scenario generators,
#                      service-wide grammar hot-reload incl. the sharded
#                      backend and snapshot rehydration)
#   make fault-smoke - crash-safety gate: the kill -9 recovery harness
#                      (SIGKILL a live `repro serve --state-dir` at every
#                      registered persistence crash point, restart,
#                      assert byte-identical rehydration), the durable-
#                      snapshot suites, and the crash-point coverage gate
#   make trace-demo  - sample observability run: writes a JSON-lines span
#                      trace of an example edit session to
#                      benchmarks/results/TRACE_demo.jsonl

PY = PYTHONPATH=src python

.PHONY: test smoke bench bench-smoke serve-smoke fault-smoke shard-smoke \
	semantics-smoke grammar-smoke trace-demo

test:
	$(PY) -m pytest -q
	$(PY) -m pytest -q perfbench/tests

smoke:
	REPRO_VALIDATE=1 $(PY) -m pytest -q -m "fuzz or faults"

fault-smoke:
	$(PY) -m pytest -q -m "persistence or (faults and service)" \
		tests/service

bench:
	$(PY) -m pytest -q benchmarks

bench-smoke:
	$(PY) -m repro.bench.incremental --smoke --check \
		--out benchmarks/results/BENCH_incremental.json
	$(PY) -m repro.bench.obs_overhead --check \
		--out benchmarks/results/BENCH_obs_overhead.json
	$(PY) -m repro.bench.service --smoke --check --workers 2 \
		--out benchmarks/results/BENCH_service.json
	$(PY) -m repro.bench.semantics --smoke --check \
		--out benchmarks/results/BENCH_semantics.json

serve-smoke:
	$(PY) examples/service_session.py
	$(PY) examples/service_session.py --workers 2

shard-smoke:
	$(PY) -m pytest -q -m multiproc tests/service

semantics-smoke:
	$(PY) -m pytest -q -m semantics
	$(PY) -m repro.bench.semantics --smoke --check \
		--out benchmarks/results/BENCH_semantics.json

grammar-smoke:
	$(PY) -m pytest -q -m grammar

trace-demo:
	REPRO_TRACE=benchmarks/results/TRACE_demo.jsonl $(PY) -m repro \
		edit calc examples/grammars/sample.calc "4:1:9" "10:0:+2" "10:2:" \
		--balanced
	@echo "wrote benchmarks/results/TRACE_demo.jsonl"

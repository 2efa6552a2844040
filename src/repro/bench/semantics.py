"""Cross-document semantics bench: re-decision cost per header edit.

``python -m repro.bench.semantics --out BENCH_semantics.json`` builds a
project on an in-process
:class:`~repro.service.server.AnalysisService` -- one header document
exporting typedefs, N dependent documents each consulting them -- then
toggles a typedef in the header and measures, via the ``repro.obs``
counters, how much semantic work the resulting invalidation cascade
performs:

* **re-decisions per edit**: choice points actually re-filtered across
  all dependents when the header's exports change.  The claim under
  test is the ISSUE 8 acceptance bar: this is bounded by the
  *affected-name fanout* (the number of dependent choice points that
  consult the toggled name), not by project size or document size;
* **invariance scenarios**: the same toggle replayed against (a) fewer
  dependents -- the per-dependent rate must not change -- and (b)
  dependents padded with unrelated statements -- the absolute count
  must not change;
* **full passes**: dependents must absorb the delta on the fast path
  (``sem.full_passes`` stays flat during the edit phase);
* wall-clock latency of the edit round-trip including the cascade.

``--smoke`` shrinks the edit count (CI); ``--check`` exits non-zero
when any invariance gate fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from .. import obs

HEADER = "header.minic"
TOGGLE = "Qt"
TOGGLE_LINE = f"typedef int {TOGGLE};\n"
# Counters that must scale with fanout only (not project/document size).
_WATCHED = (
    "sem.external_redecisions",
    "sem.full_passes",
    "project.invalidations",
)


def _header_text() -> str:
    stable = "".join(f"typedef int Q{i};\n" for i in range(3))
    return stable + TOGGLE_LINE


def _dependent_text(index: int, padding: int) -> str:
    """One dependent: a single choice point consulting the toggled name,
    two consulting stable imports, and ``padding`` unambiguous lines."""
    lines = [f"int fn{index}(int p0) {{", "  int v0;"]
    for k in range(padding):
        lines.append(f"  v0 = v0 + {k};")
    lines.append(f"  Q0 (s{index}a);")
    lines.append(f"  Q1 (s{index}b);")
    lines.append(f"  {TOGGLE} (u{index});")
    lines.append("}")
    return "\n".join(lines) + "\n"


async def _scenario(
    name: str, n_dependents: int, padding: int, n_edits: int
) -> dict:
    from ..service.server import AnalysisService

    service = AnalysisService(max_sessions=n_dependents + 8)

    async def req(payload: dict) -> dict:
        reply = await service.handle(dict(payload, id="b"))
        assert reply.get("ok"), reply
        return reply

    await req(
        {"op": "open", "doc": HEADER, "language": "minic",
         "text": _header_text()}
    )
    deps = [f"dep{i:02d}.minic" for i in range(n_dependents)]
    for i, doc in enumerate(deps):
        await req(
            {"op": "open", "doc": doc, "language": "minic",
             "text": _dependent_text(i, padding)}
        )
        await req({"op": "depends", "doc": doc, "on": HEADER})

    async def toggle_once(text_now: str) -> tuple[str, float]:
        """Remove or re-add the toggled typedef; returns (new text,
        seconds) for the full round trip including queue drain."""
        t0 = time.perf_counter()
        if TOGGLE_LINE in text_now:
            at = text_now.index(TOGGLE_LINE)
            spec = {"at": at, "remove": len(TOGGLE_LINE), "insert": ""}
            new_text = text_now.replace(TOGGLE_LINE, "", 1)
        else:
            spec = {"at": 0, "remove": 0, "insert": TOGGLE_LINE}
            new_text = TOGGLE_LINE + text_now
        await req({"op": "edit", "doc": HEADER, "edits": [spec]})
        # Queries drain each dependent's queue behind the pushed
        # invalidation, so the cascade has fully landed when they reply.
        for doc in deps:
            await req({"op": "query", "doc": doc})
        return new_text, time.perf_counter() - t0

    text = _header_text()
    latencies = []
    with obs.collecting() as counters:
        for _ in range(n_edits):
            text, seconds = await toggle_once(text)
            latencies.append(seconds)
    watched = {key: counters.get(key, 0) for key in _WATCHED}

    # One final consistency probe: every dependent's cumulative state
    # must agree with whether the toggled typedef is currently present.
    present = TOGGLE_LINE in text
    for doc in deps:
        reply = await req({"op": "analyze", "doc": doc})
        state = reply["sem_state"]
        expected_unresolved = 0 if present else 1
        assert state["unresolved"] == expected_unresolved, (doc, state)
    await service.aclose()

    return {
        "scenario": name,
        "dependents": n_dependents,
        "padding": padding,
        "edits": n_edits,
        "counters": watched,
        "redecisions_per_edit": watched["sem.external_redecisions"] / n_edits,
        "invalidations_per_edit": watched["project.invalidations"] / n_edits,
        "full_passes_per_edit": watched["sem.full_passes"] / n_edits,
        "mean_edit_seconds": sum(latencies) / len(latencies),
    }


def run(smoke: bool = False, n_edits: int | None = None) -> dict:
    """Execute all scenarios and return the report dict."""
    n_edits = n_edits if n_edits is not None else (2 if smoke else 6)
    scenarios = [
        # The acceptance-bar project: >= 20 documents.
        ("base", 20, 6, n_edits),
        # Fewer dependents: the per-dependent rate must be identical.
        ("fewer-dependents", 8, 6, n_edits),
        # Bigger documents, same fanout: the count must be identical.
        ("padded", 20, 48 if not smoke else 24, n_edits),
    ]
    results = [
        asyncio.run(_scenario(name, deps, padding, edits))
        for name, deps, padding, edits in scenarios
    ]
    by_name = {r["scenario"]: r for r in results}
    base = by_name["base"]
    return {
        "benchmark": "semantics",
        "smoke": smoke,
        "scenarios": results,
        "summary": {
            "fanout_per_dependent": base["redecisions_per_edit"]
            / base["dependents"],
            "size_invariant": base["redecisions_per_edit"]
            == by_name["padded"]["redecisions_per_edit"],
            "count_invariant": base["redecisions_per_edit"]
            / base["dependents"]
            == by_name["fewer-dependents"]["redecisions_per_edit"]
            / by_name["fewer-dependents"]["dependents"],
        },
    }


def check(report: dict) -> list[str]:
    """Regression gate: cascade work tracks fanout, not size."""
    problems = []
    by_name = {r["scenario"]: r for r in report["scenarios"]}
    for result in report["scenarios"]:
        # Each dependent holds exactly one choice point consulting the
        # toggled name, so per-edit re-decisions == dependent count.
        if result["redecisions_per_edit"] != result["dependents"]:
            problems.append(
                f"{result['scenario']}: {result['redecisions_per_edit']} "
                f"re-decisions per edit for {result['dependents']} "
                "dependent choice points (expected exactly one each)"
            )
        if result["invalidations_per_edit"] != result["dependents"]:
            problems.append(
                f"{result['scenario']}: {result['invalidations_per_edit']} "
                f"invalidations per edit, expected {result['dependents']}"
            )
    base, padded = by_name["base"], by_name["padded"]
    if base["redecisions_per_edit"] != padded["redecisions_per_edit"]:
        problems.append(
            "re-decisions per edit changed with document size: "
            f"{base['redecisions_per_edit']} (padding {base['padding']}) vs "
            f"{padded['redecisions_per_edit']} (padding {padded['padding']})"
        )
    # Dependents must stay on the fast path; the only full passes
    # allowed are the header's own, at most one per edit.
    for result in report["scenarios"]:
        if result["full_passes_per_edit"] > 1:
            problems.append(
                f"{result['scenario']}: {result['full_passes_per_edit']} "
                "full passes per edit -- dependents fell off the fast path"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.semantics", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="few edits per scenario"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if cascade work is not fanout-bounded",
    )
    parser.add_argument("--edits", type=int, default=None)
    args = parser.parse_args(argv)

    report = run(smoke=args.smoke, n_edits=args.edits)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.out}")
    else:
        print(rendered)

    for result in report["scenarios"]:
        print(
            f"{result['scenario']}: {result['dependents']} dependents, "
            f"padding {result['padding']}: "
            f"{result['redecisions_per_edit']:.0f} re-decisions per edit, "
            f"{result['mean_edit_seconds'] * 1e3:.1f} ms per edit round trip"
        )

    if args.check:
        problems = check(report)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("check passed: cascade work is bounded by affected-name fanout")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

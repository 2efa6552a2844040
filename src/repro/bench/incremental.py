"""Perf-regression harness: per-edit latency vs document size.

``python -m repro.bench.incremental --out BENCH_incremental.json``
produces the canonical machine-readable benchmark artifact for the
"incremental cost must be incremental" claim (paper section 5):

* **per-edit latency vs document size** for the calc, MiniC and
  FullC languages, at several sizes, with the observed work counters of
  one representative edit cycle;
* **batch reparse time** at each size, for the incremental-vs-batch
  comparison, with power-law scaling exponents for both curves;
* **one wide edit** per language on the largest document: a single
  edit that rewrites the middle 90% of the text (ten digits changed),
  against a batch parse of the same text;
* **parse-table acquisition**: cold build (empty cache) vs warm disk
  load vs in-process memory hit, for both the MiniC grammar and the
  real-language-scale FullC grammar.

``--smoke`` shrinks sizes and repetition counts so the run finishes in
seconds (CI); ``--check`` exits non-zero when per-edit incremental
latency fails to beat batch reparse at the largest size, when the
wide edit costs more than :data:`WIDE_EDIT_LIMIT` batch parses, or when
a clean edit entered error recovery (``doc.recoveries`` over an untimed
pass of each point's edits).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .. import obs
from ..langs import get_language
from ..langs.generators import (
    generate_calc_program,
    generate_minic,
    generate_program,
)
from ..tables import cache as table_cache
from ..versioned.document import Document
from .measure import fit_powerlaw, parse_work, time_fn
from .workloads import apply_and_cancel, self_cancelling_token_edits, wide_edit

# (language, generator, sizes).  Sizes are generator units (statements
# for calc, lines for minic/fullc); token counts are recorded per run.
# The third calc size is a ~2k-token document.  fullc gates the
# real-language-scale grammar: same edit workload, but pushed through the
# 200+-state C-subset tables.
FULL_SIZES: dict[str, tuple[Callable[[int], str], list[int]]] = {
    "calc": (lambda n: generate_calc_program(n, seed=11), [64, 256, 1024]),
    "minic": (lambda n: generate_minic(n, seed=11), [60, 240, 960]),
    "fullc": (
        lambda n: generate_program("fullc", n, seed=11),
        [48, 192, 768],
    ),
}
# The most a wide edit may cost, in batch parses of the same text.
WIDE_EDIT_LIMIT = 2.0
SMOKE_SIZES: dict[str, tuple[Callable[[int], str], list[int]]] = {
    "calc": (lambda n: generate_calc_program(n, seed=11), [64, 256]),
    "minic": (lambda n: generate_minic(n, seed=11), [60, 240]),
    "fullc": (
        lambda n: generate_program("fullc", n, seed=11),
        [48, 192],
    ),
}


def _bench_language(
    name: str,
    generate: Callable[[int], str],
    sizes: list[int],
    n_edits: int,
    repeat: int,
) -> dict:
    language = get_language(name)
    points = []
    for size in sizes:
        text = generate(size)
        doc = Document(language, text, balanced_sequences=True)
        doc.parse()
        n_tokens = len(doc.tokens)
        edits = self_cancelling_token_edits(doc, n_edits, seed=17)

        def batch() -> None:
            fresh = Document(language, text, balanced_sequences=True)
            fresh.parse()

        batch_timing = time_fn(batch, repeat=repeat, warmup=1)

        def cycle() -> None:
            for edit in edits:
                apply_and_cancel(doc, edit)

        timing = time_fn(cycle, repeat=repeat, warmup=1)
        work = parse_work(doc.last_result.stats)
        with obs.collecting() as clean_work:
            cycle()
        # Observed work counters for one representative edit cycle
        # (apply + cancel = 2 edits, 2 parses): where the per-edit
        # time actually goes -- reuse vs rescan vs journal traffic.
        with obs.collecting() as cycle_work:
            apply_and_cancel(doc, edits[0])
        points.append(
            {
                "size": size,
                "tokens": n_tokens,
                "batch_seconds": batch_timing.seconds,
                # Two parses per apply_and_cancel cycle.
                "per_edit_seconds": timing.seconds / (2 * n_edits),
                "per_edit_median_seconds": timing.median / (2 * n_edits),
                "last_parse_work": work,
                "recoveries": clean_work.get("doc.recoveries", 0),
                "cycle_counters": {
                    k: v for k, v in sorted(cycle_work.items()) if v
                },
            }
        )

    # The wide edit runs on the largest document: ``doc`` and ``text``
    # are still the last size's.  Apply and cancel are both wide edits.
    wide = wide_edit(doc)
    wide_timing = time_fn(
        lambda: apply_and_cancel(doc, wide), repeat=repeat, warmup=1
    )
    with obs.collecting() as wide_work:
        apply_and_cancel(doc, wide)
    wide_seconds = wide_timing.seconds / 2
    tokens = [float(p["tokens"]) for p in points]
    batch_exp = fit_powerlaw(
        tokens, [p["batch_seconds"] for p in points]
    )
    edit_exp = fit_powerlaw(tokens, [p["per_edit_seconds"] for p in points])
    largest = points[-1]
    return {
        "language": name,
        "n_edits": n_edits,
        "points": points,
        "scaling": {
            "batch_exponent": batch_exp,
            "per_edit_exponent": edit_exp,
        },
        "largest": {
            "tokens": largest["tokens"],
            "batch_seconds": largest["batch_seconds"],
            "per_edit_seconds": largest["per_edit_seconds"],
            "speedup_vs_batch": largest["batch_seconds"]
            / largest["per_edit_seconds"],
        },
        "wide_edit": {
            "tokens": largest["tokens"],
            "replaced_chars": wide.length,
            "seconds": wide_seconds,
            "batch_seconds": largest["batch_seconds"],
            "ratio_vs_batch": wide_seconds / largest["batch_seconds"],
            "cycle_counters": {
                k: v for k, v in sorted(wide_work.items()) if v
            },
        },
    }


def _bench_tables(tmp_dir: str, repeat: int) -> list[dict]:
    """Cold build vs warm disk load vs in-process memory hit, per grammar."""
    import os

    from ..grammar.dsl import parse_grammar_spec
    from ..langs.fullc import FULLC_GRAMMAR
    from ..langs.minic import MINIC_GRAMMAR

    previous = os.environ.get(table_cache.CACHE_ENV)
    os.environ[table_cache.CACHE_ENV] = tmp_dir
    results = []
    try:
        for name, source in (
            ("minic", MINIC_GRAMMAR),
            ("fullc", FULLC_GRAMMAR),
        ):
            grammar = parse_grammar_spec(source).grammar

            def cold() -> None:
                table_cache.clear_cache(disk=True)
                table_cache.build_table(grammar)

            def disk_warm() -> None:
                table_cache.clear_cache()  # memory only; disk entry stays
                table_cache.build_table(grammar)

            def memory_warm() -> None:
                table_cache.build_table(grammar)

            cold_t = time_fn(cold, repeat=repeat)
            table_cache.clear_cache(disk=True)
            table = table_cache.build_table(grammar)  # seed the disk entry
            disk_t = time_fn(disk_warm, repeat=repeat)
            table_cache.build_table(grammar)  # seed the memory entry
            memory_t = time_fn(memory_warm, repeat=repeat, runs=10)
            results.append(
                {
                    "grammar": name,
                    "n_states": table.n_states,
                    "cold_build_seconds": cold_t.seconds,
                    "disk_load_seconds": disk_t.seconds,
                    "memory_hit_seconds": memory_t.per_run,
                    "disk_speedup": cold_t.seconds / disk_t.seconds
                    if disk_t.seconds > 0
                    else float("inf"),
                }
            )
        return results
    finally:
        table_cache.clear_cache(disk=True)
        if previous is None:
            os.environ.pop(table_cache.CACHE_ENV, None)
        else:
            os.environ[table_cache.CACHE_ENV] = previous


def run(
    smoke: bool = False, n_edits: int | None = None, repeat: int | None = None
) -> dict:
    """Execute the full harness and return the report dict."""
    import tempfile

    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    n_edits = n_edits if n_edits is not None else (4 if smoke else 16)
    repeat = repeat if repeat is not None else (2 if smoke else 3)
    languages = [
        _bench_language(name, generate, size_list, n_edits, repeat)
        for name, (generate, size_list) in sizes.items()
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tables = _bench_tables(tmp, repeat)
    return {
        "benchmark": "incremental",
        "smoke": smoke,
        "languages": languages,
        "tables": tables,
    }


def check(report: dict) -> list[str]:
    """Regression gate: incremental must beat batch at the largest size,
    no single wide edit may cost more than WIDE_EDIT_LIMIT batch parses,
    and no clean edit may enter error recovery."""
    problems = []
    for lang in report["languages"]:
        for point in lang["points"]:
            if point["recoveries"]:
                problems.append(
                    f"{lang['language']}: {point['recoveries']} clean "
                    f"edit(s) entered error recovery at {point['tokens']} "
                    "tokens"
                )
        largest = lang["largest"]
        if largest["per_edit_seconds"] >= largest["batch_seconds"]:
            problems.append(
                f"{lang['language']}: per-edit incremental time "
                f"({largest['per_edit_seconds']:.6f}s) is not below batch "
                f"reparse ({largest['batch_seconds']:.6f}s) at "
                f"{largest['tokens']} tokens"
            )
        wide = lang["wide_edit"]
        if wide["ratio_vs_batch"] > WIDE_EDIT_LIMIT:
            problems.append(
                f"{lang['language']}: one wide edit costs "
                f"{wide['seconds']:.6f}s, {wide['ratio_vs_batch']:.2f}x a "
                f"batch parse, above the {WIDE_EDIT_LIMIT}x limit at "
                f"{wide['tokens']} tokens"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.incremental", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes, few repeats"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if incremental does not beat batch, a wide "
        "edit costs more than WIDE_EDIT_LIMIT batch parses, or a clean "
        "edit enters error recovery",
    )
    parser.add_argument("--edits", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=None)
    args = parser.parse_args(argv)

    report = run(smoke=args.smoke, n_edits=args.edits, repeat=args.repeat)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.out}")
    else:
        print(rendered)

    for lang in report["languages"]:
        largest = lang["largest"]
        print(
            f"{lang['language']}: {largest['tokens']} tokens, per-edit "
            f"{largest['per_edit_seconds'] * 1e3:.2f} ms vs batch "
            f"{largest['batch_seconds'] * 1e3:.2f} ms "
            f"({largest['speedup_vs_batch']:.1f}x), per-edit scaling "
            f"exponent {lang['scaling']['per_edit_exponent']:.2f} "
            f"(batch {lang['scaling']['batch_exponent']:.2f}), wide edit "
            f"{lang['wide_edit']['seconds'] * 1e3:.2f} ms "
            f"({lang['wide_edit']['ratio_vs_batch']:.2f}x batch)"
        )
    for entry in report["tables"]:
        print(
            f"tables[{entry['grammar']}]: {entry['n_states']} states, cold "
            f"build {entry['cold_build_seconds'] * 1e3:.1f} ms, disk load "
            f"{entry['disk_load_seconds'] * 1e3:.1f} ms "
            f"({entry['disk_speedup']:.1f}x)"
        )

    if args.check:
        problems = check(report)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(
            "check passed: incremental beats batch at the largest size, "
            f"wide edits stay within {WIDE_EDIT_LIMIT}x batch, and no "
            "clean edit entered error recovery"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

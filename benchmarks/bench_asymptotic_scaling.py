"""Experiment A3.4 — section 3.4: asymptotic behaviour of incremental parsing.

Paper: with associative sequences represented so that access is
logarithmic, incremental parsing runs in O(t + s·lg N) typical time for t
new terminals and s edit sites in a tree of N nodes; with ordinary
left-recursive list spines the cost of an edit depends on its distance
from the spine's far end and degenerates to linear.

We reproduce the *work* measurement (shifts + reductions + breakdowns +
balanced-tree parts built -- machine-independent) over a size sweep,
both ways:

* plain left-recursive representation: near-end edits are O(1), but
  middle/start edits re-reduce the spine suffix -- Θ(N);
* balanced representation (``balanced_sequences=True``): every edit
  position costs O(lg N), the paper's headline bound.
"""

from __future__ import annotations

from repro import Document
from repro.bench import fit_powerlaw, parse_work, render_table
from repro.bench.workloads import numeric_token_sites
from repro.dag.sequences import parts_created
from repro.langs.calc import calc_language
from repro.langs.generators import generate_calc_program

SIZES = (50, 100, 200, 400, 800)


def _work_for_edit(
    n_statements: int, position: float, balanced: bool = False
) -> int:
    """Parse work for a self-cancelling edit at a relative position."""
    lang = calc_language()
    doc = Document(
        lang,
        generate_calc_program(n_statements, seed=13),
        balanced_sequences=balanced,
    )
    doc.parse()
    sites = numeric_token_sites(doc)
    offset, length = sites[int(position * (len(sites) - 1))]
    before = parts_created()
    doc.edit(offset, length, "777")
    report = doc.parse()
    return parse_work(report.stats) + (parts_created() - before)


def test_asymptotic_edit_position_dependence(benchmark, report_sink):
    rows = []
    last_work = {}
    for size in SIZES:
        w_end = _work_for_edit(size, 0.98)
        w_mid = _work_for_edit(size, 0.5)
        w_start = _work_for_edit(size, 0.02)
        rows.append((size, w_end, w_mid, w_start))
        last_work[size] = (w_end, w_mid, w_start)
    report_sink(
        "asymptotic_scaling",
        render_table(
            "Section 3.4 (reproduced): incremental parse work vs document "
            "size and edit position (left-recursive sequence grammar)",
            ["statements", "edit near end", "edit at middle", "edit near start"],
            rows,
        ),
    )
    end_works = [last_work[s][0] for s in SIZES]
    start_works = [last_work[s][2] for s in SIZES]
    sizes = [float(s) for s in SIZES]
    # Editing near the end of a left-recursive list is position-local:
    # sub-linear growth.  Editing near the start re-reduces the whole
    # spine: linear growth.
    k_end = fit_powerlaw(sizes, [float(w) for w in end_works])
    k_start = fit_powerlaw(sizes, [float(w) for w in start_works])
    assert k_end < 0.5, f"end-edit work should be ~flat, got x^{k_end:.2f}"
    assert k_start > 0.75, f"start-edit work should be ~linear, got x^{k_start:.2f}"

    benchmark.pedantic(
        lambda: _work_for_edit(200, 0.5), rounds=3, iterations=1
    )


def test_balanced_sequences_give_logarithmic_edits(benchmark, report_sink):
    """The paper's O(t + s·lg N) bound, with the balanced representation
    switched on: edit cost is position-independent and (at most)
    logarithmic in document size."""
    rows = []
    all_works: dict[int, list[int]] = {}
    for size in SIZES:
        works = [
            _work_for_edit(size, pos, balanced=True)
            for pos in (0.02, 0.5, 0.98)
        ]
        all_works[size] = works
        rows.append((size, *works))
    report_sink(
        "asymptotic_balanced",
        render_table(
            "Section 3.4 (reproduced): edit work with balanced sequences "
            "(O(lg N) at every position)",
            ["statements", "near start", "middle", "near end"],
            rows,
        ),
    )
    sizes = [float(s) for s in SIZES]
    for column in range(3):
        ys = [float(all_works[s][column]) for s in SIZES]
        k = fit_powerlaw(sizes, ys)
        assert k < 0.5, f"balanced edits should be ~O(lg N), got x^{k:.2f}"
    # And the absolute numbers are small: bounded by a few dozen shifts
    # plus a logarithmic number of tree parts.
    assert max(max(v) for v in all_works.values()) < 300

    benchmark.pedantic(
        lambda: _work_for_edit(400, 0.5, balanced=True), rounds=3, iterations=1
    )


def test_incremental_beats_batch_at_scale(benchmark, report_sink):
    """The headline consequence: per-edit work is far below batch work
    for large documents."""
    rows = []
    for size in SIZES:
        lang = calc_language()
        doc = Document(lang, generate_calc_program(size, seed=13))
        batch_report = doc.parse()
        batch_work = parse_work(batch_report.stats)
        sites = numeric_token_sites(doc)
        offset, length = sites[-2]
        doc.edit(offset, length, "88")
        inc_report = doc.parse()
        inc_work = parse_work(inc_report.stats)
        rows.append((size, batch_work, inc_work, f"{batch_work / inc_work:.1f}x"))
    report_sink(
        "asymptotic_batch_vs_incremental",
        render_table(
            "Batch vs incremental parse work",
            ["statements", "batch work", "incremental work", "ratio"],
            rows,
        ),
    )
    # The gap must widen with size.
    ratios = [row[1] / row[2] for row in rows]
    assert ratios[-1] > ratios[0] * 3
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

"""Cyclic-collector passes and pauses, recorded from ``gc.callbacks``.

A long-lived service allocates parse DAGs (parent-linked, so full of
reference cycles) faster than anything else it does, and a
generation-2 pass over them stops every session at once.  No span
covers that time: it lands inside whichever span happened to allocate.
:class:`CollectorPauses` counts it instead, per generation, from the
collector's own start/stop callbacks.
"""

from __future__ import annotations

import gc
import time


class CollectorPauses:
    """Per-generation collection counts and pause times.

    :meth:`install` adds the recorder to ``gc.callbacks`` and
    :meth:`remove` (idempotent) takes it out again; in between, every
    collection the interpreter runs is counted.
    """

    def __init__(self) -> None:
        self._began = 0.0
        self._generations = [
            {"collections": 0, "collected": 0, "pause_ms": 0.0,
             "max_pause_ms": 0.0}
            for _ in range(3)
        ]

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
            return
        pause_ms = (time.perf_counter() - self._began) * 1000.0
        generation = self._generations[info["generation"]]
        generation["collections"] += 1
        generation["collected"] += info["collected"]
        generation["pause_ms"] += pause_ms
        if pause_ms > generation["max_pause_ms"]:
            generation["max_pause_ms"] = pause_ms

    def install(self) -> None:
        gc.callbacks.append(self)

    def remove(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)

    def report(self) -> list[dict]:
        """One entry per generation, youngest first; pauses in ms."""
        return [
            {
                "generation": index,
                "collections": generation["collections"],
                "collected": generation["collected"],
                "pause_ms": round(generation["pause_ms"], 3),
                "max_pause_ms": round(generation["max_pause_ms"], 3),
            }
            for index, generation in enumerate(self._generations)
        ]

"""One shard of the process pool: ``python -m repro.service.worker``.

A worker is ``repro serve`` itself -- the ordinary single-process
:class:`~repro.service.server.AnalysisService` on the stdio pipes its
:class:`~repro.service.pool.ShardDispatcher` parent holds, with the
parent's limits and shared ``--state-dir`` as its flags.  Everything
the service does (validation, the degradation ladder, bounded queues,
LRU eviction, durable snapshots, lazy rehydration) therefore applies
per shard with no second code path.
"""

import sys

from ..cli import main

if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main(["serve", *sys.argv[1:]]))

"""One benchmark child: ``rmsde.cli.main`` with timestamps.

Usage (started by run.py, not by hand)::

    PERFBENCH_RECORD=rec.json python3 perfbench/child.py EXPERIMENT [cli args]

Runs exactly what ``python -m rmsde.cli EXPERIMENT [cli args]`` runs,
with ``rmsde.cli.run`` wrapped to stamp ``time.monotonic()`` when it is
entered (set-up done: interpreter, imports, argument and config
parsing) and when it returns (artifacts written).  The monotonic clock
is shared by all processes, so run.py computes set-up time from
its own stamp taken just before it started this process.  With
``PERFBENCH_TRACE=1`` the layer spans of spans.py are recorded too.
The stamps and spans are written to ``PERFBENCH_RECORD`` at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    record_path = os.environ["PERFBENCH_RECORD"]
    from rmsde import cli

    recorder = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from spans import Recorder
        recorder = Recorder()
        recorder.install()
    stamps = {}
    inner = cli.run

    def timed_run(rc):
        stamps["run_start"] = time.monotonic()
        try:
            return inner(rc)
        finally:
            stamps["run_end"] = time.monotonic()

    cli.run = timed_run
    status = cli.main(sys.argv[1:])
    record = dict(stamps)
    if recorder is not None:
        record.update(recorder.record())
    with open(record_path, "w") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())

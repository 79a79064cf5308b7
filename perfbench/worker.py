"""Benchmark worker: one fresh process per episode.

Usage: ``python3 perfbench/worker.py LIMIT_MB TRACE``.  The worker caps its
address space at LIMIT_MB, imports gridhom, prints a ready line, then answers
each request line on stdin with one JSON line on stdout.  The runner sends
the next request only after it has read the answer (a closed loop with one
client).  With TRACE=1 the layer functions run inside spans, and a
``{"op": "stats"}`` request returns the per-layer report.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    limit = int(sys.argv[1]) * 2**20
    traced = sys.argv[2] == "1"
    # a run that outgrows the limit fails its items instead of exhausting
    # the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, str(ROOT / "src"))
    import gridhom.cli  # noqa: F401  (imports every layer, as the command line does)

    import spans
    import workloads

    tracer = spans.Tracer()
    if traced:
        spans.install(tracer)
        for name in tracer.missing:
            print(f"warning: {name} not found; its metrics read 0", file=sys.stderr)
    grids = workloads.Grids()
    out = sys.stdout
    out.write('{"ready": true}\n')
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "stats":
            reply = tracer.report()
        else:
            reply = None
            try:
                reply = {"ok": True, "result": workloads.run_request(request, grids)}
            except MemoryError:
                pass  # the item's data is freed only once this handler ends
            except Exception as exc:  # one failed item must not end the episode
                traceback.print_exc()
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            if reply is None:
                reply = {"ok": False, "error": "MemoryError"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the uvinfo command line with the layer spans installed.

Usage: python3 bench/launcher.py <stats.json> <spans.jsonl.gz> <label> -- <uvinfo arguments>

Behaves like ``python3 -m uvinfo.cli <arguments>`` (same stdout, stderr
and exit code, including an uncaught traceback), and on the way out writes
the import time of ``uvinfo.cli`` and the per-layer statistics to
<stats.json> and appends the spans to <spans.jsonl.gz>.
"""

import json
import sys
import time

stats_path, spans_path, label, sep, *argv = sys.argv[1:]
start = time.perf_counter()
import uvinfo.cli  # noqa: E402
import_s = time.perf_counter() - start

import spans  # noqa: E402

tracer = spans.Tracer()
spans.install(tracer)
code = 0
try:
    uvinfo.cli.main(argv)
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
finally:
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "stats": tracer.stats}, fh)
    tracer.write_spans(spans_path, label)
sys.exit(code)

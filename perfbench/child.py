"""One `qtraj run` in a fresh interpreter, timed and optionally traced.

    python3 child.py SRC CONFIG OUT RESULT [SPANS]

Set-up is everything up to and including config parse and model build; the
parent times it from before it spawned this process to the monotonic
timestamp written here.  The run itself goes through ``qtraj.cli.main``, as a
user's ``qtraj run`` would.  With SPANS given, the layer functions are traced
and the spans written there as JSON when the run has ended.
"""

import sys
import time

src, config_path, out_dir, result_path = sys.argv[1:5]
spans_path = sys.argv[5] if len(sys.argv) > 5 else None
sys.path.insert(0, src)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import qtraj  # noqa: E402
from qtraj import cli  # noqa: E402
from qtraj.config import build_model, parse_config  # noqa: E402

if not os.path.realpath(qtraj.__file__).startswith(os.path.realpath(src) + os.sep):
    sys.exit(f"qtraj imported from {qtraj.__file__}, not from {src}")
with open(config_path, encoding="utf-8") as fh:
    build_model(parse_config(fh.read()))
setup_done = time.monotonic()

tracer = None
if spans_path:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)

start = time.perf_counter()
code = cli.main(["run", config_path, "--out", out_dir, "--threads", "1"])
wall = time.perf_counter() - start
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

if tracer is not None:
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(
        {"exit_code": code, "setup_done": setup_done, "wall_s": wall, "peak_rss_kib": peak_kib},
        fh,
    )

"""One timed CLI invocation in a fresh interpreter.

Usage: python3 perfbench/op.py SPEC.json

SPEC holds ``argv`` (the arguments for ``tefuse.cli.main``, or null to time
only the import), ``threads`` (the command's ``--threads``), ``result``
(where to write the timings) and ``trace`` (where to write spans, or null to
run untraced). The process times ``import tefuse.cli`` before anything else,
then reads the calibration kernel, runs the command and reads the kernel
again, on as many threads as the command uses. The caller puts ``src`` on PYTHONPATH.
"""

import time

_start = time.perf_counter()
import tefuse.cli  # noqa: E402  (the import itself is what is timed)

SETUP_RAW_S = time.perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calib import calibrate  # noqa: E402


def run(spec: dict) -> dict:
    setup_calib = calibrate()
    result = {"setup_raw_s": SETUP_RAW_S, "setup_calib_s": setup_calib}
    if spec["argv"] is not None:
        threads = spec["threads"]
        before = setup_calib if threads == 1 else calibrate(threads)
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result["exit"] = tefuse.cli.main(spec["argv"])
        result["command_raw_s"] = time.perf_counter() - start
        result["calib_s"] = [before, calibrate(threads)]
        if tracer is not None:
            tracer.dump(spec["trace"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    Path(spec["result"]).write_text(json.dumps(run(spec)), "utf-8")

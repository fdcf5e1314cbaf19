"""Benchmark worker: one fresh process per workload run.

It imports ``subseq.cli``, prints ``ready`` and then serves JSON requests
on stdin, one per line, answering each with one JSON line on stdout:

* ``{"op": "pass", "argvs": [...], "limit_s": L, "deadline_s": D, "trace": T,
  "spans": PATH}`` runs ``subseq.cli.main(argv)`` in-process once per argv,
  in order, and returns ``{"files", "refs", "layers", "absent"}``, where
  ``files`` holds ``[elapsed_s, status, exit_code, stdout]`` per call and
  ``refs`` the times of ``reference_s``, run before the first call and after
  each.  A call is cut off after L seconds; no call starts once D seconds
  have passed.
  With T set, the calls run under the tracer and its spans go to PATH.
* ``{"op": "stop"}`` returns ``{"maxrss_kb"}`` and exits.

Only one call runs at a time: the loop is closed, with a single client.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import signal
import sys
import time


class FileTimeout(BaseException):
    """Raised by SIGALRM when a call exceeds the per-file limit.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


def _alarm(signum, frame):
    raise FileTimeout


def run_file(cli, argv: list[str], limit_s: float) -> list:
    out = io.StringIO()
    status, rc = "ok", 0
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except FileTimeout:
        status = "timeout"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the call failed; the run goes on
        status = "raised:" + type(exc).__name__
    elapsed = time.perf_counter() - start
    return [elapsed, status, rc, out.getvalue()]


def reference_s() -> float:
    """Time of a fixed piece of pure-Python work: dict and set operations,
    like the program's own.

    Its keys are ints, which the cyclic garbage collector does not track,
    so it triggers no collection; a collection would walk the objects the
    program left alive and make the time depend on the program.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(6000):
        key = (i % 97) * 89 + i % 89
        table[key] = table.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
    return time.perf_counter() - start


def run_pass(cli, request: dict) -> dict:
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    files = []
    refs = [reference_s()]
    start = time.perf_counter()
    try:
        for index, argv in enumerate(request["argvs"]):
            if time.perf_counter() - start > request["deadline_s"]:
                break
            if tracer is not None:
                tracer.file(index)
            files.append(run_file(cli, argv, request["limit_s"]))
            refs.append(reference_s())
    finally:
        if tracer is not None:
            tracer.uninstall()
    reply = {"files": files, "refs": refs, "layers": None, "absent": []}
    if tracer is not None:
        reply["layers"] = tracer.summary()
        reply["absent"] = tracer.absent
        tracer.write_spans(request["spans"])
    return reply


def main() -> int:
    protocol = sys.stdout
    cli = importlib.import_module("subseq.cli")
    signal.signal(signal.SIGALRM, _alarm)
    protocol.write("ready\n")
    protocol.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "stop":
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        else:
            reply = run_pass(cli, request)
        protocol.write(json.dumps(reply) + "\n")
        protocol.flush()
        if request["op"] == "stop":
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())

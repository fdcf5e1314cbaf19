"""End-to-end benchmark of the ``subseq`` command line, per input file.

Run from the root of a checkout:

    python3 benchmark/run.py --workload pt-ladder --seed 1 --seconds 25 --trace 0

A run builds the package (byte-compiles ``src/``) and generates the
workload's corpus from the seed (see ``corpus.py``).  Passes over the
corpus then run, each in a fresh worker process, until ``--seconds`` have
passed.  The worker makes one ``subseq.cli.main([...])`` call per input
file, in-process; the loop is closed, with one client and no concurrency.
Every answer is checked against the known one outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs one pass untraced, traced
and untraced again, and reports the per-layer metrics of the traced pass.
The last line of standard output is one JSON object.  A wrong answer sets
``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
from worker import reference_s

HERE = Path(__file__).resolve().parent
# A call that runs longer is cut off and fails.  Every timing metric
# charges a failed call this full limit, so a fast crash cannot read as
# speed.  On a 2-vCPU x86 VM the slowest passing call of the parent commit
# takes ~0.5 s, and the 1050-letter word of ideal-decompose raises after 3
# to 6 s of minimizing; a fix that lets it pass in that time stays inside.
FILE_LIMIT_S = 10.0
SETUP_SAMPLES = 11
MEASURE_CAP_S = 120.0  # keeps a pathologically slow commit inside 180 s
# Times are scaled to the machine speed at which ``reference_s`` takes this
# long: its usual time on the 2-vCPU x86 VM the benchmark was tuned on.
# A call's scale comes from the references run between the calls around it,
# up to REF_WINDOW calls before and after.
REF_NOMINAL_S = 3.0e-3
REF_WINDOW = 4


class Worker:
    """One worker process, started fresh; see ``worker.py`` for the protocol."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        scale = REF_NOMINAL_S / statistics.median(reference_s() for _ in range(5))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self.proc.stdout.readline()
        self.setup_s = (time.perf_counter() - start) * scale
        if ready != "ready\n":
            self.close()
            raise RuntimeError("worker did not start: cannot import subseq.cli")

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def stop(self) -> dict:
        reply = self.ask({"op": "stop"})
        self.close()
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Run:
    """The corpus of one workload run and the outcome of every call."""

    def __init__(self, args, root: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.work = root / ".bench_build" / "benchmark" / f"{args.workload}-s{args.seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cases = corpus.generate(self.workload, self.seed)
        if len({case.name for case in self.cases}) != len(self.cases):
            raise RuntimeError("corpus has two files with one name")
        self.argvs = []
        for case in self.cases:
            path = self.work / f"{case.name}.dfa"
            path.write_text(case.text, encoding="utf-8")
            self.argvs.append(corpus.argv_for(self.workload, str(path)))
        self.digest = hashlib.sha256("".join(c.name + "\0" + c.text for c in self.cases).encode())
        # Per file and pass: the charged time, scaled, and the time as measured.
        self.times: list[list[float]] = [[] for _ in self.cases]
        self.unscaled: list[list[float]] = [[] for _ in self.cases]
        self.refs: list[float] = []
        self.outcomes: list[str] = []  # per call: "ok", "wrong" or "failed"
        self.dropped: set[int] = set()  # files whose call did not pass
        self.passes = 0
        self.cursor = 0  # the file a resumed pass starts from

    def run_pass(self, worker: Worker, deadline_s: float, trace: bool = False,
                 resume: bool = False) -> dict:
        """One call per file in ``worker``, in corpus order, until the
        deadline; a failed call is charged the full per-file limit.

        With ``resume``, the pass starts at the file after the last one run
        and leaves out every file whose call did not pass before: it is
        charged the limit already.  Cut-off passes then still give every
        file the same number of calls, give or take one.
        """
        n = len(self.cases)
        order = range(self.cursor, self.cursor + n) if resume else range(n)
        todo = [i % n for i in order if not (resume and i % n in self.dropped)]
        reply = worker.ask({
            "op": "pass", "argvs": [self.argvs[i] for i in todo], "limit_s": FILE_LIMIT_S,
            "deadline_s": deadline_s, "trace": trace,
            "spans": str(self.work / "spans.jsonl"),
        })
        refs = reply["refs"]  # refs[j] ran just before call j, refs[j + 1] just after
        self.refs.extend(refs)
        for j, (i, (elapsed, status, rc, stdout)) in enumerate(zip(todo, reply["files"])):
            case = self.cases[i]
            outcome = "failed"
            if status == "ok":
                outcome = corpus.check_output(self.workload, case, rc, stdout)
            scale = REF_NOMINAL_S / statistics.median(refs[max(0, j - REF_WINDOW): j + REF_WINDOW + 2])
            self.times[i].append(elapsed * scale if outcome == "ok" else FILE_LIMIT_S)
            self.unscaled[i].append(elapsed if outcome == "ok" else FILE_LIMIT_S)
            self.outcomes.append(outcome)
            if outcome != "ok":
                self.dropped.add(i)
                print(f"{outcome}: {case.name}: {status}, exit {rc}", file=sys.stderr)
        if reply["files"]:
            self.cursor = todo[len(reply["files"]) - 1] + 1
        self.passes += 1
        reply["n_files"] = len(reply["files"])
        return reply

    @property
    def correct(self) -> bool:
        return "wrong" not in self.outcomes

    @property
    def failed(self) -> int:
        """Files with a call that did not pass."""
        return len(self.dropped)


def corpus_is_deterministic(workload: str, seed: int) -> bool:
    """One seed gives byte-identical files, and another seed other files."""

    def digest(s: int) -> str:
        cases = corpus.generate(workload, s)
        return hashlib.sha256("".join(c.name + "\0" + c.text for c in cases).encode()).hexdigest()

    first = digest(seed)
    return first == digest(seed) and first != digest(seed + 1)


def per_file(run: Run, times: list[list[float]]) -> list[float]:
    """Each file's median time over the passes; a file whose call did not
    pass, or that no pass reached, is charged the limit."""
    return [
        statistics.median(t) if t and i not in run.dropped else FILE_LIMIT_S
        for i, t in enumerate(times)
    ]


def timing(times: list[float]) -> tuple[float, float, float]:
    """files_per_s, p50 and p90 in ms, from one time per file."""
    deciles = statistics.quantiles(times, n=10)
    return len(times) / sum(times), deciles[4] * 1000, deciles[8] * 1000


def measure_end_to_end(run: Run, root: Path, seconds: float) -> dict[str, float]:
    """Passes over the corpus, each in a fresh worker, until ``seconds`` have
    passed; the first pass is always whole.

    The speed of the VM the benchmark was tuned on swings by a factor of up
    to 1.7, in spells that last from seconds to minutes, so a whole run can
    fall into a slow one.  Every time is therefore scaled by the speed of a
    fixed piece of reference work, timed in the same process between the
    calls.  A file's time is then the median over the passes.  A fresh
    worker per pass keeps a result cached in one pass from serving the next.
    """
    setup, maxrss_kb = [], []
    started = time.perf_counter()
    left = MEASURE_CAP_S
    while left > 0:
        with Worker(root) as worker:
            setup.append(worker.setup_s)
            run.run_pass(worker, left, resume=True)
            maxrss_kb.append(worker.stop()["maxrss_kb"])
        left = seconds - (time.perf_counter() - started)
    while len(setup) < SETUP_SAMPLES:
        with Worker(root) as probe:
            setup.append(probe.setup_s)
            probe.stop()
    run.dropped.update(i for i, t in enumerate(run.times) if not t)
    files_per_s, p50, p90 = timing(per_file(run, run.times))
    raw = timing(per_file(run, run.unscaled))
    print(f"unscaled: files_per_s {raw[0]:.4f}, file_p50_ms {raw[1]:.4f}, "
          f"file_p90_ms {raw[2]:.4f}; reference median {statistics.median(run.refs) * 1000:.4f} ms "
          f"(scaled to {REF_NOMINAL_S * 1000} ms)")
    return {
        "files_per_s": files_per_s,
        "file_p50_ms": p50,
        "file_p90_ms": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(maxrss_kb) / 1024,
        "ok_share": 1 - run.failed / len(run.cases),
    }


def measure_layers(run: Run, root: Path) -> tuple[dict[str, float], list[str]]:
    # The first pass warms the fresh worker up; the traced pass is then
    # compared with the untraced pass that follows it.
    with Worker(root) as worker:
        started = time.perf_counter()
        walls = []
        for trace in (False, True, False):
            left = MEASURE_CAP_S - (time.perf_counter() - started)
            reply = run.run_pass(worker, left, trace)
            walls.append(sum(file[0] for file in reply["files"]))
            if trace:
                traced = reply
        worker.stop()
    layers = dict(traced["layers"])
    for layer in ("patterns.detect_p3", "patterns.find_loop_with_embedded_extension"):
        calls = layers[f"{layer}.calls"]
        layers[f"{layer}.hit_ratio"] = layers.pop(f"{layer}.hits") / calls if calls else 0.0
    layers["patterns.detect_p3.calls_per_file"] = layers["patterns.detect_p3.calls"] / traced["n_files"]
    layers["alternation.levels_built"] = layers.pop("alternation.m_plus.levels")
    layers["trace.overhead_share"] = walls[1] / walls[2] - 1
    return layers, traced["absent"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "subseq" / "cli.py").is_file():
        print("error: run from the root of a subseq checkout (src/subseq/cli.py not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    compileall.compile_dir(root / "src", quiet=1)

    run = Run(args, root)
    deterministic = corpus_is_deterministic(args.workload, args.seed)
    try:
        if args.trace:
            values, absent = measure_layers(run, root)
        else:
            values, absent = measure_end_to_end(run, root, args.seconds), []
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(run.cases)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} files, {run.passes} passes, "
          f"{len(run.outcomes)} calls, {run.failed} files failed "
          f"(failed_share {run.failed / attempted}), {run.outcomes.count('wrong')} wrong calls")
    print(f"corpus sha256 {run.digest.hexdigest()}, deterministic: {deterministic}")
    if absent:
        print("absent layers (reported as 0): " + ", ".join(absent))
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']}: {value} {metric['unit']}")
    correct = run.correct and deterministic
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

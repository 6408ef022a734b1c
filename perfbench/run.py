#!/usr/bin/env python3
"""Benchmark of the qgl2 command line, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every task is one in-process call of qgl2.cli.main(argv) with stdout and
stderr captured, issued by a single client in a closed loop (one process,
one thread, the next task only after the previous one returns).  The
workloads are described in perfbench/README.md.

With --trace 0 it reports the end-to-end metrics wall_norm_s, setup_s
and peak_rss_mb, both times scaled to a reference machine speed by
speed.py; with --trace 1 it runs the same tasks once more under the
tracer of tracer.py and reports the per-layer metrics.  Every output is
checked against oracle.py before the result line is printed.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 when every output is correct, 1 when
some task failed, 2 when the checkout holds no qgl2 source.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle     # noqa: E402
import speed      # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("catalog", "conjugated-spinors", "conjugated-quadruples")
SETUP_PROBES = 5      # fresh interpreters timed per run; setup_s is their median
MIN_ROUNDS = 3        # timed rounds per run at least, whatever --seconds says
TASK_LIMIT_S = 60.0   # a task running longer counts as failed
WORK_DIR = ".perfbench-work"

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class TaskTimeout(Exception):
    """Raised by SIGALRM inside a task that exceeds its time limit.  Not a
    ValueError/ArithmeticError/OSError, so the CLI lets it through."""


def _on_alarm(signum, frame):
    raise TaskTimeout()


def source_root() -> str:
    return os.path.join(os.getcwd(), "src")


def import_cli():
    """Import qgl2 from the checkout's src directory."""
    src = source_root()
    if src not in sys.path:
        sys.path.insert(0, src)
    from qgl2 import cli
    return cli


def setup(workload: str, seed: int, workdir: str) -> list:
    """Everything a fresh interpreter does before the first timed task:
    import qgl2, build the Clifford basis (lazy in qgl2, so every CLI
    invocation pays it) and write the seeded inputs."""
    import_cli()
    from qgl2.clifford import build_clifford
    build_clifford()
    return make_tasks(workload, seed, workdir)


def make_tasks(workload: str, seed: int, workdir: str) -> list:
    if workload == "catalog":
        return workloads.catalog_tasks()
    if workload == "conjugated-spinors":
        return workloads.spinor_tasks(workdir, seed)
    return workloads.quadruple_tasks(workdir, seed)


def round_tasks(workload: str, tasks: list, index: int) -> list:
    """Indices of the tasks of round `index`."""
    # one verify-catalog takes seconds, so a catalog round is one task and
    # the rounds alternate between the JSON and the table format
    if workload == "catalog":
        return [index % len(tasks)]
    return list(range(len(tasks)))


def run_task(cli, argv, limit: float) -> tuple:
    """(exit code, stdout, error message or None, seconds) of one call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except TaskTimeout:
        error = f"exceeded the {limit:g} s task limit"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a task that raises is a failed task
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    if error is None and code not in (0, 1):
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return code, out.getvalue(), error, elapsed


class Ledger:
    """Every attempt of a run, and the distinct outputs to be checked."""

    def __init__(self):
        self.attempts = []     # (task index, output key or None, error)
        self.outputs = {}      # task index -> {digest: (code, stdout)}
        self.slowest = 0.0

    def record(self, index: int, code, stdout: str, error, elapsed: float):
        self.slowest = max(self.slowest, elapsed)
        if error is not None:
            self.attempts.append((index, None, error))
            return
        digest = oracle.sha256(stdout)
        seen = self.outputs.setdefault(index, {})
        seen.setdefault(digest, (code, stdout))
        self.attempts.append((index, digest, None))

    def failures(self, tasks: list) -> list:
        """(attempt number, task index, problem) for every problem of
        every failed attempt."""
        problems = {}
        for index, seen in self.outputs.items():
            if len(seen) > 1:
                problems[index] = ["output differs between rounds"]
                continue
            for digest, (code, stdout) in seen.items():
                problems[index] = check_output(tasks[index], code, stdout)
        out = []
        for attempt, (index, digest, error) in enumerate(self.attempts):
            if error is not None:
                out.append((attempt, index, error))
            else:
                out += [(attempt, index, p) for p in problems[index]]
        return out


def check_output(task, code, stdout: str) -> list:
    """Problems with one task's output; empty when it is correct."""
    if task.kind == "catalog":
        return oracle.check_catalog(task.expect, code, stdout)
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    if task.kind == "dim":
        if out.get("dim") != task.expect:
            return [f"dimension {out.get('dim')}, expected {task.expect}"]
        return []
    if task.kind == "admissible":
        got = (out.get("admissible"), out.get("c_space", {}).get("dim"))
        if got != task.expect:
            return [f"admissibility {got}, expected {task.expect}"]
        return []
    if not out.get("equivalent"):
        if task.expect:
            return ["no witness found for an equivalent pair"]
        return []
    with open(task.first, encoding="utf-8") as fh:
        r1 = json.load(fh)
    with open(task.second, encoding="utf-8") as fh:
        r2 = json.load(fh)
    return oracle.check_witness(r1, r2, out)


def run_rounds(cli, workload: str, tasks: list, seconds: float,
               min_rounds: int, limit: float, ledger: Ledger,
               first_round: int = 0, sampler=None) -> tuple:
    """Closed loop over the task list.  Returns the wall time of each
    round, the sum of its task times, and with a started speed.Sampler
    the same times at the reference speed (else None).  Stops when another
    round would end after `seconds`, once at least min_rounds have run."""
    walls, norms = [], []
    start = time.perf_counter()
    index = first_round
    while True:
        wall = 0.0
        first_sample = len(sampler.samples) if sampler else 0
        for k in round_tasks(workload, tasks, index):
            spent = sampler.spent if sampler else 0.0
            code, stdout, error, elapsed = run_task(cli, tasks[k].argv, limit)
            if sampler:
                elapsed -= sampler.spent - spent
            ledger.record(k, code, stdout, error, elapsed)
            wall += elapsed
        walls.append(wall)
        if sampler:
            norms.append(wall * sampler.scale(first_sample))
        index += 1
        spent = time.perf_counter() - start
        if len(walls) >= min_rounds and \
                spent + statistics.median(walls) > seconds:
            return walls, (norms if sampler else None)


def probe_setup(workload: str, seed: int, workdir: str) -> tuple:
    """Seconds from starting a fresh interpreter until it has done
    setup() and is ready for its first task, raw and at the reference
    speed the interpreter sampled while it set up."""
    os.makedirs(workdir)
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--setup-probe", workdir],
            stdout=subprocess.PIPE, text=True)
        with proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        words = line.split()
        if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        scale, spent = float(words[1]), float(words[2])
        return ready - start, (ready - start - spent) * scale
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def environment(seed: int) -> dict:
    src = source_root()
    digest = hashlib.sha256()
    pkg = os.path.join(src, "qgl2")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(os.getcwd(), ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(args, workdir: str, ledger: Ledger) -> tuple:
    """Timed run: (tasks, end-to-end metrics, notes)."""
    probes = [probe_setup(args.workload, args.seed,
                          os.path.join(workdir, f"probe{k}"))
              for k in range(SETUP_PROBES)]
    tasks = setup(args.workload, args.seed, workdir)
    cli = import_cli()
    sampler = speed.Sampler()
    sampler.start()
    try:
        walls, norms = run_rounds(cli, args.workload, tasks, args.seconds,
                                  MIN_ROUNDS, TASK_LIMIT_S, ledger,
                                  sampler=sampler)
    finally:
        sampler.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_norm_s": statistics.median(norms),
        "setup_s": statistics.median(norm for _, norm in probes),
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = {"wall_s": statistics.median(walls), "rounds_wall_s": walls,
             "rounds_wall_norm_s": norms,
             "setup_raw_s": [raw for raw, _ in probes],
             "setup_norm_s": [norm for _, norm in probes],
             "speed_samples": len(sampler.samples)}
    return tasks, metrics, notes


def measure_traced(args, workdir: str, ledger: Ledger) -> tuple:
    """Traced run: untraced rounds for half the time, then one traced
    round; the per-layer metrics describe that round plus the forced
    build_clifford() of set-up."""
    from tracer import Tracer
    cli = import_cli()
    tracer = Tracer()
    tracer.install()
    try:
        from qgl2.clifford import build_clifford
        build_clifford()
    finally:
        tracer.uninstall()
    tasks = make_tasks(args.workload, args.seed, workdir)
    plain, _ = run_rounds(cli, args.workload, tasks, args.seconds / 2, 1,
                          TASK_LIMIT_S, ledger)
    tracer.install()
    try:
        traced, _ = run_rounds(cli, args.workload, tasks, 0, 1, TASK_LIMIT_S,
                               ledger, first_round=len(plain))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced[0] - statistics.median(plain)
    notes = {"untraced_wall_s": plain, "traced_wall_s": traced,
             "spans": len(tracer.spans)}
    return tasks, metrics, notes


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        sampler = speed.Sampler()
        sampler.start()
        try:
            setup(args.workload, args.seed, args.setup_probe)
        finally:
            sampler.stop()
        print(f"ready {sampler.scale()!r} {sampler.spent!r}", flush=True)
        return 0
    if not os.path.isfile(os.path.join(source_root(), "qgl2", "cli.py")):
        sys.stderr.write("perfbench: no qgl2 source under ./src; run from "
                         "the root of a qgl2 checkout\n")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(os.getcwd(), WORK_DIR, str(os.getpid()))
    os.makedirs(workdir)
    ledger = Ledger()
    try:
        run = measure_traced if args.trace else measure
        tasks, metrics, notes = run(args, workdir, ledger)
        failures = ledger.failures(tasks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    attempted = len(ledger.attempts)
    failed = len({attempt for attempt, _, _ in failures})
    for _, index, problem in failures:
        sys.stderr.write(f"FAIL {' '.join(tasks[index].argv)}: {problem}\n")

    info = dict(environment(args.seed), workload=args.workload,
                trace=args.trace, attempted=attempted, failed=failed,
                failed_frac=failed / attempted,
                slowest_task_s=ledger.slowest, task_limit_s=TASK_LIMIT_S,
                **notes)
    print("# " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

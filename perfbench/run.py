"""Benchmark runner for gridhom.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hat_t25 --seed 1 --seconds 20 --trace 0

Every episode starts a fresh worker process (perfbench/worker.py), waits until
gridhom is imported, then sends the workload's requests one at a time and
reads each answer before sending the next.  Answers are checked against the
oracles in perfbench/workloads.py after the worker has exited.

With ``--trace 0`` the run times a few start-only workers for set-up, then
runs as many whole episodes as fit in ``--seconds`` (at least one), and
prints the end-to-end metrics as medians over those.  With ``--trace 1`` it runs one
plain episode and two traced ones, and prints the per-layer metrics; the
per-layer counts of the two traced episodes must be equal.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and every end-to-end metric including the failed fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))  # the oracles import gridhom

import spans  # noqa: E402
import workloads  # noqa: E402

# Address-space limit of each worker: about ten times the largest peak RSS
# of any workload, and well inside an 8 GB machine.
MEMORY_LIMIT_MB = 3072
SETUP_PROBES = 10
TRACED_EPISODES = 2
# Every worker is killed once the run has lasted this long.
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class WorkerStartError(Exception):
    """The worker exited before it was ready (for example, no gridhom here)."""


@dataclass
class Episode:
    setup_s: float  # spawn until the ready line
    solve_s: float  # ready line until the last answer
    wall_s: float  # spawn until exit
    peak_rss_mb: float
    replies: list  # one per request; None where no answer came
    stats: dict | None  # the tracer report of a traced episode


def run_episode(requests: list[dict], traced: bool, deadline: float) -> Episode:
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(MEMORY_LIMIT_MB), "1" if traced else "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - t_spawn, 0.0), proc.kill)
    timer.start()
    replies: list = []
    stats = None
    try:
        ready = proc.stdout.readline()
        t_ready = t_solved = time.perf_counter()
        if ready:
            try:
                for request in requests:
                    proc.stdin.write(json.dumps(request).encode() + b"\n")
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                    if not line:
                        break
                    replies.append(json.loads(line))
                t_solved = time.perf_counter()
                if traced and len(replies) == len(requests):
                    proc.stdin.write(b'{"op": "stats"}\n')
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                    stats = json.loads(line) if line else None
            except BrokenPipeError:
                pass  # the worker died; its missing answers count as failed
    finally:
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()  # end of input: the worker exits
        _, status, usage = os.wait4(proc.pid, 0)
        t_exit = time.perf_counter()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if not ready and t_exit < deadline:
        raise WorkerStartError(f"worker exited with code {proc.returncode} before it was ready")
    replies += [None] * (len(requests) - len(replies))
    return Episode(
        t_ready - t_spawn, t_solved - t_ready, t_exit - t_spawn, usage.ru_maxrss / 1024, replies, stats
    )


def untraced_run(requests, seconds, start, deadline) -> tuple[dict, list[Episode]]:
    run_episode([], False, deadline)  # the first start in a checkout compiles bytecode
    setups = [run_episode([], False, deadline).setup_s for _ in range(SETUP_PROBES)]
    episodes = []
    while True:
        episodes.append(run_episode(requests, False, deadline))
        # start another episode only if it should end within the window
        if time.perf_counter() + episodes[-1].wall_s > min(start + seconds, deadline):
            break
    setups += [e.setup_s for e in episodes]
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("solve_s", "wall_s", "peak_rss_mb"):
        metrics[name] = statistics.median(getattr(e, name) for e in episodes)
    return metrics, episodes


def traced_run(requests, deadline) -> tuple[dict, list[Episode], list[str]]:
    base = run_episode(requests, False, deadline)
    traced = [run_episode(requests, True, deadline) for _ in range(TRACED_EPISODES)]
    problems = []
    if any(e.stats is None for e in traced):
        problems.append("a traced episode did not finish")
        values = [spans.layer_metrics({"self_s": {}, "counts": {}, "spans": 0})]
    else:
        values = [spans.layer_metrics(e.stats) for e in traced]
    metrics = {}
    for name, unit in spans.PER_LAYER:
        if name == "trace_overhead_frac":
            metrics[name] = statistics.median(e.solve_s for e in traced) / base.solve_s - 1
        elif unit == "s":
            metrics[name] = statistics.median(v[name] for v in values)
        else:
            if any(v[name] != values[0][name] for v in values):
                problems.append(f"{name} differs between traced episodes: {[v[name] for v in values]}")
            metrics[name] = values[0][name]
    return metrics, [base] + traced, problems


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "memory_limit_mb": MEMORY_LIMIT_MB,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the untraced run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gridhom" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} is not a gridhom checkout (src/gridhom and fixtures/ are needed)", file=sys.stderr)
        return 2
    requests = workloads.requests(args.workload, args.seed)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    problems: list[str] = []
    try:
        if args.trace:
            metrics, episodes, problems = traced_run(requests, deadline)
            units = dict(spans.PER_LAYER)
        else:
            metrics, episodes = untraced_run(requests, args.seconds, start, deadline)
            units = dict(END_TO_END)
    except WorkerStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    oracle = workloads.Oracle()
    attempted = failed = 0
    for episode in episodes:
        for request, reply in zip(requests, episode.replies):
            verdicts = oracle.check(request, reply)
            attempted += len(verdicts)
            failed += verdicts.count(False)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems

    summary = {"env": environment(args), "episode_solve_s": [e.solve_s for e in episodes]}
    if not args.trace:
        summary["end_to_end"] = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        summary["end_to_end"]["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    print(json.dumps(summary))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

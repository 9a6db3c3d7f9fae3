#!/usr/bin/env python3
"""fellap benchmark: closed-loop workloads, one sequential client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/``. With ``--trace 0`` the client runs whole rounds until ``--seconds``
have passed and reports the end-to-end metrics. With ``--trace 1`` it runs a
fixed number of rounds twice, untraced and then traced, and reports the
per-layer metrics and the tracing overhead. ``all`` runs every workload in
its own process and prints each metric by name and unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record with
the machine fingerprint goes to ``perfbench/results/``. The exit code is 0
only when every verdict was right.

Times are busy times at reference speed: the wall time of each timed
stretch less the time the client waited for a CPU that another process
held (``busy_clock``), divided by the machine's speed factor of that
moment (``Speed``). So a shared machine whose speed swings within seconds
gives steady figures. The wall times as measured are kept in the result
file.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("certify-sweep", "kernel-window", "envelope", "boundary-net")
# Seconds one round takes on a 2-core reference machine. A traced run
# sizes its fixed round count from these, so that its two passes together
# take about --seconds there; the count depends on --seconds only.
ROUND_S = {"certify-sweep": 4.5, "kernel-window": 2.5, "envelope": 2.9, "boundary-net": 2.0}
# Set-up is measured SETUP_REPEATS times, each in a fresh interpreter that
# imports the library and builds SETUP_ROUNDS rounds; setup_s is the median
# at reference speed.
SETUP_ROUNDS = 4
SETUP_REPEATS = 5
# peak_rss_mb is read after a fixed amount of work, so that a commit that
# fits more rounds into --seconds is not charged for the extra rounds.
RSS_ROUNDS = 4
# At least ten items beyond the 90th percentile.
MIN_ITEMS = 100


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def limit_threads() -> None:
    """One client is one thread, the BLAS pool included: on a few shared
    cores a second BLAS thread waits on the other tenants' load."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _open_schedstat():
    try:
        fd = os.open("/proc/self/schedstat", os.O_RDONLY)
        int(os.pread(fd, 128, 0).split()[1])
        return fd
    except (OSError, ValueError, IndexError):
        return None


_SCHEDSTAT = _open_schedstat()


def busy_clock() -> float:
    """Wall-clock seconds less the seconds this client has spent ready to
    run but waiting for a CPU held by another process (the run-queue wait
    the kernel reports in /proc/self/schedstat; 0 where it does not). The
    difference of two readings is the stretch's wall time without the
    other tenants' turns on the CPU; waiting on I/O, locks or sleeps
    still counts."""
    if _SCHEDSTAT is None:
        return time.perf_counter()
    waited_ns = int(os.pread(_SCHEDSTAT, 128, 0).split()[1])
    return time.perf_counter() - waited_ns * 1e-9


class Speed:
    """The machine's momentary slowness against a reference.

    A shared host can change the speed of the whole machine by half within
    seconds (CPU time tracks wall time, so the process is not waiting; it
    runs slower). ``factor()`` times a fixed probe of code that fellap
    does not contain, in four parts shaped like the library's work: an
    interpreter loop, small ``eigh`` calls, arithmetic on tiny arrays and a
    dense product. It returns the geometric mean of each part's time over
    its reference time, raised to SENSITIVITY: about 1 on the 2-core
    reference machine at its usual speed, above 1 when the machine is
    slower. A stretch of work timed between two probes is reported as its
    busy time divided by the geometric mean of their factors.
    """

    REFERENCE_S = (1.8e-3, 1.1e-3, 2.1e-3, 0.86e-3)
    # The library slows more than the probe does. Over 60 runs on the
    # reference machine, the log of a run's mean item time rose 1.12-1.24
    # times as fast as the log of its mean probe ratio, by workload
    # (correlation 0.96-1.00).
    SENSITIVITY = 1.2

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        m = rng.normal(size=(24, 24))
        self.sym = m @ m.T
        self.dense = rng.normal(size=(96, 96))

    def _loop(self):
        acc = 0
        for i in range(20_000):
            acc += i * i

    def _eigh(self):
        for _ in range(10):
            self.np.linalg.eigh(self.sym)

    def _tiny(self):
        np = self.np
        a = np.eye(3)
        for _ in range(300):
            a = np.abs(a @ a.conj().T) / 3 + np.zeros((3, 3))

    def _dense(self):
        for _ in range(20):
            self.dense @ self.dense

    def factor(self) -> float:
        logs = 0.0
        parts = (self._loop, self._eigh, self._tiny, self._dense)
        for part, ref in zip(parts, self.REFERENCE_S):
            t0 = busy_clock()
            part()
            logs += math.log((busy_clock() - t0) / ref)
        return math.exp(self.SENSITIVITY * logs / len(parts))


def calibration_ms() -> float:
    """A fixed probe (dense linear algebra plus an interpreter loop), median
    of three, to tell machine drift apart from code changes."""
    import numpy as np

    m = np.random.default_rng(0).normal(size=(96, 96))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.eigh(m @ m.T)
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_mb = None
    cpu = platform.processor()
    try:
        with open("/proc/meminfo") as fh:
            mem_mb = int(fh.readline().split()[1]) // 1024
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": nproc(),
        "mem_total_mb": mem_mb,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def setup_probe(workload: str, seed: int, workdir: str) -> None:
    """Set-up as a new user pays it: import the library, then build the
    first SETUP_ROUNDS rounds of inputs. Prints both times as JSON, with
    the speed factor right after them: the median of three probes after
    one that pays the probe's own first-call costs."""
    w0, t0 = time.perf_counter(), busy_clock()
    import workloads

    t1 = busy_clock()
    for index in range(SETUP_ROUNDS):
        workloads.build_round(workload, seed, index, workdir)
    t2, w2 = busy_clock(), time.perf_counter()
    speed = Speed()
    speed.factor()
    factor = statistics.median(speed.factor() for _ in range(3))
    print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1, "wall_s": w2 - w0, "speed": factor}))


def setup_in_fresh_process(workload: str, seed: int, workdir: str) -> dict:
    code = f"import sys; sys.path[:0] = {[SRC, HERE]!r}; import run; " \
        f"run.setup_probe({workload!r}, {seed}, {workdir!r})"
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_items(workloads, workload, seed, rounds, workdir, speed, seconds=None):
    """Run rounds in order, one item at a time, probing the machine's speed
    between items. With ``seconds`` the client stops after the first whole
    round that ends past it with at least MIN_ITEMS items done. Building a
    round is set-up and stays outside the item clocks. Returns the wall
    time and the busy time of each item, the speed factor it ran at, the
    failures, and the peak RSS after the first RSS_ROUNDS rounds (or all
    of them, if fewer)."""
    durations, busy, speeds, problems, failed = [], [], [], [], 0
    peak = None
    start = time.perf_counter()
    for count, index in enumerate(rounds, 1):
        items = workloads.build_round(workload, seed, index, workdir)
        before = speed.factor()
        for item in items:
            w0, t0 = time.perf_counter(), busy_clock()
            try:
                bad = item.run()
            except Exception as exc:  # a crash is a wrong verdict, not a stop
                bad = [f"{type(exc).__name__}: {exc}"]
            busy.append(busy_clock() - t0)
            durations.append(time.perf_counter() - w0)
            after = speed.factor()
            speeds.append(math.sqrt(before * after))
            before = after
            if bad:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"{item.label} (round {index}): {bad[0]}")
        # Collect between rounds, off the clock, so that a collection of
        # earlier rounds' garbage does not land inside some later item.
        gc.collect()
        if count == RSS_ROUNDS:
            peak = peak_rss_mb()
        if seconds is not None and time.perf_counter() - start >= seconds and len(durations) >= MIN_ITEMS:
            break
    return durations, busy, speeds, failed, problems, peak or peak_rss_mb()


def time_metrics(durations) -> dict:
    """items_per_s, item_p50_ms and item_p90_ms of item times given in
    seconds; a round has at least 15 items, a run at least MIN_ITEMS."""
    cuts = statistics.quantiles(durations, n=10)
    return {
        "items_per_s": {"value": len(durations) / sum(durations), "unit": "1/s"},
        "item_p50_ms": {"value": cuts[4] * 1e3, "unit": "ms"},
        "item_p90_ms": {"value": cuts[8] * 1e3, "unit": "ms"},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    limit_threads()
    if not os.path.isdir(os.path.join(SRC, "fellap")):
        raise SystemExit(f"no fellap sources under {SRC}; run from a source checkout")
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import workloads  # the library import is part of set-up

    import_s = time.perf_counter() - t0
    import fellap

    if not os.path.abspath(fellap.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fellap imported from {fellap.__file__}, not from {SRC}")

    speed = Speed()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit(),
        "machine": fingerprint(),
        "loadavg_start": os.getloadavg(),
        "calibration_ms_start": calibration_ms(),
    }
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        setups = [setup_in_fresh_process(workload, seed, workdir) for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median((p["import_s"] + p["generate_s"]) / p["speed"] for p in setups)

        if not trace:
            durations, busy, speeds, failed, problems, peak = run_items(
                workloads, workload, seed, itertools.count(), workdir, speed, seconds
            )
            metrics = time_metrics([b / f for b, f in zip(busy, speeds)])
            metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            record["wall_metrics"] = {
                **{k: m["value"] for k, m in time_metrics(durations).items()},
                "setup_s": statistics.median(p["wall_s"] for p in setups),
            }
            attempted = len(durations)
        else:
            import tracing

            rounds = range(max(1, round(0.45 * seconds / ROUND_S[workload])))
            durations, busy, speeds, failed_plain, problems, _ = run_items(
                workloads, workload, seed, rounds, workdir, speed
            )
            tracer = tracing.Tracer()
            with tracer.installed():
                _, traced, traced_speeds, failed, more, _ = run_items(
                    workloads, workload, seed, rounds, workdir, speed
                )
            problems += more
            failed += failed_plain
            attempted = len(durations) + len(traced)
            plain_s = sum(b / f for b, f in zip(busy, speeds))
            traced_s = sum(b / f for b, f in zip(traced, traced_speeds))
            metrics = tracer.metrics(traced_s / plain_s - 1.0)
            record["rounds"] = len(rounds)

    record.update(
        {
            "calibration_ms_end": calibration_ms(),
            "loadavg_end": os.getloadavg(),
            "import_s": import_s,
            "setups": setups,
            "items": attempted,
            "failed_frac": failed / attempted,
            "problems": problems,
            "durations_s": durations,
            "busy_s": busy,
            "speed_factors": speeds,
            "metrics": metrics,
        }
    )
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    results, worst = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            worst = max(worst, proc.returncode or 1)
            if not lines:
                continue
        res = json.loads(lines[-1])
        results[workload] = res
        print(f"{workload}: {res['attempted']} items, failed_frac {res['failed'] / res['attempted']:.4f}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    summary = {
        "correct": worst == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["correct"]:
        print(f"{args.workload}: {result['failed']} of {result['attempted']} verdicts wrong",
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

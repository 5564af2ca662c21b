"""Benchmark of the bisochan command-line interface.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why each
was chosen):

  paper-check     `bisochan paper-check`, the reference-result suite
  compare-corpus  `compare A B --order all` on seeded channel pairs
  analyze-corpus  `analyze F` on seeded single-channel files
  sweep-corpus    `sweep --quantity criterion|mi-diff|fi-bounds` on seeded files

Each op calls `bisochan.cli.main(argv)` in a worker process, one op at a
time (a closed loop with one client).  The worker is a fresh interpreter
with single-threaded BLAS; it writes its inputs under `.bench_work/` and
removes them when done.  Set-up is timed SETUP_RUNS times, each in a fresh
worker, and reported as the median.  The worker makes passes over the input
set for --seconds; each op's latency is its median over the passes (see
median_of_passes), op_p50_ms and op_p95_ms are taken over the inputs, and
wall_s is the sum over the input set.

Op latencies, and so wall_s, op_p50_ms and op_p95_ms, are scaled to a
reference host speed by a fixed probe kernel timed next to each op inside
the worker (see probe.py).  The unscaled figures are printed on a line above
the result.  Set-up is not scaled: it is mostly process start, imports and
file writes, whose speed the probe kernel does not follow.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from traced passes, and the spans of
the first traced pass are written to `.bench_out/`.  Every op's output is
checked (see gate.py); `failed` counts the ops that break a check.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from corpus import WORKLOADS
from probe import REFERENCE_S
from tracer import unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_RUNS = 7  # the measuring worker and six set-up-only workers
DEADLINE_S = 170.0  # every run ends within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, workdir, deadline, started, setup_only, spans=None):
    """Start a worker and wait for READY; returns (process, set-up seconds).

    The process is appended to `started`, so the caller can stop it.
    """
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    started.append(proc)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - t0, 1.0))
    line = proc.stdout.readline() if ready else ""  # READY, or "" when the worker exits
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    """Wait for a worker to end; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    return out


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_of_passes(latencies, ops_per_pass):
    """Each op's median latency over the passes, in milliseconds, sorted."""
    return sorted(1e3 * statistics.median(latencies[i::ops_per_pass]) for i in range(ops_per_pass))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args, workdir, started):
    deadline = time.perf_counter() + DEADLINE_S
    spans = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.npz")

    def probe_setups(count):
        for _ in range(count):
            proc, setup = start_worker(args, workdir + "-setup", deadline, started, setup_only=True)
            finish(proc, deadline)
            if proc.returncode != 0:
                raise BenchError(f"set-up worker exited with {proc.returncode}")
            setups.append(setup)

    # Set-up-only workers run both before and after the measuring one, so the
    # median samples both ends of the run rather than one slow spell.  A
    # traced run reports no set-up time and needs none.
    setups = []
    probes = 0 if args.trace else SETUP_RUNS - 1
    probe_setups(probes // 2)
    proc, setup = start_worker(args, workdir, deadline, started, setup_only=False, spans=spans)
    setups.append(setup)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    probe_setups(probes - probes // 2)

    env = {
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "load": "closed loop, 1 client, 1 worker process",
    }
    print("env: " + json.dumps(env))
    for reason in raw["failures"][:10]:
        print("FAILED " + reason)

    if args.trace:
        metrics = {k: (v, unit(k)) for k, v in raw["layers"].items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(raw["traced_walls"]) / statistics.median(raw["pass_walls"]), "ratio"
        )
        print(f"traced passes: {len(raw['traced_walls'])}, untraced passes: {len(raw['pass_walls'])}, "
              f"ops per pass: {raw['ops_per_pass']}; per-layer values are per pass")
    else:
        lat = median_of_passes(raw["latencies"], raw["ops_per_pass"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (1e-3 * sum(lat), "s"),
            "op_p50_ms": (percentile(lat, 50), "ms"),
            "op_p95_ms": (percentile(lat, 95), "ms"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
        beyond = sum(1 for x in lat if x > metrics["op_p95_ms"][0])
        raw_lat = median_of_passes(raw["raw_latencies"], raw["ops_per_pass"])
        print(f"ops: {len(lat)} inputs x {len(raw['pass_walls'])} passes, each op timed by its median pass; "
              f"{beyond} inputs beyond p95; set-up runs: {len(setups)}; "
              f"op_fail_ratio: {len(raw['failures']) / raw['attempted']}")
        print(f"unscaled: wall_s {1e-3 * sum(raw_lat):.6g}, op_p50_ms {percentile(raw_lat, 50):.6g}, "
              f"op_p95_ms {percentile(raw_lat, 95):.6g}; "
              f"probe kernel {raw['probe_median_ms']:.4g} ms median of {raw['probe_samples']} samples "
              f"(reference {1e3 * REFERENCE_S:g} ms)")
    for name, (value, u) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {u}")

    failed = len(raw["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "bisochan", "__init__.py")):
        print(f"bench: no bisochan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the finally below, which stops the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    started = []
    try:
        run(args, workdir, started)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for path in (workdir, workdir + "-setup"):
            shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:  # absent, or another run still uses it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark worker: set up, run the workload in a closed loop, report.

Started by `run.py` in a fresh interpreter.  It imports the package from the
checkout's `src/`, writes the seeded input files, runs one untimed warm-up op
(corpus workloads), prints READY, then runs passes over the input set until
the time budget is spent.  One client, one op at a time, no extra threads.
The last stdout line is a JSON object with the raw measurements.

With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones instead of latencies.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import bisochan  # noqa: E402
import bisochan.cli  # noqa: E402
from bisochan.channels import canonicalize_biso  # noqa: E402
from bisochan.checks import check_ids  # noqa: E402

import corpus  # noqa: E402
import gate  # noqa: E402
from probe import Probe  # noqa: E402
from tracer import TOUCHING_ETA_TOL, Tracer  # noqa: E402

MIN_PASSES = 2
REFERENCE_SEED = 0  # stdout digests in stdout_digests.json come from this seed
DIGESTS = os.path.join(HERE, "stdout_digests.json")


def run_op(op, workdir, main, probe=None):
    """Run one op in-process; returns (seconds, exit code or exception, stdout).

    With a probe, the time its handler took during the op is not counted,
    and the op's interval is recorded so the probe can scale it.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = op.bound_argv(workdir)
    stolen = probe.stolen if probe else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        rc = exc
    t1 = time.perf_counter()
    seconds = t1 - t0
    if probe:
        seconds -= probe.stolen - stolen
        probe.ops.append((t0, t1, seconds))
    return seconds, rc, out.getvalue()


def run_pass(ops, workdir, main=None, probe=None):
    """Run every op once, gating each output as soon as the op returns.

    Returns (per-op seconds, failure reasons, {op key: stdout digest}).
    """
    main = main or bisochan.cli.main
    latencies, failures, digests = [], [], {}
    for op in ops:
        seconds, rc, out = run_op(op, workdir, main, probe)
        latencies.append(seconds)
        reason = f"raised {rc!r}" if isinstance(rc, BaseException) else gate.check(op, rc, out)
        if reason:
            failures.append(f"{op.label} ({' '.join(op.argv)}): {reason}")
        digests[op_key(op)] = stdout_digest(out, workdir)
    return latencies, failures, digests


def op_key(op):
    """Digest of an op's argv and input files, independent of the work directory."""
    blob = json.dumps([op.argv, sorted(op.files.items())])
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def stdout_digest(out, workdir):
    return hashlib.sha256(out.replace(workdir, "<work>").encode()).hexdigest()[:20]


def _eta(ch):
    pairs = getattr(ch, "pairs", None)
    return corpus.eta_kl_pairs(pairs if pairs is not None else canonicalize_biso(ch).pairs)


def touching(w, v):
    return abs(_eta(w) - _eta(v)) <= TOUCHING_ETA_TOL


def changed_stdout_ops(workload, seed, digests, workdir):
    """Ops of the reference input set whose stdout differs from the recorded digest."""
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)[workload]
    if seed != REFERENCE_SEED and workload != "paper-check":
        ops = corpus.make_ops(workload, REFERENCE_SEED)
        corpus.write_files(ops, workdir)
        digests = run_pass(ops, workdir)[2]
    return sum(1 for key, digest in digests.items() if recorded.get(key) != digest)


def measure(ops, workdir, seconds, trace):
    """Closed-loop passes until the budget is spent; raw results as a dict.

    A pass's wall time is the sum of its op latencies, so the gate's own
    work between ops is not counted.  Untraced runs sample the host speed
    with a Probe and report each op scaled to the reference speed; traced
    runs report raw times, so that no probe sample lands in a span.
    """
    untraced, traced, latencies, failures, layer_runs = [], [], [], [], []
    attempted = 0
    speed = None if trace else Probe()
    if speed:
        speed.start()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        lat, fails, digests = run_pass(ops, workdir, probe=speed)
        untraced.append(sum(lat))
        latencies.extend(lat)
        failures.extend(fails)
        attempted += len(ops)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                lat, fails, _ = run_pass(ops, workdir)
            finally:
                tracer.uninstall()
            traced.append(sum(lat))
            failures.extend(fails)
            attempted += len(ops)
            layer_runs.append(tracer.metrics(len(ops), [cid for cid, _ in check_ids()], touching))
            if len(traced) == 1:
                first_tracer = tracer
        now = time.perf_counter()
        if now - start + (now - began) > seconds and (trace or len(untraced) >= MIN_PASSES):
            break
    if speed:
        speed.stop()
    result = {"attempted": attempted, "failures": failures, "pass_walls": untraced}
    if trace:
        result["traced_walls"] = traced
        result["layers"] = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        result["tracer"] = first_tracer
        result["digests"] = digests
    else:
        result["raw_latencies"] = latencies
        result["latencies"] = speed.scaled_ops()
        result["probe_samples"] = len(speed.samples)
        result["probe_median_ms"] = 1e3 * statistics.median(speed.samples)
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="file for the spans of the first traced pass")
    args = parser.parse_args()

    if not os.path.abspath(bisochan.__file__).startswith(SRC + os.sep):
        sys.exit(f"bisochan imported from {bisochan.__file__}, not from {SRC}")

    ops = corpus.make_ops(args.workload, args.seed)
    try:
        corpus.write_files(ops, args.workdir)
        if args.workload != "paper-check":
            run_op(ops[0], args.workdir, bisochan.cli.main)  # warm-up, untimed
        print("READY", flush=True)
        if args.setup_only:
            return
        result = measure(ops, args.workdir, args.seconds, bool(args.trace))
        if args.trace:
            tracer = result.pop("tracer")
            result["layers"]["cli.stdout_changed_ops"] = changed_stdout_ops(
                args.workload, args.seed, result.pop("digests"), args.workdir
            )
            if args.spans:
                tracer.write(args.spans)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["numpy"] = np.__version__
        result["ops_per_pass"] = len(ops)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    main()

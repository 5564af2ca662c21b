"""Self-test of the benchmark.

    python3 bench/selftest.py

1. A tiny run of every workload passes its gate and prints exactly the
   end-to-end metrics of BENCHMARK.json; a tiny traced run prints exactly
   the per-layer metrics.
2. One corrupted verdict makes the op fail, so op_fail_ratio > 0.
3. Without the package sources the benchmark exits non-zero and prints no
   result.
Exits 0 when every part holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")


def bench(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_tiny_runs(spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    runs = [(w["name"], 0, end_to_end) for w in spec["workloads"]]
    runs.append(("sweep-corpus", 1, per_layer))
    for workload, trace, names in runs:
        proc = bench(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
        result = result_of(proc)
        assert proc.returncode == 0 and result, f"{workload} trace={trace}: {proc.stderr[-400:]}"
        assert result["correct"] and result["failed"] == 0, f"{workload}: {proc.stdout[-800:]}"
        assert set(result["metrics"]) == names, f"{workload}: {set(result['metrics']) ^ names}"
        print(f"ok  tiny run {workload} --trace {trace}: {result['attempted']} ops")


def check_corrupted_verdict():
    sys.path.insert(0, HERE)
    import corpus
    import worker

    ops = corpus.make_ops("compare-corpus", 7)[:10]
    corpus.write_files(ops, WORK)

    def corrupting_main(argv):
        rc = worker.bisochan.cli.main(argv)
        if argv[1].endswith(ops[0].argv[1]):
            text = sys.stdout.getvalue()
            name = ops[0].expect["holds"][0]
            sys.stdout.seek(0)
            sys.stdout.truncate()
            sys.stdout.write(text.replace(f"{name}: holds", f"{name}: fails"))
        return rc

    clean = worker.run_pass(ops, WORK)[1]
    failures = worker.run_pass(ops, WORK, main=corrupting_main)[1]
    assert not clean, clean
    assert len(failures) == 1 and "expected holds" in failures[0], failures
    print(f"ok  one corrupted verdict: op_fail_ratio {len(failures) / len(ops)} > 0 ({failures[0]})")


def check_without_sources():
    bare = os.path.join(WORK, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "compare-corpus", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert proc.returncode != 0 and result_of(proc) is None, proc.stdout
    print(f"ok  without sources: exit code {proc.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        check_corrupted_verdict()
        check_without_sources()
        check_tiny_runs(spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()

"""Record the stdout digest of every reference op into stdout_digests.json.

    python3 bench/record_digests.py

Run once, at the commit whose CLI output later commits must reproduce; the
traced benchmark run reports how many reference ops print something else
(`cli.stdout_changed_ops`).
"""

import json
import os
import shutil

import corpus
import worker


def main():
    digests = {}
    for workload in corpus.WORKLOADS:
        workdir = os.path.join(worker.ROOT, ".bench_work", f"record-{workload}-{os.getpid()}")
        ops = corpus.make_ops(workload, worker.REFERENCE_SEED)
        try:
            corpus.write_files(ops, workdir)
            _, failures, digests[workload] = worker.run_pass(ops, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failures:
            raise SystemExit(f"{workload}: {len(failures)} ops fail the gate, first: {failures[0]}")
    with open(worker.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

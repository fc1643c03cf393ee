"""Record the golden output digests the benchmark checks against.

    python3 perfbench/record_golden.py

Runs every workload's job list once for each program seed (verify once, as
its seeds are fixed) and writes the digest of every job's output: the exit
status followed by the stdout text and the bytes of the `--out` file.  It
refuses to overwrite an existing file: the digests describe the commit they
were recorded at and are not rewritten to make a run pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
import workloads


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    out = os.path.join(run.HERE, "golden.json")
    if os.path.exists(out):
        print(f"record_golden: {out} exists; not overwriting", file=sys.stderr)
        return 1
    doc = {"program_seeds": workloads.PROGRAM_SEEDS}
    for w in workloads.WORKLOADS:
        seeds = [0] if w == "verify" else range(workloads.PROGRAM_SEEDS)
        table = {}
        for seed in seeds:
            deadline = time.perf_counter() + run.DEADLINE_S
            child = run.run_child(w, seed, "golden", deadline)
            jobs = child["passes"][0]["jobs"]
            errors = [f"{j['id']}: {j['error']}" for j in jobs if j["error"]]
            if errors:
                print("record_golden: " + "; ".join(errors), file=sys.stderr)
                return 1
            table[workloads.golden_key(w, seed)] = {j["id"]: j["digest"] for j in jobs}
            print(f"recorded {w} seed {seed}", file=sys.stderr)
        doc[w] = table
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark child process: runs a workload's job list and reports.

    python3 -E -s perfbench/child.py --root DIR --workload W --seed N \
        --result FILE [--seconds T] [--min-passes K] [--cpu C] [--trace | --pace]

Imports chaosctl from DIR/src, runs passes over the job list (until T
seconds have gone and at least K passes are done) through
`chaosctl.cli.run_command` with stdout captured, and writes a JSON result:
per-job time, CPU time, exit status and output digest, the process's peak
RSS and, with --trace, the spans and the layer probes.  With --pace (which
needs --cpu) the host-speed reference of pace.py runs alongside, and each
job and pass also gets its time in reference seconds, less the pass's
share of hypervisor steal on its CPU (`work_s`), and the pass its CPU time
in reference seconds (`cpu_work_s`); `seconds`, `wall_s` and `cpu_s` then
leave the reference kernel's time out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_chaosctl(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import chaosctl.cli

    if not os.path.abspath(chaosctl.cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"perfbench: imported chaosctl from {chaosctl.cli.__file__}, not {src}")
    return chaosctl.cli


def _peak_rss_kb() -> int:
    """This process's peak RSS since exec.  getrusage's ru_maxrss is not
    used: it keeps the parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _data_rows(lines: int, head: bytes) -> int:
    """Data rows of a CSV: lines after the leading `#` comments and the header."""
    comments = 0
    for line in head.split(b"\n"):
        if not line.startswith(b"#"):
            break
        comments += 1
    return max(0, lines - comments - 1)


def _check_output(status: int, stdout: str, path) -> dict:
    """Digest, byte count and data-row count of one job's output."""
    h = hashlib.sha256(f"{status}\n".encode())
    data = stdout.encode()
    h.update(data)
    n_bytes, lines, head = len(data), data.count(b"\n"), data[:4096]
    if path is not None:
        with open(path, "rb") as fh:
            first = True
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                n_bytes += len(chunk)
                lines += chunk.count(b"\n")
                if first:
                    head, first = chunk[:4096], False
        os.unlink(path)
    return {"digest": h.hexdigest(), "bytes": n_bytes, "rows": _data_rows(lines, head)}


def _run_job(cli, job, recorder) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    if recorder is not None:
        recorder.job = job.id
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            status = cli.run_command(job.argv)
        except Exception as e:  # a failed job is counted, the run goes on
            status, error = None, f"{type(e).__name__}: {e}"
        c1 = time.process_time()
        t1 = time.perf_counter()
    rec = {"id": job.id, "seconds": t1 - t0, "cpu_s": c1 - c0, "status": status, "error": error,
           "span": (t0, t1)}
    if error is None:
        try:
            rec.update(_check_output(status, out.getvalue(), job.out))
        except OSError as e:
            rec["error"] = f"{type(e).__name__}: {e}"
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--pace", action="store_true", help="run the host-speed reference")
    ap.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    args = ap.parse_args(argv)
    if args.pace and (args.trace or args.cpu is None):
        ap.error("--pace needs --cpu and excludes --trace")
    cpus = os.sched_getaffinity(0)  # the thread-scaling probe runs on these
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})  # before the pool's threads exist

    cli = _import_chaosctl(args.root)
    sys.path.insert(0, HERE)
    import pace
    import workloads

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    tmp_root = os.path.join(args.root, ".perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    outdir = tempfile.mkdtemp(dir=tmp_root)
    passes = []
    pacer = pace.Pacer() if args.pace else None
    try:
        job_list = workloads.jobs(args.workload, args.seed, outdir)
        if pacer is not None:
            pacer.start()
        start = time.perf_counter()
        while True:
            if pacer is not None:
                steal0, t0 = pace.steal_s(args.cpu), time.perf_counter()
            recs = [_run_job(cli, job, recorder) for job in job_list]
            passes.append({"jobs": recs})
            if pacer is not None:
                elapsed = time.perf_counter() - t0
                passes[-1]["steal_s"] = pace.steal_s(args.cpu) - steal0
                passes[-1]["running"] = max(0.0, 1.0 - passes[-1]["steal_s"] / elapsed)
            if len(passes) >= args.min_passes and time.perf_counter() - start >= args.seconds:
                break
    finally:
        if pacer is not None:
            pacer.stop()
        shutil.rmtree(outdir, ignore_errors=True)

    for p in passes:
        ref = 0.0
        for r in p["jobs"]:
            if pacer is not None:
                job_ref, kernel_s = pacer.convert(*r["span"])
                ref += job_ref
                r["work_s"] = job_ref * p["running"]
                r["seconds"] -= kernel_s
                r["cpu_s"] = max(0.0, r["cpu_s"] - kernel_s)
            del r["span"]
        p["wall_s"] = sum(r["seconds"] for r in p["jobs"])
        p["cpu_s"] = sum(r["cpu_s"] for r in p["jobs"])
        if pacer is not None:
            p["work_s"] = sum(r["work_s"] for r in p["jobs"])
            p["cpu_work_s"] = p["cpu_s"] * ref / p["wall_s"]

    result = {"passes": passes}
    if pacer is not None:
        result["kernel_median_s"] = pacer.median_kernel_s()
    if recorder is not None:
        recorder.uninstall()
        import probes

        result["spans"] = recorder.spans
        result["marks"] = recorder.marks
        result["probes"] = probes.run_probes(cpus)
        result["probe_reps"] = probes.REPS
    result["peak_rss_mb"] = _peak_rss_kb() / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

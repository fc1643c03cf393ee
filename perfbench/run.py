"""chaosctl benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --spec

Run from the root of a chaosctl checkout; chaosctl is imported from its
`src/`.  With --trace 0 the run measures setup time in fresh interpreters,
then runs the workload's job list in fresh child processes with tracing
off, and reports the end-to-end metrics, in reference seconds: host
seconds scaled by the host's speed at the time (pace.py).  With --trace 1 it runs the job
list once untraced and once traced (spans around chaosctl's public
functions), then the layer probes, then once untraced on every CPU, and
reports the per-layer metrics.
Every job's output is checked against the digests in golden.json.  The
last stdout line is the JSON result; the lines before it list every metric
with its unit and sample count.  --report runs every workload both ways;
--spec prints BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed per run for setup_s.
SETUP_SAMPLES = 21
#: Reference-kernel runs timed before each of them, and after the last.
SETUP_KERNEL_RUNS = 8
#: A run ends within this many seconds of its start.
DEADLINE_S = 170.0
#: Each child runs passes for at least this long, and interactive children
#: at least 4 passes (116 commands), so that p90 has 10 samples beyond it.
CHILD_SECONDS = 5.0
MIN_INTERACTIVE_PASSES = 4

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import chaosctl.cli; "
    "chaosctl.cli.build_parser(); sys.stdout.write('ok'); sys.stdout.flush()"
)


class BenchError(Exception):
    """The benchmark could not run (not a failed job)."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Facts about the machine, gathered by reading only."""
    import importlib.util

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cpu_max = _read("/sys/fs/cgroup/cpu.max")
    if not cpu_max:  # cgroup v1
        quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        cpu_max = f"{quota} {period}" if quota else "unknown"
    return {
        "cpu_model": cpu or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "cgroup_cpu_max": cpu_max,
        "nproc": len(os.sched_getaffinity(0)),
    }


def bench_cpu() -> int:
    """The CPU every timed or traced child is pinned to: the last one given.

    chaosctl's default thread pool contends for the GIL; on a 2-vCPU
    virtual machine each hand-off to a thread on the other CPU waits for
    that CPU to wake.  Unpinned, verify's wall time ran about 9% over its
    CPU time and spread twice as much from run to run (IQR/median 0.15
    against 0.07 over five runs); pinned to one CPU, the same pool with the
    same thread count runs with wall time close to CPU time.  What users
    see on every CPU is reported by the traced run as `unpinned_wall_s`.
    CPU 0 is avoided because it serves more of the system's own work.
    """
    return sorted(os.sched_getaffinity(0))[-1]


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "chaosctl", "cli.py")):
        raise BenchError(f"no chaosctl sources under {os.path.join(ROOT, 'src')}")


def measure_setup(n: int, deadline: float, cpu: int) -> list:
    """Reference seconds from spawning an interpreter to build_parser()
    done, n times.  This process and the interpreters run on `cpu`; each
    spawn's host seconds are scaled by the median reference-kernel time of
    the kernel runs just before and just after it."""
    given = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        pace.kernel_seconds(SETUP_KERNEL_RUNS)  # warm-up
        raw, kernel = [], [pace.kernel_seconds(SETUP_KERNEL_RUNS)]
        for _ in range(n):
            raw.append(_spawn_setup(deadline))
            kernel.append(pace.kernel_seconds(SETUP_KERNEL_RUNS))
    finally:
        os.sched_setaffinity(0, given)
    return [r * pace.REF_S / statistics.median(k0 + k1)
            for r, k0, k1 in zip(raw, kernel, kernel[1:])]


def _spawn_setup(deadline: float) -> float:
    """Host seconds from spawning an interpreter to build_parser() done."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-E", "-s", "-c", SETUP_CODE, os.path.join(ROOT, "src")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    ) as proc:
        ok = proc.stdout.read(2)
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    if ok != b"ok" or proc.returncode != 0:
        raise BenchError("setup probe failed: " + err.decode(errors="replace")[-2000:])
    return t1 - t0


def run_child(workload: str, seed: int, tag: str, deadline: float, *, cpu=None,
              trace=False, pace=False, seconds=0.0, min_passes=1) -> dict:
    """One child process, pinned to `cpu` unless it is None: passes over the
    job list until `seconds` have gone and at least `min_passes` are done,
    traced or with the host-speed reference if asked; returns its result."""
    rundir = os.path.join(ROOT, ".perfbench", "runs")
    os.makedirs(rundir, exist_ok=True)
    result = os.path.join(rundir, f"{workload}-seed{seed}-{tag}.json")
    if os.path.exists(result):
        os.unlink(result)
    cmd = [sys.executable, "-E", "-s", os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--result", result,
           "--seconds", str(seconds), "--min-passes", str(min_passes)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if trace:
        cmd.append("--trace")
    if pace:
        cmd.append("--pace")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the next child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child did not finish in time") from None
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(
            f"{workload} child exited {proc.returncode}: "
            + proc.stderr.decode(errors="replace")[-2000:]
        )
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def timed_children(workload: str, seed: int, seconds: float, deadline: float,
                   cpu: int) -> list:
    """Untraced children filling about `seconds`."""
    t0 = time.perf_counter()
    children = []
    while True:
        children.append(run_child(workload, seed, f"timed{len(children)}", deadline,
                                  cpu=cpu, pace=True, **child_passes(workload)))
        spent = time.perf_counter() - t0
        each = spent / len(children)
        if spent + each / 2 > seconds or deadline - time.perf_counter() < 1.5 * each:
            return children


def child_passes(workload: str) -> dict:
    """run_child's seconds and min_passes for one child of `workload`."""
    return {
        "seconds": CHILD_SECONDS,
        "min_passes": MIN_INTERACTIVE_PASSES if workload == "interactive" else 1,
    }


def _jobs(children: list) -> list:
    return [j for c in children for p in c["passes"] for j in p["jobs"]]


def check_jobs(workload: str, seed: int, children: list, golden: dict) -> tuple:
    """(attempted, failed, messages) against the recorded digests."""
    expected = golden.get(workload, {}).get(workloads.golden_key(workload, seed), {})
    jobs = _jobs(children)
    messages = []
    for j in jobs:
        if j["error"] is not None:
            messages.append(f"{j['id']}: {j['error']}")
        elif expected.get(j["id"]) != j["digest"]:
            messages.append(f"{j['id']}: output differs from the recorded digest")
    return len(jobs), len(messages), messages


def _percentile(vals: list, q: int) -> float:
    """q-th percentile, interpolated between the closest samples."""
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[q - 1]


def end_to_end(children: list, setup: list) -> dict:
    """name -> (value, samples); times in reference seconds (pace.py)."""
    passes = [p for c in children for p in c["passes"]]
    calls = [j["work_s"] for j in _jobs(children)]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(p["work_s"] for p in passes), len(passes)),
        "cpu_s": (statistics.median(p["cpu_work_s"] for p in passes), len(passes)),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), len(children)),
        "call_p50_ms": (1e3 * _percentile(calls, 50), len(calls)),
        "call_p90_ms": (1e3 * _percentile(calls, 90), len(calls)),
    }


#: Inclusive span time reported per pass, by metric name.
SPAN_TOTALS = {
    "sim.bifurcation_sweep_s": "sim.bifurcation_sweep",
    "sim.mc_convergence_s": "sim.mc_convergence",
    "sim.run_trajectory_s": "sim.run_trajectory",
    "sim.limit_set_s": "sim.limit_set",
    "sim.lln_average_s": "sim.lln_average",
    "stability.mc_log_nu_s": "stability.mc_log_nu",
    "stability.expected_log_nu_s": "stability.expected_log_nu",
    "stability.min_noise_s": "stability.min_noise_for_stability",
}
#: Rates: metric -> (count key, span name).
SPAN_RATES = {
    "sim.cells_per_s": ("cells", "sim.bifurcation_sweep"),
    "sim.trials_per_s": ("trials", "sim.mc_convergence"),
}


def per_layer(untraced: dict, traced: dict, unpinned: dict, attempted: int,
              failed: int) -> dict:
    """name -> (value, samples) from an untraced, a traced and an unpinned child."""
    sp = traced["spans"]
    n_pass = len(traced["passes"])
    selfs = spans.self_times(sp)
    layer_self = defaultdict(int)
    total = defaultdict(int)
    n_spans = defaultdict(int)
    counts = defaultdict(int)
    for s in sp:
        layer_self[s[1].split(".")[0]] += selfs[s[0]]
        total[s[1]] += s[3] - s[2]
        n_spans[s[1]] += 1
        for k, v in (s[6] or {}).items():
            counts[k] += v
    jobs = _jobs([traced])
    rows = sum(j.get("rows", 0) for j in jobs)
    out_bytes = sum(j.get("bytes", 0) for j in jobs)
    cli_s = layer_self["cli"] / 1e9
    n_cli = sum(v for k, v in n_spans.items() if k.startswith("cli."))

    out = {
        "cli.self_s": (cli_s / n_pass, n_cli),
        "cli.rows_per_s": (rows / cli_s if cli_s else 0.0, n_cli),
        "cli.out_bytes": (out_bytes / n_pass, len(jobs)),
    }
    for layer in ("sim", "stability", "verify"):
        n = sum(v for k, v in n_spans.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (layer_self[layer] / 1e9 / n_pass, n)
    for metric, name in SPAN_TOTALS.items():
        out[metric] = (total[name] / 1e9 / n_pass, n_spans[name])
    for metric, (key, name) in SPAN_RATES.items():
        out[metric] = (counts[key] / (total[name] / 1e9) if total[name] else 0.0, n_spans[name])
    rows_s = spans.row_times(sp, traced["marks"])
    for row in metrics.VERIFY_ROWS:
        out[f"verify.row_s.{row}"] = (rows_s.get(row, 0.0) / n_pass, n_spans["verify.run_all"])

    traced_walls = [p["wall_s"] for p in traced["passes"]]
    untraced_walls = [p["wall_s"] for p in untraced["passes"]]
    out["trace_overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        len(traced_walls) + len(untraced_walls),
    )
    out["host_wall_s"] = (statistics.median(untraced_walls), len(untraced_walls))
    out["host_speed"] = (pace.REF_S / untraced["kernel_median_s"], len(untraced_walls))
    unpinned_walls = [p["wall_s"] for p in unpinned["passes"]]
    out["unpinned_wall_s"] = (statistics.median(unpinned_walls), len(unpinned_walls))
    out["trace_self_coverage"] = (sum(selfs.values()) / 1e9 / sum(traced_walls), len(sp))
    for name, value in traced["probes"].items():
        out[name] = (value, traced["probe_reps"])
    out["error_rate"] = (failed / attempted, attempted)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(result line, record) for one run."""
    deadline = time.perf_counter() + DEADLINE_S
    _check_checkout()
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    env = environment()
    env["pinned_cpu"] = cpu = bench_cpu()
    if trace:
        each = child_passes(workload)
        if workload == "interactive":
            each["seconds"] = seconds / 3
        children = [
            run_child(workload, seed, "untraced", deadline, cpu=cpu, pace=True, **each),
            run_child(workload, seed, "traced", deadline, cpu=cpu, trace=True, **each),
            run_child(workload, seed, "unpinned", deadline, **each),
        ]
        attempted, failed, messages = check_jobs(workload, seed, children, golden)
        values = per_layer(*children, attempted, failed)
        defs = metrics.PER_LAYER
    else:
        setup = measure_setup(SETUP_SAMPLES, deadline, cpu)
        children = timed_children(workload, seed, seconds, deadline, cpu)
        attempted, failed, messages = check_jobs(workload, seed, children, golden)
        values = end_to_end(children, setup)
        defs = metrics.END_TO_END
    units = {d[0]: d[1] for d in defs}
    table = {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in values.items()}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in table.items()},
    }
    record = {
        "workload": workload, "seed": seed,
        "program_seed": None if workload == "verify" else workloads.program_seed(seed),
        "trace": int(trace), "environment": env, "errors": messages, **line, "table": table,
    }
    resdir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(resdir, exist_ok=True)
    with open(os.path.join(resdir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def print_table(record: dict) -> None:
    env = record["environment"]
    print(f"# workload={record['workload']} seed={record['seed']} "
          f"program_seed={record['program_seed']} trace={record['trace']}")
    print("# environment: " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"# jobs: attempted={record['attempted']} failed={record['failed']}")
    for msg in record["errors"][:20]:
        print(f"# error: {msg}")
    for name, m in record["table"].items():
        print(f"# {name:40s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    if record["trace"] and "sim.thread_speedup" not in record["table"]:
        print("# sim.thread_speedup: absent (mc_convergence takes no threads)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true", help="every workload, traced and not")
    ap.add_argument("--spec", action="store_true", help="print BENCHMARK.json")
    args = ap.parse_args(argv)
    if args.spec:
        print(json.dumps(metrics.spec(), indent=2))
        return 0
    if not args.report and args.workload is None:
        ap.error("--workload is required unless --report or --spec is given")
    try:
        if args.report:
            ok = True
            for w in workloads.WORKLOADS:
                for t in (False, True):
                    line, record = run(w, args.seed, args.seconds, t)
                    print_table(record)
                    ok = ok and line["correct"]
            return 0 if ok else 1
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print_table(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Job lists of the three benchmark workloads.

A job is one `chaosctl.cli.run_command` call: an id, the argv, and the file
the job writes with `--out` (None when its output is stdout).  The workload
seed is reduced modulo PROGRAM_SEEDS and passed as `--seed` to the figures
and interactive jobs; `verify` keeps its fixed internal seeds.  Outputs are
checked against digests recorded for every program seed in golden.json.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

WORKLOADS = ("figures", "verify", "interactive")

#: Number of distinct program seeds the golden digests cover.
PROGRAM_SEEDS = 16

FIGURE_PRESETS = ("fig1a", "fig8b")

#: The 24 single-trajectory presets (simulate and limitset).  The data rows
#: of fig3a and fig5a (ell = 0) do not depend on the seed, nor do those of
#: fig1a (constant schedule) or the README one-liners (closed forms,
#: quadrature, thresholds); their `# args:` line still names the seed, so
#: their digests do.  verify takes no seed.
TRAJECTORY_PRESETS = tuple(
    f"fig{n}{c}" for n in (3, 4, 5, 6, 7, 10) for c in "abcd"
)

#: The one-line commands of the README.
README_COMMANDS = {
    "threshold-henon-local": [
        "threshold", "--map", "henon", "--a", "1.4", "--b", "0.3",
        "--branch", "plus", "--beta", "0",
    ],
    "threshold-lozi-spectral": [
        "threshold", "--map", "lozi", "--beta", "0.9", "--norm", "spectral",
        "--radius", "0.01",
    ],
    "explog-closed-form": [
        "explog", "--map", "lozi", "--norm", "l1", "--alpha1", "0.27",
        "--alpha2", "0.9", "--ell1", "0.2", "--ell2", "0.55",
        "--dist1", "bernoulli", "--dist2", "bernoulli",
    ],
    "explog-quadrature": [
        "explog", "--map", "lozi", "--norm", "l1", "--alpha1", "0.27",
        "--alpha2", "0.9", "--ell1", "0.2", "--ell2", "0.55",
        "--dist1", "bernoulli", "--dist2", "bernoulli", "--method", "quadrature",
    ],
    "minnoise-henon-linf": [
        "minnoise", "--map", "henon", "--norm", "linf", "--alpha1", "0.44",
    ],
}


class Job(NamedTuple):
    id: str
    argv: list
    out: Optional[str]


def program_seed(seed: int) -> int:
    """The chaosctl seed a workload seed maps to."""
    return seed % PROGRAM_SEEDS


def golden_key(workload: str, seed: int) -> str:
    """Key of the digest table that applies to this workload and seed."""
    return "fixed" if workload == "verify" else str(program_seed(seed))


def jobs(workload: str, seed: int, outdir: str) -> list:
    """One pass of the workload's job list."""
    s = str(program_seed(seed))
    if workload == "figures":
        return [
            Job(f"repro-{p}", ["repro", p, "--seed", s, "--out", path], path)
            for p in FIGURE_PRESETS
            for path in [os.path.join(outdir, f"{p}.csv")]
        ]
    if workload == "verify":
        return [Job("verify", ["verify"], None)]
    if workload == "interactive":
        out = [Job(f"repro-{p}", ["repro", p, "--seed", s], None) for p in TRAJECTORY_PRESETS]
        out += [Job(k, argv + ["--seed", s], None) for k, argv in README_COMMANDS.items()]
        return out
    raise ValueError(f"unknown workload {workload!r}")

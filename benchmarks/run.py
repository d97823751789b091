"""Benchmark of the halfplanepot command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload verify_theorem2 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

One process drives `halfplanepot.cli.main` in a closed loop with one
client: each command starts after the previous one returns, and commands
repeat until `--seconds` of command time is spent (at least three).  The
package is imported from `src/` of the checkout this file sits in; inputs
are generated from `--seed` into a scratch directory under the checkout,
which is removed afterwards.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced commands (see tracing.py) and reports the per-layer
metrics, including the tracing overhead.  Outputs are checked after the
timed loop (see checks.py); a command whose output fails a check counts all
its operations as failed.  The last line of stdout is a JSON object with
keys correct, attempted, failed and metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_theorem2", "solve_grid", "bounds_sweep")
MIN_REPS = 3

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
LAYER_UNITS = {
    "kernels.pm_calls": "count",
    "kernels.pm_us": "us",
    "kernels.pm_tail_frac": "frac",
    "kernels.gm_calls": "count",
    "kernels.gm_us": "us",
    "kernels.gm_tail_frac": "frac",
    "kernels.lemma2_calls": "count",
    "kernels.lemma2_us": "us",
    "quadrature.integrate_s": "s",
    "quadrature.one_shot_s": "s",
    "quadrature.self_s": "s",
    "quadrature.evals_per_point": "count",
    "potentials.poisson_integral_ms_p50": "ms",
    "potentials.poisson_integral_ms_p90": "ms",
    **{f"potentials.poisson_integral_ms.z1e{d}": "ms" for d in range(5)},
    "potentials.panels_per_point_p50": "count",
    "potentials.panels_per_point_max": "count",
    "potentials.truncation_doublings_p50": "count",
    "potentials.tail_share_p50": "frac",
    "potentials.green_potential_ms_p50": "ms",
    "potentials.green_ns_per_atom": "ns",
    "potentials.oracle_err_ratio_max": "ratio",
    "covering.build_s": "s",
    "covering.balls": "count",
    "covering.certify_s": "s",
    "covering.certify_self_s": "s",
    "covering.contains_calls": "count",
    "covering.contains_us": "us",
    "covering.maximal_calls": "count",
    "covering.maximal_us": "us",
    "covering.cert_accept_ratio": "frac",
    "growth.report_s": "s",
    "growth.report_self_s": "s",
    "growth.sweep_s": "s",
    "growth.sweep_self_s": "s",
    "scenario.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}

# The shared machine this benchmark was defined on (2-core Xeon VM, Python
# 3.11.7) drifts in speed by up to 40% over minutes.  So each command's wall
# time is divided by the time of a fixed pure-Python loop run right after
# it, each set-up by a bare interpreter start run right after it, and the
# median ratio is reported in seconds of that machine: times the reference
# loop's and the bare start's typical times there.  Between two ten-run sets
# of the same code, the ratios' medians moved by at most 10% where the raw
# medians moved by up to 25%.  The raw medians are printed alongside.
REF_LOOP_S = 0.1
BARE_START_S = 0.06
_BARE_START = [sys.executable, "-c", "pass"]

# Set-up as every CLI user pays it: a fresh interpreter imports the package
# and loads and validates the scenario (bounds_sweep has none to load).
_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import halfplanepot.cli
if len(sys.argv) > 2:
    from halfplanepot.scenario import load_scenario
    if not load_scenario(sys.argv[2]).validation().ok:
        sys.exit(3)
"""


class MissingProgram(RuntimeError):
    pass


def load_cli():
    """Import halfplanepot.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "halfplanepot" / "__init__.py").is_file():
        raise MissingProgram(f"no package source at {SRC / 'halfplanepot'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import halfplanepot.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "halfplanepot":
        raise MissingProgram(f"halfplanepot was imported from {cli.__file__}, not {SRC}")
    return cli


def spawn(argv: List[str]) -> float:
    """Wall time of one child process run to completion."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[-1]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall


def reference_loop() -> float:
    """Wall time of a fixed scalar-Python loop of complex and math calls,
    the kind of work the package's kernels do."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 120_000):
        z = complex(i % 97, 1.0 + i % 13)
        acc += abs(z) / (1.0 + math.hypot(z.real, z.imag)) + math.sin(i)
    return time.perf_counter() - t0


@dataclass
class Command:
    rep: int
    wall: float
    rc: int
    stdout: str
    stderr: str
    tracer: Optional[Tracer] = None


def run_commands(cli, inp, seconds: float, min_reps: int, traced: bool = False,
                 between=None) -> List[Command]:
    """Closed loop, one client: run the workload's command until `seconds`
    of command time is spent and at least min_reps commands have run.
    With `traced`, every second command runs under a fresh Tracer.
    `between`, if given, is called with each command, outside its time.
    A command that fails ends the loop: the result is already incorrect."""
    done, spent = [], 0.0
    while len(done) < min_reps or spent < seconds:
        rep = len(done)
        argv = inp.argv(rep)
        out, err = io.StringIO(), io.StringIO()
        tracer = Tracer() if traced and rep % 2 else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a crash fails the command's operations, like an exit code
            rc = -1
            err.write(traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        spent += wall
        done.append(Command(rep, wall, rc, out.getvalue(), err.getvalue(), tracer))
        if between is not None:
            between(done[-1])
        if rc != 0:
            break
    return done


def check_outputs(inp, cmds: List[Command], seed: int):
    """Failure messages per repetition, and the v-oracle error ratio."""
    fails = {c.rep: checks.check_command(inp, c.rep, c.rc, c.stdout, c.stderr) for c in cmds}
    good = [c.rep for c in cmds if not fails[c.rep]]
    oracle_ratio = 0.0
    if inp.name == "verify_theorem2" and good:
        ref = (inp.workdir / f"out_{good[0]}.csv").read_bytes()
        for rep in good[1:]:
            if (inp.workdir / f"out_{rep}.csv").read_bytes() != ref:
                fails[rep].append(f"growth CSV differs from repetition {good[0]}")
    if inp.name == "solve_grid" and good:
        msgs, oracle_ratio = checks.check_poisson_oracle(inp, good[0], seed)
        fails[good[0]] += msgs
    return fails, oracle_ratio


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.FULL, min_reps: int = MIN_REPS) -> dict:
    cli = load_cli()
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        inp = workloads.make_inputs(name, seed, workdir, sizes)
        metrics, raw = {}, {}
        if trace:
            # traced and untraced commands alternate, so a drift in machine
            # speed during the run does not show as tracing overhead
            cmds = run_commands(cli, inp, seconds, 2 * min_reps, traced=True)
            plain = [c.wall for c in cmds if c.tracer is None]
            traced = [c for c in cmds if c.tracer is not None]
            per_rep = [c.tracer.metrics() for c in traced] or [Tracer().metrics()]
            for key in per_rep[0]:
                metrics[key] = statistics.median(m[key] for m in per_rep)
            metrics["trace.overhead_frac"] = (
                statistics.median(c.wall for c in traced) / statistics.median(plain) - 1.0
                if traced else 0.0
            )
        else:
            setup = [sys.executable, "-c", _SETUP_CODE, str(SRC)]
            if inp.config is not None:
                setup.append(str(inp.config))
            spawn(setup)  # compiles bytecode and warms the file cache; not counted
            samples = []  # (command, reference loop, set-up, bare start) seconds

            def between(cmd):
                samples.append((cmd.wall, reference_loop(), spawn(setup), spawn(_BARE_START)))

            cmds = run_commands(cli, inp, seconds, min_reps, between=between)
            metrics["setup_s"] = BARE_START_S * statistics.median(s / b for _, _, s, b in samples)
            metrics["wall_s"] = REF_LOOP_S * statistics.median(w / r for w, r, _, _ in samples)
            raw = {key: statistics.median(col) for key, col in
                   zip(("wall_s", "ref_loop_s", "setup_s", "bare_start_s"), zip(*samples))}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        fails, oracle_ratio = check_outputs(inp, cmds, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    failed = sum(inp.ops for msgs in fails.values() if msgs)
    attempted = inp.ops * len(cmds)
    if trace:
        metrics["potentials.oracle_err_ratio_max"] = float(oracle_ratio)
    else:
        metrics["ok_frac"] = 1.0 - failed / attempted
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "failures": {rep: msgs for rep, msgs in fails.items() if msgs},
        "commands": len(cmds),
        "ops_per_command": inp.ops,
        "raw_medians": raw,
    }


def provenance(name: str, seed: int, result: dict) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commands": result["commands"],
        "ops_per_command": result["ops_per_command"],
        "raw_medians": result["raw_medians"],
    }


def report(name: str, seed: int, result: dict) -> None:
    for rep, msgs in sorted(result["failures"].items()):
        for msg in msgs:
            print(f"{name} repetition {rep}: {msg}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(name, seed, result)))
    print(f"{name}: fail_frac {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} operations)")
    for key, m in result["metrics"].items():
        print(f"  {key} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    try:
        load_cli()
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

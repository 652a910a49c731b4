"""Benchmark of the losslab CLI: four seeded workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of train-lovasz, eval-mixed, gradcheck-all, tokens-8k (see
``workloads.py`` for why each exists). Every invocation is ``python3 -m
losslab ...`` in a fresh child process with PYTHONPATH=src, BLAS pinned to
one thread and PYTHONHASHSEED=0; the loop is closed, one client running one
command at a time.

Each run first writes its inputs from the seed, then repeats cycles until
--seconds have passed (at least 3 cycles). With --trace 0 each cycle times:

* a fresh interpreter that imports ``losslab.cli`` and runs
  ``build_parser()`` (``setup_s``);
* one invocation of each other workload at its probe size, which gives that
  workload's throughput metric, so every end-to-end metric exists in every
  run;
* one invocation of the workload's own command (``wall_s``,
  ``peak_rss_mb``, and its throughput metric: its work over ``wall_s``).

Each cycle first times ``host_speed.py``, fixed reference work that does not
involve losslab, in a fresh interpreter. On shared hosts the speed of the
same work drifts by up to 1.6x over minutes, so every time of the cycle is
scaled by HOST_SPEED_REFERENCE_S / that time: times are in reference-host
seconds, which equal wall-clock seconds on a host running at the speed the
reference was taken at. Every metric is the median over the run's cycles;
the report also prints the unscaled medians. ``peak_rss_mb`` is not scaled.

With --trace 1 each cycle runs the workload's command once untraced and once
traced (``traced_cli.py``), at least 2 cycles, and each other workload's
probe runs traced once; the per-layer metrics come from those spans (see
``spans.py``). Each per-layer metric is taken from the command it describes:
the workload's own command where that is the one, otherwise the probe of
that command. Per-layer times are not scaled by host speed.

Every invocation's output is checked. The last line printed is one JSON
object with the keys correct, attempted, failed and metrics; ``attempted``
counts every child process started and ``failed`` those that exited non-zero
or whose output check failed, so failed_share = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

from spans import PER_LAYER, Trace
from workloads import WORKLOADS, Job, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED_CLI = Path(__file__).resolve().with_name("traced_cli.py")
HOST_SPEED = Path(__file__).resolve().with_name("host_speed.py")
# Median wall time of host_speed.py on a 2-vCPU Intel Xeon VM, Python 3.11,
# NumPy 2.4, one BLAS thread.
HOST_SPEED_REFERENCE_S = 0.46

MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2
CHILD_TIMEOUT_S = 150.0
BLAS_THREADS = 1
SETUP_CODE = "import losslab.cli as c; c.build_parser()"


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    failure: str | None
    trace: dict | None = None
    scale: float = 1.0  # HOST_SPEED_REFERENCE_S over the cycle's host-speed time


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, label: str, outcome: Outcome, scale: float = 1.0) -> Outcome:
        outcome.scale = scale
        self.attempted += 1
        if outcome.failure is not None:
            self.failures.append(f"{label}: {outcome.failure}")
            print(f"FAILED {label}: {outcome.failure}", file=sys.stderr)
        return outcome


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One string-hash layout for every child: with random layouts the same
    # eval invocation varied about 1.4x as much from run to run.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(cmd: list[str], cwd: Path, env: dict) -> tuple[int, float, float, str]:
    """(exit code, wall seconds, peak RSS in MiB, stderr tail) of one child.

    The child is killed after CHILD_TIMEOUT_S and always waited for.
    """
    log = cwd / ".stderr"
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        lock, state = threading.Lock(), {"exited": False}

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = perf_counter() - start
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    message = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, message[-1] if message else ""


def invoke(job: Job, env: dict, traced: bool) -> Outcome:
    for path in job.outputs:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
    spans_path = job.cwd / "spans.marshal"
    if traced:
        cmd = [sys.executable, str(TRACED_CLI), str(spans_path), "--", *job.argv]
    else:
        cmd = [sys.executable, "-m", "losslab", *job.argv]
    code, wall, rss, message = run_child(cmd, job.cwd, env)
    if code != 0:
        return Outcome(wall, rss, f"exit {code}: {message}")
    trace = None
    if traced:
        with open(spans_path, "rb") as fh:
            trace = marshal.load(fh)
    return Outcome(wall, rss, job.check(), trace)


def interpreter(env: dict, cwd: Path, *args: str) -> Outcome:
    """A timed fresh interpreter: ``python3 *args``."""
    code, wall, rss, message = run_child([sys.executable, *args], cwd, env)
    return Outcome(wall, rss, None if code == 0 else f"exit {code}: {message}")


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def cli_wall(outcome: Outcome) -> float:
    """Wall time of a traced invocation without the decode that follows the CLI."""
    return outcome.wall_s - outcome.trace["decode_s"]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    env = child_env()
    tally = Tally()
    speeds: list[Outcome] = []
    setups: list[Outcome] = []
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    probe_runs: dict[str, list[Outcome]] = {}
    try:
        main = workload.prepare(seed, work / workload.name, False)
        probes = {
            other.name: other.prepare(seed, work / other.name, True)
            for other in WORKLOADS.values()
            if other is not workload
        }
        tally.add("warm-up", interpreter(env, work, "-c", SETUP_CODE))
        # Host speed drifts over seconds, so each cycle samples every
        # measurement once and the medians draw on cycles spread over the run.
        start, cycle_s, cycles = perf_counter(), 0.0, 0
        while cycles < (MIN_TRACED_CYCLES if trace else MIN_CYCLES) or (
            perf_counter() - start + cycle_s <= seconds
        ):
            cycle_start, scale = perf_counter(), 1.0
            if not trace:
                speeds.append(tally.add("host speed", interpreter(env, work, str(HOST_SPEED))))
                scale = HOST_SPEED_REFERENCE_S / speeds[-1].wall_s
                setups.append(tally.add("setup", interpreter(env, work, "-c", SETUP_CODE), scale))
            if not trace or cycles == 0:
                for name, job in probes.items():
                    outcome = tally.add(f"probe {name}", invoke(job, env, traced=trace), scale)
                    probe_runs.setdefault(name, []).append(outcome)
            plain.append(tally.add(workload.name, invoke(main, env, traced=False), scale))
            if trace:
                outcome = invoke(main, env, traced=True)
                traced.append(tally.add(workload.name + " traced", outcome))
            cycles += 1
            cycle_s = perf_counter() - cycle_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sizes = {workload.name: main.size, **{name: job.size for name, job in probes.items()}}
    report = {"workload": workload.name, "seed": seed, "tally": tally, "cycles": cycles}
    report["sizes"] = sizes
    if trace:
        report["metrics"] = per_layer_metrics(workload, plain, traced, probe_runs)
        report["breakdown"] = breakdown(traced)
    else:
        report["metrics"] = end_to_end_metrics(workload, main, probes, setups, plain, probe_runs)
        report["unscaled"] = {
            "host_speed_s": median([o.wall_s for o in speeds]),
            "setup_s": median([o.wall_s for o in setups]),
            "wall_s": median([o.wall_s for o in plain]),
        }
    return report


def scaled(outcomes: list[Outcome]) -> float:
    return median([o.wall_s * o.scale for o in outcomes])


def end_to_end_metrics(workload, main, probes, setups, plain, probe_runs) -> dict:
    wall = scaled(plain)
    metrics = {
        "setup_s": (scaled(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (median([o.rss_mb for o in plain]), "MiB"),
        workload.metric: (main.work / wall, workload.unit),
    }
    for name, job in probes.items():
        other = WORKLOADS[name]
        metrics[other.metric] = (job.work / scaled(probe_runs[name]), other.unit)
    return {name: metrics[name] for name in end_to_end_names()}


def per_layer_metrics(workload, plain, traced, probe_runs) -> dict:
    ok = [o for o in traced if o.trace is not None]
    main_traces = [Trace(o.trace["spans"]) for o in ok]
    metrics = {}
    for name, unit, _, owners, value in PER_LAYER:
        if workload.name in owners:
            metrics[name] = (median([value(t) for t in main_traces]) if main_traces else 0.0, unit)
        else:
            probe = probe_runs[owners[0]][0].trace
            metrics[name] = (value(Trace(probe["spans"])) if probe else 0.0, unit)
    walls = [cli_wall(o) for o in ok]
    overhead = median(walls) - median([o.wall_s for o in plain]) if walls else 0.0
    remainders = [
        cli_wall(o) - o.trace["hook_s"] - t.total("cli.main") for o, t in zip(ok, main_traces)
    ]
    remainder = median(remainders) if remainders else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.remainder_s"] = (remainder, "s")
    return metrics


def breakdown(traced: list[Outcome]) -> dict | None:
    """Self time per module for the traced invocation of median wall time."""
    ok = sorted((o for o in traced if o.trace is not None), key=cli_wall)
    if not ok:
        return None
    outcome = ok[len(ok) // 2]
    # decode is the last span, a root with no children, so dropping it keeps
    # every parent index valid
    t = Trace([s for s in outcome.trace["spans"] if s[0] != "training.decode"])
    layers = t.by_layer()
    wall, hooks = cli_wall(outcome), outcome.trace["hook_s"]
    remainder = wall - hooks - sum(layers.values())
    return {"wall_s": wall, "layers": layers, "hook_s": hooks, "remainder_s": remainder}


def end_to_end_names() -> list[str]:
    return ["setup_s", "wall_s", "peak_rss_mb", *(w.metric for w in WORKLOADS.values())]


def git_commit() -> str:
    """HEAD of the checkout; git may not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def print_report(report: dict, trace: bool, seconds: float) -> None:
    w = WORKLOADS[report["workload"]]
    tally = report["tally"]
    sizes = report["sizes"]
    probes = "; ".join(f"{name}: {size}" for name, size in sizes.items() if name != w.name)
    print(f"workload {w.name} (seed {report['seed']}, {seconds:g} s, trace {int(trace)})")
    print(f"  why: {w.why}")
    print(f"  input: {sizes[w.name]}")
    print(f"  probes: {probes}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:30s} {value:>16.6g} {unit}")
    failed = len(tally.failures)
    share = failed / tally.attempted
    print(f"  {'failed_share':30s} {share:>16.6g} ratio ({failed} of {tally.attempted})")
    if not trace:
        print(
            f"  medians over {report['cycles']} cycles, each: host speed, one setup,"
            " one run of each probe, one of the workload"
        )
        raw = report["unscaled"]
        print(
            f"  unscaled: host_speed_s {raw['host_speed_s']:.4f} s"
            f" (reference {HOST_SPEED_REFERENCE_S} s), setup_s {raw['setup_s']:.4f} s,"
            f" wall_s {raw['wall_s']:.4f} s"
        )
    elif report["breakdown"]:
        b = report["breakdown"]
        print(f"  self time by layer, traced invocation of median wall {b['wall_s']:.4f} s:")
        for layer, own in sorted(b["layers"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:12s} {own:10.4f} s")
        print(f"    {'(hooks)':12s} {b['hook_s']:10.4f} s  span data the harness collects")
        print(
            f"    {'(remainder)':12s} {b['remainder_s']:10.4f} s"
            "  interpreter start, imports, span dump"
        )


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "losslab" / "cli.py").is_file():
        print(f"error: no losslab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine " + json.dumps(machine()))
    reports = []
    for name in names:
        report = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
        print_report(report, trace, args.seconds)
        reports.append(report)
    attempted = sum(r["tally"].attempted for r in reports)
    failed = sum(len(r["tally"].failures) for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""kforcing benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact_ladder --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  A run imports the package from this
checkout's ``src``, sets up its inputs several times, then repeats full
passes over the workload's ops until the passes add up to ``--seconds``.
Every op's result is checked outside the timed region; an op that raises or
fails its check counts as failed.

Gated times are calibrated CPU seconds.  On a shared machine the wall time
of the same pass moved by a third from one run to the next (stolen time,
busy neighbours on the same cores), and so did its CPU time.  So the run
times a fixed piece of pure-Python work, the calibration, before every op
and after the last, and scales each op's CPU time (all threads of the
process, and children that ended) by the mean of the two calibrations around it: an op's calibrated
time is its CPU time on a machine where the calibration takes
CALIBRATION_REF_S.  ``pass_cpu_s`` is the median over passes of the summed
calibrated op times.  ``setup_s`` is the median calibrated set-up plus the
median calibrated CPU time to import kforcing in a fresh interpreter; after
the first set-up, both are sampled between passes so that the samples are
spread over the run.  Wall times are printed next to them.

With ``--trace 0`` the metrics are the end-to-end ones (tracing off).  With
``--trace 1`` half of the time runs untraced and half traced, and the
metrics are the per-layer ones from spans recorded around the package's
functions (spans.py), plus the tracing overhead.  ``--smoke`` runs one pass
of each kind with every check on.

Lines before the last are for people: run metadata, metrics with units,
sample counts, per-op latency (op_p50_ms, and op_p90_ms once 100 op samples
exist), failed_frac and any failed check by name.  The last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 7  # set-ups per run; setup_s takes their median
IMPORT_REPS = 9  # fresh-interpreter imports per run; setup_s takes their median
# Imports kforcing from the directory in argv[1] and prints the CPU time it took.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.process_time(); import kforcing; print(time.process_time() - start)"
)
# The calibration's CPU time on the 2-vCPU VM the reference figures were
# taken on; calibrated times are CPU seconds at that speed.
CALIBRATION_REF_S = 0.020
CALIBRATION_ROUNDS = 3
# Work counts that must repeat exactly from pass to pass.
COUNTED = ("exact.subsets_tested", "greedy.augmentations", "forcing.rounds", "verify.rows")


def affinity_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_workers() -> None:
    """Never let the package's default pools use more threads than nproc."""
    if "KFORCING_WORKERS" not in os.environ and (os.cpu_count() or 1) > affinity_count():
        os.environ["KFORCING_WORKERS"] = str(affinity_count())


def import_package() -> float:
    """Import kforcing from this checkout's src; returns the import time."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import kforcing
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import kforcing from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    if Path(kforcing.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: kforcing imported from {kforcing.__file__}, not {SRC}")
    return elapsed


def _calibration_work() -> int:
    """Fixed pure-Python work of the kinds the package does: int bit tricks, dicts, sets."""
    acc = 0
    seen: dict[int, int] = {}
    mixed = set()
    for i in range(6000):
        x = (i * 2654435761) & 0xFFFF
        seen[x] = i
        mixed.add(x ^ (x >> 3))
        acc += bin(x).count("1")
    ordered = sorted(seen.values())
    return acc + sum(ordered[::7]) + len(mixed)


def calibration_s() -> float:
    """CPU time of the calibration now; the garbage collector is off meanwhile,
    so the package's collector settings cannot change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(CALIBRATION_ROUNDS):
            _calibration_work()
        return time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()


def cpu_s() -> float:
    """CPU time of this process, all threads, and of its children that have
    ended, so work handed to a process pool that is shut down is counted."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def calibrated(cpu: float, cal_before: float, cal_after: float) -> float:
    """CPU time scaled to the reference speed, by the calibrations around it."""
    return cpu * CALIBRATION_REF_S * 2 / (cal_before + cal_after)


def fresh_import_s() -> float:
    """Calibrated CPU time to import kforcing in a fresh interpreter, which has
    ended on return.

    The import in this process is a single sample, and on a shared machine one
    sample can take twice as long as the next; setup_s uses the median of
    several of these instead.
    """
    before = calibration_s()
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=60, check=False)
    after = calibration_s()
    if out.returncode != 0:
        raise SystemExit(f"perfbench: importing kforcing in a fresh interpreter failed:\n{out.stderr}")
    return calibrated(float(out.stdout), before, after)


def git_head() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int | None:
    if shutil.which("nproc") is None:
        return None
    out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10, check=False)
    return int(out.stdout) if out.returncode == 0 else None


def metadata(args, pinned_seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "affinity_count": affinity_count(),
        "KFORCING_WORKERS": os.environ.get("KFORCING_WORKERS"),
        "git_head": git_head(),
        "workload": args.workload,
        "seed": args.seed,
        "pinned_seed": pinned_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Passes:
    """What a series of passes measured and what its checks found."""

    pass_s: list[float] = field(default_factory=list)  # wall
    pass_cpu_s: list[float] = field(default_factory=list)  # calibrated CPU
    op_s: dict[str, list[float]] = field(default_factory=dict)
    layers: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: dict = field(default_factory=dict)


def one_pass(ops, out: Passes, tracer=None, required=()) -> None:
    """Time one pass over the ops, then check every result outside the timing.

    The calibrations between the ops are timed apart from them; spans are
    recorded only around package functions, so they record none of it.
    """
    results = []
    gc.collect()  # every pass starts from the same heap, untimed
    if tracer:
        tracer.active = True
    wall = cpu = 0.0
    cal = calibration_s()
    for op in ops:
        t, c = time.perf_counter(), cpu_s()
        try:
            results.append((op.call(), None))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            results.append((None, exc))
        op_cpu, op_wall = cpu_s() - c, time.perf_counter() - t
        cal_after = calibration_s()
        cpu += calibrated(op_cpu, cal, cal_after)
        cal = cal_after
        wall += op_wall
        out.op_s.setdefault(op.name, []).append(op_wall)
    out.pass_s.append(wall)
    out.pass_cpu_s.append(cpu)
    if tracer:
        tracer.active = False
        out.layers.append(traced_metrics(tracer, required, "pass"))
    for op, (result, exc) in zip(ops, results):
        out.attempted += 1
        try:
            found = [f"raised {type(exc).__name__}: {exc}"] if exc else op.check(result)
        except Exception as err:  # a check that cannot read the result fails the op
            found = [f"check raised {type(err).__name__}: {err}"]
        if found:
            out.failed += 1
            out.problems.setdefault(op.name, found)


def traced_metrics(tracer, required, where: str) -> dict:
    """Layer metrics of the spans just recorded; a required layer missing is fatal."""
    recorded = tracer.take()
    missing = set(required) - {s.name for s in recorded}
    if missing:
        raise SystemExit(f"perfbench: traced {where} recorded no span for {sorted(missing)}")
    return spans.layer_metrics(recorded)


def timed_setup(workload, seed: int):
    """The inputs and the calibrated CPU time of one set-up."""
    before = calibration_s()
    start = cpu_s()
    inputs = workload.setup(seed)
    elapsed = cpu_s() - start
    return inputs, calibrated(elapsed, before, calibration_s())


def run(workload_name: str, seed: int, seconds: float, trace: bool, reference: dict,
        smoke: bool = False, lines: list | None = None) -> dict:
    """Run one workload; returns the result object the last output line holds.

    Passes repeat until their summed time reaches `seconds` (at least one).
    With `trace`, untraced and traced passes alternate, so each pair sees the
    same machine conditions; the median ratio within pairs is the tracing
    overhead.
    """
    from workloads import WORKLOADS

    lines = [] if lines is None else lines
    workload = WORKLOADS[workload_name]
    inputs, first_setup_s = timed_setup(workload, seed)
    ops = workload.ops(inputs, seed, reference)
    budget = 0.0 if smoke else seconds
    setup_reps, import_reps = (1, 1) if smoke else (SETUP_REPS, IMPORT_REPS)
    untraced = Passes()
    sections = [untraced]
    correct = True

    if not trace:
        setups, imports = [first_setup_s], []
        while not untraced.pass_s or sum(untraced.pass_s) < budget:
            one_pass(ops, untraced)
            if len(setups) < setup_reps:
                setups.append(timed_setup(workload, seed)[1])
            if len(imports) < import_reps:
                imports.append(fresh_import_s())
        while len(setups) < setup_reps:
            setups.append(timed_setup(workload, seed)[1])
        while len(imports) < import_reps:
            imports.append(fresh_import_s())
        setup_s, import_s = statistics.median(setups), statistics.median(imports)
        lines.append(f"import {import_s:.4f} s, median of {len(imports)} fresh interpreters, "
                     f"plus set-up {setup_s:.4f} s, median of the set-ups, make setup_s "
                     f"(calibrated CPU seconds)")
        lines.append(f"pass wall time median {statistics.median(untraced.pass_s):.4f} s (not gated)")
        metrics = {
            "setup_s": import_s + setup_s,
            "pass_cpu_s": statistics.median(untraced.pass_cpu_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        tracer = spans.Tracer()
        traced = Passes()
        sections.append(traced)
        with tracer.installed():
            tracer.active = True
            workload.setup(seed)
            tracer.active = False
        setup_layers = traced_metrics(tracer, workload.setup_layers, "set-up")
        while not traced.pass_s or sum(untraced.pass_s) + sum(traced.pass_s) < budget:
            one_pass(ops, untraced)
            with tracer.installed():
                one_pass(ops, traced, tracer, workload.layers)
        metrics = {}
        for name in traced.layers[0]:
            values = [layer[name] for layer in traced.layers]
            if name in COUNTED and len(set(values)) > 1:
                correct = False
                lines.append(f"MISMATCH {name}: differs between passes {values}")
            metrics[name] = statistics.median_low(values)
            if name.startswith("generators."):
                metrics[name] += setup_layers[name]
        if seed == reference["pinned_seed"]:
            for name, want in reference["counts"][workload_name].items():
                if metrics[name] != want:
                    lines.append(f"NOTE {name}: {metrics[name]} per pass, the reference run had {want}")
        metrics["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced.pass_cpu_s, untraced.pass_cpu_s)
        ) - 1
        if workload_name == "verify_default":
            lines.append(split_line(metrics))

    attempted = sum(s.attempted for s in sections)
    failed = sum(s.failed for s in sections)
    for section, label in zip(sections, ("untraced", "traced")):
        times = " ".join(f"{t:.4f}" for t in section.pass_s)
        lines.append(f"{label} passes ({len(section.pass_s)}), wall seconds each: {times}")
        times = " ".join(f"{t:.4f}" for t in section.pass_cpu_s)
        lines.append(f"{label} passes, calibrated CPU seconds each: {times}")
    lines.extend(op_lines(untraced.op_s))
    lines.append(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for section in sections:
        for op_name, problems in section.problems.items():
            lines.append(f"FAILED {op_name}: {'; '.join(problems)}")
    result_metrics = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        lines.append(f"{name} {value:.6g} {unit}")
        result_metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }


def op_lines(op_s: dict[str, list[float]]) -> list[str]:
    """Per-op latency: each op's median, the pooled p50, and p90 where it is sound.

    These are printed, not gated on: the ops of a pass differ in cost by up
    to three orders of magnitude, so the pooled median is the cost of one
    particular op, and for the exact solver that cost depends on where the
    seed's relabelling puts the first witness.
    """
    pooled = sorted(t for times in op_s.values() for t in times)
    n = len(pooled)
    lines = [f"op {name} median {statistics.median(times) * 1000:.6g} ms" for name, times in op_s.items()]
    lines.append(f"op_p50_ms {statistics.median(pooled) * 1000:.6g} ms ({n} op samples)")
    if n < 100:
        lines.append(f"op_p90_ms not reported: {n} op samples, 100 needed for 10 beyond p90")
    else:
        lines.append(f"op_p90_ms {statistics.quantiles(pooled, n=10)[8] * 1000:.6g} ms ({n} op samples)")
    return lines


def split_line(metrics: dict) -> str:
    """Shares of traced layer time on the verify pass, for the profile comparison."""
    parts = {
        "exact": metrics["exact.solve_s"],
        "generation": metrics["generators.generate_s"],
        "bounds": metrics["bounds.all_bounds_s"],
        "greedy": metrics["greedy.construct_s"],
    }
    total = sum(parts.values())
    shares = ", ".join(f"{name} {100 * t / total:.1f}%" for name, t in parts.items())
    return f"split of traced layer time (summed over threads): {shares}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass, all checks on")
    args = parser.parse_args(argv)

    cap_workers()
    import_s = import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    reference = json.loads(REFERENCE.read_text())
    print("meta " + json.dumps(metadata(args, reference["pinned_seed"]), sort_keys=True), flush=True)
    print(f"import in this process {import_s:.4f} s (not counted)", flush=True)
    lines: list[str] = []
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), reference,
                 smoke=args.smoke, lines=lines)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

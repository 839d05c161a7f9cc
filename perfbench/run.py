"""qboson-kit benchmark: end-to-end metrics with a correctness gate, or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-all --seed 1 --seconds 42 --trace 0

Workloads (see workloads.py and README.md): suite-all, multimode-scale,
recipe-scale.  They are fixed parameter sets; the seed is recorded and
changes nothing, because the toolkit draws no random numbers.  The load is a
closed loop with one client: the next call starts when the previous returns.

`--trace 0` measures, with no wrapper installed:
  setup_s         median over fresh interpreters of the `import qboson_kit`
                  time at the reference host speed (kernels timed in the
                  same interpreter right after the import)
  run_ref_s.p50   warm in-process iteration time (run_suite + render_report),
                  divided by the time of fixed reference kernels run right
                  after it and multiplied by their reference time: the
                  iteration time at the reference host speed; median
  run_ref_s.tail  the same, at the highest percentile with at least ten
                  samples beyond it
  peak_rss_mb     peak resident memory of the in-process run
It also times each iteration as fresh `python -m qboson_kit run ... --format
json` processes (cli_cold_s, summed over the iteration's invocations).
import_s.p50 (setup_s unscaled), the raw run_s.p50 and run_s.tail,
checks_per_s, cli_cold_s.p50 and cli_cold_s.p90 are recorded in the run
metadata but not gated (README.md says why).  `--trace 1` gives the
per-layer metrics: import times parsed from `-X importtime`, and self times
and counters from a traced in-process run.

Every report, warm, traced or cold, goes through the correctness gate in
workloads.py; `failed` / `attempted` is the fail ratio.  Every process the
benchmark starts uses one BLAS thread.  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}; the full result, with run
metadata, goes to .bench_out/.  The exit code is 1 when the correctness gate
or a self-check fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fresh-interpreter imports per run, half before and half after the timed phases.
SETUP_REPEATS = 8
IMPORTTIME_REPEATS = 3
IMPORT_MODULES = {"qboson_kit": "import.qboson_kit_s", "numpy": "import.numpy_s",
                  "scipy.sparse": "import.scipy_sparse_s",
                  "scipy.sparse.linalg": "import.scipy_sparse_linalg_s"}
# Share of --seconds given to warm in-process iterations; cold processes get the rest.
WARM_SHARE = 3 / 4
MIN_WARM_ITERATIONS = 3
MIN_COLD_ITERATIONS = 2
# Combined time of calibration.py's kernels at the reference host speed: the
# median measured on the 2-core host the benchmark was written on.
KERNEL_REFERENCE_S = 0.065
# Every child is killed once the whole run has taken this long.
DEADLINE_S = 170.0

class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (not a failed check)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts child processes under one deadline and waits for each to end."""

    def __init__(self):
        self.deadline = perf_counter() + DEADLINE_S
        self.env = child_env()

    def run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchmarkError("run exceeded its deadline")
        start = perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{argv[:3]} did not finish before the deadline") from exc
        return proc, perf_counter() - start

    def json_child(self, argv: list[str]) -> dict:
        proc, _ = self.run(argv)
        if proc.returncode != 0:
            raise BenchmarkError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def import_time(self) -> tuple[float, float]:
        """Seconds of `import qboson_kit` in a fresh interpreter, and of the
        reference kernels timed in that interpreter right after it."""
        proc, _ = self.run([str(BENCH_DIR / "probe_import.py")])
        if proc.returncode != 0:
            raise BenchmarkError(f"import qboson_kit failed: {proc.stderr[-2000:]}")
        import_s, kernel_s, location = proc.stdout.split()
        if not Path(location).resolve().is_relative_to(SRC):
            raise BenchmarkError(f"qboson_kit imported from {location}, not {SRC}")
        return float(import_s), float(kernel_s)


def warm_up_cli(runner: Runner) -> None:
    """One untimed cold launch of the CLI, so the file cache is warm."""
    proc, _ = runner.run(["-m", "qboson_kit", "run", "--suite", "rmatrix", "--format", "json"])
    if proc.returncode != 0:
        raise BenchmarkError(f"warm-up CLI launch exited {proc.returncode}: {proc.stderr[-2000:]}")


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than eleven samples no such percentile exists; the maximum is
    reported, as percentile 100.
    """
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def read_git_sha() -> str:
    """HEAD's commit from .git files, or "unknown" outside a git checkout."""
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
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure_end_to_end(runner: Runner, args, workload: list[dict], meta: dict) -> tuple:
    probes = [runner.import_time() for _ in range(SETUP_REPEATS // 2)]

    warm = runner.json_child([str(BENCH_DIR / "worker.py"), "--workload", args.workload,
                              "--seconds", str(args.seconds * WARM_SHARE),
                              "--min-iterations", str(MIN_WARM_ITERATIONS), "--trace", "0"])
    gate = workloads.Gate(workloads.expected_checks(args.workload))
    gate.reference = warm["reference"]

    warm_up_cli(runner)
    cold = []
    deadline = perf_counter() + args.seconds * (1 - WARM_SHARE)
    while len(cold) < MIN_COLD_ITERATIONS or perf_counter() < deadline:
        total = 0.0
        for i, invocation in enumerate(workload):
            proc, elapsed = runner.run(["-m", "qboson_kit", *workloads.cli_args(invocation)])
            total += elapsed
            if proc.returncode != 0:
                gate.problems.append(f"cold {len(cold) + 1}[{i}] exited {proc.returncode}")
                gate.failed += 1
            gate.judge(f"cold {len(cold) + 1}", i, proc.stdout)
        cold.append(total)
    probes += [runner.import_time() for _ in range(SETUP_REPEATS - len(probes))]
    setup = [import_s for import_s, _ in probes]

    samples = warm["samples"]
    # Each iteration's time in units of the kernels timed right after it,
    # scaled by the kernels' reference time: host speed cancels out.
    relative = [t / k for t, k in zip(samples, warm["kernel_samples"])]
    tail_value, tail_pct = tail(relative)
    metrics = {
        "setup_s": (statistics.median(i / k for i, k in probes) * KERNEL_REFERENCE_S, "s"),
        "run_ref_s.p50": (statistics.median(relative) * KERNEL_REFERENCE_S, "s"),
        "run_ref_s.tail": (tail_value * KERNEL_REFERENCE_S, "s"),
        "peak_rss_mb": (warm["peak_rss_mb"], "MB"),
    }
    attempted = warm["attempted"] + gate.attempted
    failed = warm["failed"] + gate.failed
    # Raw wall times, recorded but not gated: the host's speed drifts from run
    # to run, so they do not repeat within a tenth (see README.md).
    meta["ungated"] = {
        "import_s.p50": statistics.median(setup),
        "run_s.p50": statistics.median(samples),
        "run_s.tail": tail(samples)[0],
        "checks_per_s": warm["checks_per_iteration"] * len(samples) / sum(samples),
        "cli_cold_s.p50": statistics.median(cold),
        "cli_cold_s.p90": statistics.quantiles(cold, n=10, method="inclusive")[8],
    }
    meta.update(versions=warm["versions"], fail_ratio=failed / max(attempted, 1),
                tail_percentile=tail_pct,
                samples={"setup_s": len(probes), "run_s": len(samples),
                         "cli_cold_s": len(cold)},
                warmup_s=warm["warmup_s"],
                raw={"import_s": setup, "import_kernel_s": [k for _, k in probes],
                     "run_s": samples, "cli_cold_s": cold,
                     "kernel_s": warm["kernel_samples"]})
    return metrics, attempted, failed, warm["problems"] + gate.problems


def import_breakdown(runner: Runner) -> dict:
    """Cumulative import seconds of the tracked modules, median over fresh processes."""
    values: dict = {key: [] for key in IMPORT_MODULES.values()}
    for _ in range(IMPORTTIME_REPEATS):
        proc, _ = runner.run(["-X", "importtime", "-c", "import qboson_kit"])
        if proc.returncode != 0:
            raise BenchmarkError(f"import qboson_kit failed: {proc.stderr[-2000:]}")
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name in IMPORT_MODULES and parts[1].strip().isdigit():
                    found[IMPORT_MODULES[name]] = int(parts[1]) / 1e6
        for key in values:
            # A module the package no longer imports costs nothing.
            values[key].append(found.get(key, 0.0))
    return {key: (statistics.median(v), "s") for key, v in values.items()}


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics: medians of per-iteration self times, per-iteration counts."""
    summaries = [s for key, s in traced["summaries"].items() if key != "cli"]

    def med(fn) -> float:
        return statistics.median(fn(s) for s in summaries)

    def self_s(group):
        return med(lambda s: s["self_s"].get(group, 0.0))

    def calls(group):
        return med(lambda s: s["calls"].get(group, 0))

    def count(key):
        return med(lambda s: s["counts"].get(key, 0))

    def ratio(num, den, empty):
        return med(lambda s: num(s) / den(s) if den(s) else empty)

    metrics = {}
    for group in ("fock.matrix_norm", "fock.matmul", "fock.linear_combo", "fock.construct",
                  "fock.relation_residual", "fock.safe_subspace_projector",
                  "fock.expectation", "densities.mixture_density", "phase", "qboson",
                  "multimode"):
        metrics[f"{group}.self_s"] = (self_s(group), "s")
        metrics[f"{group}.calls"] = (calls(group), "count")
    for group in ("fock.other", "densities.other", "suites.run_suite",
                  "suites.render_report", "suites.other"):
        metrics[f"{group}.self_s"] = (self_s(group), "s")
    for key in ("dense_svd_calls", "svds_calls", "svds_failures", "zero_calls",
                "nonzero_spectral_calls"):
        metrics[f"fock.matrix_norm.{key}"] = (count(f"matrix_norm.{key}"), "count")
    # A ratio over an empty base reads as "nothing wasted": 1.0 for a share of
    # useful outcomes, 0.0 for a share of waste.
    metrics["fock.matrix_norm.monomial_ratio"] = (ratio(
        lambda s: s["counts"].get("matrix_norm.monomial_calls", 0),
        lambda s: s["counts"].get("matrix_norm.nonzero_spectral_calls", 0), 1.0), "ratio")
    metrics["fock.matmul.nnz_out"] = (count("matmul.nnz_out"), "count")
    metrics["fock.safe_subspace_projector.rebuild_ratio"] = (ratio(
        lambda s: s["counts"].get("safe_subspace_projector.rebuilds", 0),
        lambda s: s["by_name"].get("fock.safe_subspace_projector", 0), 0.0), "ratio")
    metrics["densities.dense_bytes"] = (count("mixture_density.dense_bytes"), "B")
    metrics["multimode.covariant_bosons.calls"] = (
        med(lambda s: s["by_name"].get("multimode.covariant_bosons", 0)), "count")
    metrics["multimode.covariant_bosons.useful_ratio"] = (ratio(
        lambda s: s["by_name"].get("multimode.covariant_bosons", 0),
        lambda s: s["covariant_sign_probes"], 1.0), "ratio")
    metrics["cli.main.self_s"] = (traced["summaries"]["cli"]["self_s"].get("cli.main", 0.0), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced["traced_samples"])
                                       / statistics.median(traced["untraced_samples"]),
                                       "ratio")
    return metrics


def measure_layers(runner: Runner, args, meta: dict, spans_path: Path) -> tuple:
    metrics = import_breakdown(runner)
    traced = runner.json_child([str(BENCH_DIR / "worker.py"), "--workload", args.workload,
                                "--seconds", str(args.seconds),
                                "--min-iterations", "2", "--trace", "1",
                                "--spans-out", str(spans_path)])
    metrics.update(layer_metrics(traced))
    meta.update(versions=traced["versions"], spans_file=str(spans_path.relative_to(ROOT)),
                samples={"untraced": len(traced["untraced_samples"]),
                         "traced": len(traced["traced_samples"]),
                         "importtime": IMPORTTIME_REPEATS},
                fail_ratio=traced["failed"] / max(traced["attempted"], 1),
                raw={"untraced_s": traced["untraced_samples"],
                     "traced_s": traced["traced_samples"]})
    return metrics, traced["attempted"], traced["failed"], traced["problems"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qboson_kit" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'qboson_kit'}", file=sys.stderr)
        return 2
    runner = Runner()
    meta = {"workload": args.workload, "seed": args.seed, "seed_effect": "none",
            "seconds": args.seconds, "trace": args.trace, "git_sha": read_git_sha(),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "thread_env": THREAD_ENV,
            "load": "closed loop, one client"}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # Untimed: compiles the bytecode and warms the file cache.
        warm_up_cli(runner)
        if args.trace:
            metrics, attempted, failed, problems = measure_layers(
                runner, args, meta, OUT_DIR / f"spans-{stem}.json")
        else:
            metrics, attempted, failed, problems = measure_end_to_end(
                runner, args, workloads.WORKLOADS[args.workload], meta)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({**result, "meta": meta, "problems": problems}, fh, indent=1)
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}", file=sys.stderr)
    for name, value in meta.get("ungated", {}).items():
        print(f"{name:45s} {value:14.6g} (not gated)", file=sys.stderr)
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "raw"}}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

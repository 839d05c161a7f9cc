"""In-process half of the benchmark: warm iterations through the public API.

Run by `run.py` in a fresh interpreter with one BLAS thread:

    python3 perfbench/worker.py --workload suite-all --seconds 16 --trace 0

An iteration calls `suites.run_suite` and `suites.render_report(..., "json")`
for each invocation of the workload.  The first iteration is a warm-up: it is
judged and becomes the reference, but it is not timed.  `gc.collect()` runs
before each iteration, outside the timed window.

With `--trace 0` the iterations run with no wrapper installed, which is
checked before and after the timed loop.  After each timed iteration the
reference kernels of calibration.py run and their time is recorded with it;
peak RSS is read before they first run.  With `--trace 1` untraced and
traced iterations alternate, then each invocation runs once more through
`cli.main` under the tracer; the per-iteration summaries are returned and
the spans written to `--spans-out`.  The result is one JSON object on the
last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-iterations", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="with --trace 1: write the spans here as JSON")
    args = parser.parse_args()

    import numpy
    import scipy
    import qboson_kit
    from qboson_kit import suites

    if not Path(qboson_kit.__file__).resolve().is_relative_to(SRC):
        print(f"error: qboson_kit imported from {qboson_kit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import calibration
    import tracer as tracing

    invocations = workloads.WORKLOADS[args.workload]
    configs = [suites.SuiteConfig(**inv, fmt="json") for inv in invocations]
    gate = workloads.Gate(workloads.expected_checks(args.workload))
    problems: list[str] = []

    def iterate() -> tuple[float, list[str]]:
        # Called through the module, so that traced iterations see the wrappers.
        texts = []
        start = perf_counter()
        for config in configs:
            texts.append(suites.render_report(suites.run_suite(config), "json"))
        return perf_counter() - start, texts

    def judge(label: str, texts: list[str]) -> list:
        return [gate.judge(label, i, text) for i, text in enumerate(texts)]

    def check_untraced(when: str) -> None:
        wrapped = tracing.installed_wrappers()
        foreign = tracing.foreign_functions(str(SRC))
        if wrapped or foreign:
            problems.append(f"{when}: wrappers installed {wrapped[:5]} {foreign[:5]}")

    check_untraced("before warm-up")
    gc.collect()
    warmup_s, texts = iterate()
    gate.reference = judge("warm-up", texts)
    out = {"warmup_s": warmup_s, "reference": gate.reference,
           "checks_per_iteration": sum(len(json.loads(t)["checks"]) for t in texts),
           "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__}}

    if args.trace:
        out.update(traced_loop(args, iterate, judge, check_untraced, problems, gate))
    else:
        samples, kernels = [], []
        deadline = perf_counter() + args.seconds
        while len(samples) < args.min_iterations or perf_counter() < deadline:
            gc.collect()
            elapsed, texts = iterate()
            samples.append(elapsed)
            judge(f"warm {len(samples)}", texts)
            if len(samples) == 1:
                # The workload has reached its peak; the kernels allocate too.
                out["peak_rss_mb"] = peak_rss_mb()
            kernels.append(calibration.sparse_kernel() + calibration.dense_kernel())
        check_untraced("after timed loop")
        out["samples"] = samples
        out["kernel_samples"] = kernels

    out.setdefault("peak_rss_mb", peak_rss_mb())
    out.update(attempted=gate.attempted, failed=gate.failed,
               problems=gate.problems + problems)
    print(json.dumps(out))
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_loop(args, iterate, judge, check_untraced, problems, gate) -> dict:
    """Alternate untraced and traced iterations, then trace one CLI pass."""
    import tracer as tracing
    from qboson_kit import cli

    tr = tracing.Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < args.min_iterations or perf_counter() < deadline:
        check_untraced(f"untraced {len(untraced)}")
        gc.collect()
        elapsed, texts = iterate()
        untraced.append(elapsed)
        judge(f"untraced {len(untraced)}", texts)

        gc.collect()
        tr.iteration = len(traced)
        first = len(tr.spans)
        tr.install()
        root = tr.open(tracing.ROOT_SPAN)
        elapsed, texts = iterate()
        tr.close(root)
        tr.uninstall()
        traced.append(elapsed)
        judge(f"traced {len(traced)}", texts)
        attributed = sum(tr.self_times(first))
        if abs(attributed - elapsed) > 0.01 * elapsed + 1e-3:
            problems.append(f"traced {len(traced)}: self times sum to {attributed:.4f} s, "
                            f"iteration took {elapsed:.4f} s")

    tr.iteration = "cli"
    tr.install()
    for i, invocation in enumerate(workloads.WORKLOADS[args.workload]):
        buf = io.StringIO()
        root = tr.open(tracing.ROOT_SPAN)
        with contextlib.redirect_stdout(buf):
            code = cli.main(workloads.cli_args(invocation))
        tr.close(root)
        if code != 0:
            problems.append(f"cli.main pass [{i}] exited {code}")
        gate.judge("cli.main pass", i, buf.getvalue())
    tr.uninstall()
    check_untraced("after traced loop")

    if args.spans_out:
        with open(args.spans_out, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "iteration"],
                       "spans": tr.spans}, fh)
    return {"untraced_samples": untraced, "traced_samples": traced,
            "summaries": tr.summaries()}


if __name__ == "__main__":
    sys.exit(main())

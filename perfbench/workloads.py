"""The fixed workloads of the benchmark and the correctness gate shared by its halves.

A workload is a list of suite invocations that together make one iteration.
Each invocation is given once, as `SuiteConfig` keyword arguments; the CLI
form `run --suite ... --format json` is derived from the same dict, so the
in-process and cold-process runs do identical work.  The toolkit draws no
random numbers, so the workloads do not depend on the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS: dict[str, list[dict]] = {
    # The gate users run: 117 checks over many small operators.
    "suite-all": [{"suite": "all"}],
    # The multimode scale points: large residuals, dense SVD and svds norms.
    "multimode-scale": [
        {"suite": "multimode", "modes": 4, "cutoff": 6},
        {"suite": "multimode", "modes": 4, "cutoff": 8},
        {"suite": "multimode", "modes": 6, "cutoff": 4},
    ],
    # One dense 3609^2 pure density dominates: memory and density work.
    "recipe-scale": [{"suite": "recipe", "cutoff": 400}],
}

EXPECTED_CHECKS_PATH = Path(__file__).resolve().parent / "expected_checks.json"


def cli_args(invocation: dict) -> list[str]:
    """`qboson-kit run` arguments equivalent to one invocation's SuiteConfig."""
    args = ["run"]
    for key, value in invocation.items():
        args += [f"--{key}", str(value)]
    return args + ["--format", "json"]


def expected_checks(workload: str) -> list[list[str]]:
    """Check names each invocation of `workload` must report (extras allowed)."""
    with open(EXPECTED_CHECKS_PATH) as fh:
        return json.load(fh)[workload]


class Gate:
    """Counts attempted and failed checks over every iteration of one run.

    A check fails when it reports `passed: false`, when an expected name is
    missing, or when it differs from the reference iteration's check of the
    same position.  Only `checks` is compared: the config echo and wall_time
    legitimately differ between iterations and between in-process and CLI
    runs.  A report that cannot be parsed fails all its expected checks.
    `problems` keeps a short description of each failure.
    """

    def __init__(self, expected: list[list[str]]):
        self.expected = expected
        self.reference: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def judge(self, label: str, index: int, report_text: str) -> str | None:
        """Judge one invocation's JSON report; return its canonical checks."""
        expected = self.expected[index]
        try:
            report = json.loads(report_text)
            checks = report["checks"]
            names = [c["name"] for c in checks]
            failing = [c["name"] for c in checks if not c["passed"]]
            overall_passed = report["overall_passed"]
        except (ValueError, KeyError, TypeError) as exc:
            self.attempted += len(expected)
            self._fail(len(expected), f"{label}[{index}]: unreadable report ({exc})")
            return None
        canonical = json.dumps(checks, sort_keys=True)
        self.attempted += len(set(names) | set(expected))
        if failing:
            self._fail(len(failing), f"{label}[{index}]: failed {failing[:5]}")
        if not overall_passed and not failing:
            self._fail(1, f"{label}[{index}]: overall_passed is false")
        missing = sorted(set(expected) - set(names))
        if missing:
            self._fail(len(missing), f"{label}[{index}]: missing {missing[:5]}")
        reference = self.reference[index] if self.reference else None
        if reference is not None and canonical != reference:
            ref = json.loads(reference)
            differing = [a["name"] for a, b in zip(checks, ref) if a != b]
            self._fail(max(len(differing) + abs(len(checks) - len(ref)), 1),
                       f"{label}[{index}]: checks differ from the reference iteration "
                       f"{differing[:3]}")
        return canonical

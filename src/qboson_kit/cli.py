"""Command-line interface.

    qboson-kit run --suite <name> [--q V | --epsilon0 V --kT V] [--cutoff N]
                   [--alpha N] [--modes N] [--qtype I|II|III|IV] [--tol V]
                   [--margin N|auto] [--norm spectral|frobenius]
                   [--format json|csv|text] [--out PATH]
    qboson-kit dump-operator --op <name> [--cutoff N] [--alpha N]
                   [--qtype T] [--q V] [--modes N] [--out PATH]
    qboson-kit asymptotics --z Z [--z Z ...] [--cutoff N] [--out PATH]

`run` exits 0 exactly when every check of the suite passes; reports go to
stdout or --out.  Reports are deterministic apart from the wall_time field.
A flag the suite or the operator does not use exits 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .densities import asymptotics_csv, phase_asymptotics
from .dump import format_operator, format_rmatrix
from .fock import ladder, make_space
from .multimode import su_r_matrix
from .phase import phase_pair, sqrt_number_operator, theta_operator
from .qboson import standard_qboson
from .suites import SUITES, ConfigError, SuiteConfig, render_report, run_suite

# The flags each dumpable operator uses, with their defaults.
_CUTOFF = {"cutoff": 16}
_QBOSON = {**_CUTOFF, "qtype": "I", "q": 0.7071067811865476}
DUMP_FLAGS: dict[str, dict[str, object]] = {
    "a": _CUTOFF, "adag": _CUTOFF, "n": _CUTOFF, "sqrtn": _CUTOFF, "e": _CUTOFF,
    "edag": _CUTOFF, "theta": {**_CUTOFF, "alpha": 0},
    "qboson-lower": _QBOSON, "qboson-raise": _QBOSON,
    "rmatrix": {"modes": 2, "q": _QBOSON["q"]},
}


def _margin(value: str):
    if value == "auto":
        return "auto"
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qboson-kit",
        description="Numeric verification toolkit for deformed oscillator algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--suite", required=True, choices=SUITES)
    run.add_argument("--q", type=float, help="base deformation parameter q in (0, 1)")
    run.add_argument("--epsilon0", type=float, help="quantal energy (with --kT)")
    run.add_argument("--kT", type=float, help="temperature times Boltzmann constant")
    run.add_argument("--cutoff", type=int, help="per-mode occupation cutoff")
    run.add_argument("--alpha", type=int, help="step/shift parameter where applicable")
    run.add_argument("--modes", type=int, help="number of modes (multimode suites)")
    run.add_argument("--qtype", choices=("I", "II", "III", "IV"))
    run.add_argument("--tol", dest="tolerance", type=float, help="tolerance floor")
    run.add_argument("--margin", type=_margin, help="safe-subspace margin or 'auto'")
    run.add_argument("--norm", choices=("spectral", "frobenius"))
    run.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                     default="text")
    run.add_argument("--out", help="write the report to this path instead of stdout")

    dump = sub.add_parser("dump-operator", help="print an operator in the text dump format")
    dump.add_argument("--op", required=True, choices=DUMP_FLAGS)
    dump.add_argument("--cutoff", type=int)
    dump.add_argument("--alpha", type=int, help="step threshold for theta")
    dump.add_argument("--qtype", choices=("I", "II", "III", "IV"))
    dump.add_argument("--q", type=float)
    dump.add_argument("--modes", type=int, help="rank N for rmatrix")
    dump.add_argument("--out")

    asym = sub.add_parser("asymptotics",
                          help="emit the shift-expectation asymptotics table as CSV")
    asym.add_argument("--z", action="append", required=True,
                      help="complex amplitude, e.g. 4, 2j, 1+2j (repeatable)")
    asym.add_argument("--cutoff", type=int, default=600)
    asym.add_argument("--out")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    config = SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)})
    report = run_suite(config)
    _emit(render_report(report, args.fmt), args.out)
    return 0 if report.overall_passed else 1


def _cmd_dump(args) -> int:
    given = {flag: getattr(args, flag) for flag in ("cutoff", "alpha", "qtype", "q", "modes")
             if getattr(args, flag) is not None}
    for flag in given:
        if flag not in DUMP_FLAGS[args.op]:
            raise ConfigError(f"--op {args.op} does not take --{flag}")
    v = {**DUMP_FLAGS[args.op], **given}
    if args.op == "rmatrix":
        if v["modes"] < 2:
            raise ConfigError(f"--op rmatrix needs --modes >= 2, got {v['modes']}")
        _emit(format_rmatrix(su_r_matrix(v["modes"], v["q"])), args.out)
        return 0
    if v["cutoff"] < 1:
        raise ConfigError(f"--cutoff must be >= 1, got {v['cutoff']}")
    space = make_space([v["cutoff"]])
    if args.op in ("a", "adag", "n"):
        triple = ladder(space, 1)
        op = {"a": triple.lower, "adag": triple.raise_, "n": triple.number}[args.op]
    elif args.op == "sqrtn":
        op = sqrt_number_operator(space, 1)
    elif args.op in ("e", "edag"):
        pair = phase_pair(space, 1)
        op = pair.lower if args.op == "e" else pair.raise_
    elif args.op == "theta":
        op = theta_operator(space, 1, v["alpha"])
    else:
        family = standard_qboson(v["qtype"], v["q"] * v["q"], v["cutoff"])
        op = family.lower if args.op == "qboson-lower" else family.raise_
    _emit(format_operator(op), args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    try:
        z_values = [complex(z) for z in args.z]
    except ValueError as exc:
        raise ConfigError(f"could not parse --z value: {exc}") from exc
    rows = phase_asymptotics(z_values, args.cutoff)
    _emit(asymptotics_csv(rows), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "dump-operator":
            return _cmd_dump(args)
        return _cmd_asymptotics(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

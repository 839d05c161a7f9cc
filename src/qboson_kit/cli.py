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
A flag the suite or the operator does not use exits 2, as does a size past
the dimension limit or past the memory at hand, naming the size flags.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields

from .densities import asymptotics_csv, phase_asymptotics
from .dump import format_operator, format_rmatrix
from .fock import ladder, make_space
from .multimode import RANK_LIMIT, su_r_matrix
from .phase import phase_pair, sqrt_number_operator, theta_operator
from .qboson import STANDARD_TYPES, standard_qboson
from .suites import SUITES, ConfigError, SuiteConfig, _refused, render_report, run_suite

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
    run.add_argument("--qtype", choices=STANDARD_TYPES)
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
    dump.add_argument("--qtype", choices=STANDARD_TYPES)
    dump.add_argument("--q", type=float)
    dump.add_argument("--modes", type=int, help="rank N for rmatrix")
    dump.add_argument("--out")

    asym = sub.add_parser("asymptotics",
                          help="emit the shift-expectation asymptotics table as CSV")
    asym.add_argument("--z", action="append", required=True,
                      help="complex amplitude, e.g. 4, 2j, 1+2j (repeatable)")
    asym.add_argument("--cutoff", type=int, default=600)
    asym.add_argument("--out")
    # "--z -2j" is a value, as argparse reads it from Python 3.13 on; before, only "-4" was.
    asym._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _emit(text: str, out: str | None, mode: str = "w") -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _cmd_run(args) -> int:
    config = SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)})
    if args.out:  # refuse an unwritable --out before the run, leaving an existing file as it is
        existed = os.path.lexists(args.out)
        _emit("", args.out, "a")
        if not existed:
            os.remove(args.out)
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
        if not 2 <= v["modes"] <= RANK_LIMIT:
            bound = ">= 2" if v["modes"] < 2 else f"<= {RANK_LIMIT}"
            raise ConfigError(f"--op rmatrix needs --modes {bound}, got {v['modes']}")
        if not 0.0 < v["q"] <= 1.0:
            raise ConfigError(f"--q must lie in (0, 1], got {v['q']}")
        _emit(format_rmatrix(su_r_matrix(v["modes"], v["q"])), args.out)
        return 0
    if v["cutoff"] < 1:
        raise ConfigError(f"--cutoff must be >= 1, got {v['cutoff']}")
    space = make_space([v["cutoff"]])
    if args.op in ("a", "adag", "n"):
        boson = ladder(space, 1)
        op = {"a": boson.lower, "adag": boson.raise_, "n": boson.number}[args.op]
    elif args.op == "sqrtn":
        op = sqrt_number_operator(space, 1)
    elif args.op in ("e", "edag"):
        pair = phase_pair(space, 1)
        op = pair.lower if args.op == "e" else pair.raise_
    elif args.op == "theta":
        if v["alpha"] < 0:
            raise ConfigError(f"--alpha must be >= 0, got {v['alpha']}")
        if v["alpha"] > v["cutoff"]:
            raise ConfigError(f"--op theta needs --alpha <= --cutoff {v['cutoff']}, "
                              f"got {v['alpha']}")
        op = theta_operator(space, 1, v["alpha"])
    else:
        q_squared = SuiteConfig("dump-operator", q=v["q"]).resolved_q_squared()  # as `run` refuses
        family = standard_qboson(v["qtype"], q_squared, v["cutoff"])
        op = family.lower if args.op == "qboson-lower" else family.raise_
    _emit(format_operator(op), args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    try:
        z_values = [complex(z) for z in args.z]
    except ValueError as exc:
        raise ConfigError(f"could not parse --z value: {exc}") from exc
    for text, z in zip(args.z, z_values):
        size = math.hypot(z.real, z.imag)  # abs(z) itself overflows past 1.8e308
        if not size >= 1:
            raise ConfigError(f"--z needs abs(z) >= 1, got {text}")
        if size > 1e150:  # past it, 4 abs(z)^2 overflows a float
            raise ConfigError(f"--z needs abs(z) <= 1e150, got {text}")
    text, z = max(zip(args.z, z_values), key=lambda pair: abs(pair[1]))
    # The least cutoff that phase_asymptotics' guard |z|^2 <= cutoff / 4 accepts.
    need = math.ceil(4 * abs(z) ** 2)
    if args.cutoff < need:
        raise ConfigError(f"asymptotics needs --cutoff >= {need} for --z {text}, "
                          f"got {args.cutoff}")
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
            with _refused(f"--op {args.op}", DUMP_FLAGS[args.op]):  # as run_suite words it
                return _cmd_dump(args)
        return _cmd_asymptotics(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

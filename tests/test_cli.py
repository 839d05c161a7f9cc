import errno
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qboson_kit import cli, ladder, make_space, su_r_matrix, suites
from qboson_kit.dump import format_operator, format_rmatrix, parse_operator_dump
from qboson_kit.qboson import precision_capped_cutoff
from qboson_kit.suites import (
    SUITE_FLAGS,
    SUITES,
    ConfigError,
    SuiteConfig,
    render_report,
    run_suite,
)

CLI = [sys.executable, "-m", "qboson_kit"]


def run_cli(*args, check=False):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, check=check)


# -- dump format -----------------------------------------------------------------

def test_operator_dump_round_trip():
    space = make_space([3, 2])
    a2 = ladder(space, 2).lower
    text = format_operator(a2)
    header = text.splitlines()[0]
    assert header == "dim 12 modes 2 cutoffs 3,2"
    meta, dense = parse_operator_dump(text)
    assert meta["cutoffs"] == (3, 2)
    np.testing.assert_array_equal(dense, a2.toarray())


def test_operator_dump_precision():
    space = make_space([4])
    text = format_operator(ladder(space, 1).lower)
    _, dense = parse_operator_dump(text)
    assert dense[1, 2] == np.sqrt(2)  # 17 significant digits survive the round trip


def test_rmatrix_dump_round_trip():
    r = su_r_matrix(3, 0.8)
    text = format_rmatrix(r)
    assert text.splitlines()[0] == f"rmatrix n 3 q {0.8:.17g}"
    meta, dense = parse_operator_dump(text)
    assert meta["n"] == 3
    np.testing.assert_array_equal(dense, r.entries)


# -- suite orchestration ------------------------------------------------------------

def test_run_suite_sorts_checks_and_aggregates():
    report = run_suite(SuiteConfig(suite="cuntz", cutoff=10))
    names = [c.name for c in report.checks]
    assert names == sorted(names)
    assert report.overall_passed == all(c.passed for c in report.checks)


def test_suite_config_q_resolution():
    assert SuiteConfig(suite="thermal", q=0.7071067811865476).resolved_q_squared() \
        == pytest.approx(0.5, abs=1e-12)
    assert SuiteConfig(suite="thermal", epsilon0=1.0,
                       kT=1.4426950408889634).resolved_q_squared() \
        == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        SuiteConfig(suite="thermal", q=0.5, epsilon0=1.0, kT=1.0).resolved_q_squared()
    with pytest.raises(ValueError):
        SuiteConfig(suite="thermal", epsilon0=1.0).resolved_q_squared()


def test_render_formats():
    report = run_suite(SuiteConfig(suite="rmatrix", modes=2))
    payload = json.loads(render_report(report, "json"))
    assert set(payload) == {"suite", "config", "checks", "overall_passed", "wall_time"}
    assert {"name", "relation", "measured", "expected", "residual", "tolerance",
            "tail_mass", "passed"} == set(payload["checks"][0])
    csv_text = render_report(report, "csv")
    assert csv_text.splitlines()[0] == ("name,relation,measured,expected,residual,"
                                        "tolerance,tail_mass,passed")
    text = render_report(report, "text")
    assert "overall: PASS" in text


# -- command line ---------------------------------------------------------------------

def test_cli_run_exit_zero_on_pass():
    proc = run_cli("run", "--suite", "cuntz", "--cutoff", "8", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["overall_passed"] is True
    assert payload["config"]["cutoff"] == 8


def test_cli_run_exit_nonzero_on_fail():
    # an absurdly tight tolerance forces a failing check and exit code 1
    proc = run_cli("run", "--suite", "cuntz", "--cutoff", "32",
                   "--tol", "1e-18", "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["overall_passed"] is False


def test_cli_config_error_exit_two():
    proc = run_cli("run", "--suite", "thermal", "--q", "0.5", "--epsilon0", "1",
                   "--kT", "1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_cli_rejects_bad_tolerance(tol):
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suite="thermal", tolerance=float(tol)))
    proc = run_cli("run", "--suite", "thermal", "--tol", tol, "--format", "json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--tol" in proc.stderr


@pytest.mark.parametrize("suite,flag,value,message", [
    ("multimode", "--modes", "1", "modes"),
    ("multimode", "--modes", "0", "modes"),
    ("chevalley", "--modes", "0", "modes"),
    ("rmatrix", "--modes", "0", "--modes"),
    ("rmatrix", "--modes", "1", "--modes"),
    ("cuntz", "--cutoff", "0", "cutoff"),
], ids=["multimode-modes-1", "multimode-modes-0", "chevalley-modes-0", "rmatrix-modes-0",
        "rmatrix-modes-1", "cuntz-cutoff-0"])
def test_cli_multimode_modes_validation(suite, flag, value, message):
    # A zero size is validated, not replaced by the suite's default.
    proc = run_cli("run", "--suite", suite, flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("flag,value", [("--cutoff", 5), ("--modes", 9),
                                        ("--alpha", 1), ("--qtype", "II")])
def test_cli_all_rejects_size_flags(flag, value):
    with pytest.raises(ConfigError, match=flag):
        run_suite(SuiteConfig(suite="all", **{flag[2:]: value}))
    proc = run_cli("run", "--suite", "all", flag, str(value), "--format", "json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag in proc.stderr


@pytest.mark.parametrize("qtype", ["I", "II", "III", "IV"])
def test_cli_qboson_cutoff_below_two_is_rejected(qtype):
    # The precision cap lowers a growing family's cutoff but never raises it.
    assert precision_capped_cutoff(0.5, qtype, 1, 1e-10) == 1
    proc = run_cli("run", "--suite", "qboson", "--qtype", qtype, "--cutoff", "1",
                   "--format", "json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--cutoff >= 2" in proc.stderr


RUN_FLAGS = ("--q", "--epsilon0", "--kT", "--cutoff", "--modes", "--alpha", "--qtype",
             "--tol", "--margin", "--norm")


def _honoured_args(flag: str, default) -> list[str]:
    """Arguments that give `flag` a valid value; --epsilon0 and --kT come as a pair."""
    if flag in ("--epsilon0", "--kT"):
        return ["--epsilon0", "1", "--kT", "2"]
    value = {"--q": "0.6", "--tol": "1e-9", "--margin": "3", "--norm": "frobenius"}.get(flag)
    if value is None:  # a size next to the suite's default, so the run stays small
        value = str(default[-1] if isinstance(default, tuple) else default - 1)
    return [flag, value]


@pytest.mark.parametrize("flag", RUN_FLAGS)
@pytest.mark.parametrize("suite", SUITES)
def test_run_flag_is_honoured_or_rejected(suite, flag, capsys):
    # No flag is accepted and then ignored: it runs and is echoed, or it exits 2.
    flags = SUITE_FLAGS[suite]
    key = {"--q": "q_squared", "--epsilon0": "q_squared", "--kT": "q_squared",
           "--tol": "tolerance"}.get(flag, flag[2:])
    if key not in flags:
        value = {"--qtype": "II", "--norm": "frobenius"}.get(flag, "3")
        code = cli.main(["run", "--suite", suite, flag, value, "--format", "json"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == f"error: --suite {suite} does not take {flag}\n"
        return
    args = _honoured_args(flag, flags[key])
    assert cli.main(["run", "--suite", suite, *args, "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    for name, value in zip(args[::2], args[1::2]):
        echoed = config["tolerance" if name == "--tol" else name[2:]]
        if isinstance(echoed, list):  # a list-valued size runs the one value given
            assert echoed == [type(echoed[0])(value)]
        else:
            assert echoed == type(echoed)(value)


def test_cli_thermal_temperature_source():
    proc = run_cli("run", "--suite", "thermal", "--epsilon0", "1.0",
                   "--kT", "1.4426950408889634", "--cutoff", "80",
                   "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    check = next(c for c in payload["checks"] if c["name"] == "thermal/mean-occupation")
    assert check["expected"] == pytest.approx(1.0, abs=1e-9)
    assert check["passed"]


def test_cli_qboson_from_temperature_pair():
    proc = run_cli("run", "--suite", "qboson", "--qtype", "II",
                   "--epsilon0", "1", "--kT", "1.4427", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    check = next(c for c in payload["checks"]
                 if c["name"] == "qboson/defining-relation-II")
    assert check["residual"] < 1e-12


def test_cli_qboson_qtype_filter():
    proc = run_cli("run", "--suite", "qboson", "--qtype", "II", "--q",
                   "0.7071067811865476", "--format", "json")
    payload = json.loads(proc.stdout)
    names = {c["name"] for c in payload["checks"]}
    assert "qboson/defining-relation-II" in names
    assert not any("-I" in n and "-II" not in n and "-III" not in n and "-IV" not in n
                   for n in names)


def test_cli_dump_operator():
    proc = run_cli("dump-operator", "--op", "a", "--cutoff", "3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "dim 4 modes 1 cutoffs 3"
    assert len(lines) == 4  # three nonzero amplitudes


def test_cli_dump_rmatrix():
    proc = run_cli("dump-operator", "--op", "rmatrix", "--modes", "2", "--q", "0.5")
    meta, dense = parse_operator_dump(proc.stdout)
    assert meta == {"kind": "rmatrix", "n": 2, "q": 0.5}
    np.testing.assert_array_equal(dense, su_r_matrix(2, 0.5).entries)


def test_cli_dump_theta_and_qboson():
    proc = run_cli("dump-operator", "--op", "theta", "--cutoff", "5", "--alpha", "2")
    _, dense = parse_operator_dump(proc.stdout)
    np.testing.assert_array_equal(np.diag(dense).real, [0, 0, 1, 1, 1, 1])
    proc = run_cli("dump-operator", "--op", "qboson-lower", "--qtype", "III",
                   "--q", "0.5", "--cutoff", "4")
    _, dense = parse_operator_dump(proc.stdout)
    assert dense[0, 1] == np.sqrt(1 - 0.25)  # sqrt(beta(1)) with q^2 = 0.25


@pytest.mark.parametrize("flag,value", [("--cutoff", "5"), ("--alpha", "1"), ("--qtype", "II"),
                                        ("--q", "0.5"), ("--modes", "3")])
@pytest.mark.parametrize("op", cli.DUMP_FLAGS)
def test_dump_flag_is_used_or_rejected(op, flag, value, capsys):
    code = cli.main(["dump-operator", "--op", op, flag, value])
    out = capsys.readouterr()
    if flag[2:] in cli.DUMP_FLAGS[op]:
        assert code == 0
        assert out.out and out.err == ""
    else:
        assert code == 2
        assert out.out == ""
        assert out.err == f"error: --op {op} does not take {flag}\n"


@pytest.mark.parametrize("args,message", [
    (["--op", "rmatrix", "--modes", "1"], "--op rmatrix needs --modes >= 2, got 1"),
    (["--op", "a", "--cutoff", "0"], "--cutoff must be >= 1, got 0"),
    (["--op", "qboson-raise", "--cutoff", "-1"], "--cutoff must be >= 1, got -1"),
    (["--op", "theta", "--alpha", "-1"], "--alpha must be >= 0, got -1"),
    (["--op", "theta", "--alpha", "17"], "--op theta needs --alpha <= --cutoff 16, got 17"),
    (["--op", "qboson-lower", "--q", "1.5"], "--q must lie in (0, 1), got 1.5"),
    (["--op", "rmatrix", "--q", "1.5"], "--q must lie in (0, 1], got 1.5"),
    (["--op", "rmatrix", "--modes", "57"], "--op rmatrix needs --modes <= 56, got 57"),
    # Type II's rhs q^(-n) passes the overflow guard below cutoff 100, as in a run.
    (["--op", "qboson-lower", "--qtype", "II", "--q", "0.01", "--cutoff", "100"],
     "--op qboson-lower needs a larger --q or a smaller --cutoff: rhs(n) passes the 1e+300 "
     "guard by cutoff 100"),
    # A cutoff past the dimension limit is refused before any array is built.
    *((["--op", op, "--cutoff", "20000000"],
       f"--op {op} needs a smaller --cutoff: dimension 20000001+ exceeds limit 10000000 for "
       "cutoffs (20000000,)") for op in ("a", "theta", "qboson-raise")),
])
def test_dump_size_error_names_the_flag(args, message, capsys):
    assert cli.main(["dump-operator", *args]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


# numpy's text for an allocation past the address space, as `_ArrayMemoryError` words it.
NO_MEMORY = ("Unable to allocate 153. MiB for an array with shape (10000000,) and data type "
             "complex128")


@pytest.mark.parametrize("module,builder,args,message", [
    (suites, "recipe_relations", ["run", "--suite", "recipe"],
     "the recipe suite needs a smaller --cutoff"),
    (suites, "thermal_density", ["run", "--suite", "all"],
     "the thermal suite needs a smaller --cutoff"),
    (suites.mm, "covariant_check", ["run", "--suite", "multimode"],
     "the multimode suite needs a smaller --modes or --cutoff"),
    (cli, "ladder", ["dump-operator", "--op", "a"], "--op a needs a smaller --cutoff"),
    (cli, "su_r_matrix", ["dump-operator", "--op", "rmatrix"],
     "--op rmatrix needs a smaller --modes"),
])
def test_out_of_memory_exits_2_naming_the_size_flags(module, builder, args, message, monkeypatch,
                                                     capsys):
    """A size the dimension limit admits can still pass the memory at hand (recipe
    --cutoff 9999999 needs about 2.8 GB): numpy's MemoryError exits 2 with one error line
    that names the suite's or the op's size flags, followed by numpy's text."""
    def exhausted(*args, **kwargs):
        raise MemoryError(NO_MEMORY)

    monkeypatch.setattr(module, builder, exhausted)
    assert cli.main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}: out of memory: {NO_MEMORY}\n"


@pytest.mark.parametrize("args,message", [
    (["--suite", "thermal", "--cutoff", "1"], "the thermal suite needs --cutoff >= 3, got 1"),
    (["--suite", "thermal", "--cutoff", "2"], "the thermal suite needs --cutoff >= 3, got 2"),
    (["--suite", "recipe", "--cutoff", "2"],
     "the recipe suite needs a larger --cutoff: tail mass 0.125 exceeds budget 1e-06 at "
     "cutoff 2 of the averaged mode"),
    (["--suite", "multimode", "--cutoff", "1"], "the multimode suite needs --cutoff >= 2, got 1"),
    (["--suite", "chevalley", "--cutoff", "2"], "the chevalley suite needs --cutoff >= 3, got 2"),
    (["--suite", "cuntz", "--cutoff", "2"], "the cuntz suite needs --cutoff >= 3, got 2"),
    # A margin the user set is what is too large, so the message names it.
    (["--suite", "cuntz", "--cutoff", "2", "--margin", "2"], "margin 2 >= smallest cutoff 2"),
    (["--suite", "alpha", "--cutoff", "4"], "the alpha suite needs --cutoff >= 5, got 4"),
    (["--suite", "alpha", "--alpha", "1", "--cutoff", "2"],
     "the alpha suite needs --cutoff >= 3, got 2"),
    (["--suite", "alpha", "--alpha", "0", "--cutoff", "2"],
     "the alpha suite needs --cutoff >= 3, got 2"),
    (["--suite", "alpha", "--alpha", "-1"], "--alpha must be >= 0, got -1"),
    (["--suite", "coherent", "--cutoff", "15"], "the coherent suite needs --cutoff >= 31, got 15"),
    (["--suite", "asymptotics", "--cutoff", "575"],
     "the asymptotics suite needs --cutoff >= 576, got 575"),
    (["--suite", "coherent", "--cutoff", "30"], "the coherent suite needs --cutoff >= 31, got 30"),
    (["--suite", "multimode", "--modes", "1"], "the multimode suite needs --modes >= 2, got 1"),
    (["--suite", "chevalley", "--modes", "1"], "the chevalley suite needs --modes >= 2, got 1"),
    (["--suite", "rmatrix", "--modes", "1"], "the rmatrix suite needs --modes >= 2, got 1"),
    (["--suite", "rmatrix", "--modes", "57"], "the rmatrix suite needs --modes <= 56, got 57"),
    (["--suite", "multimode", "--modes", "9", "--cutoff", "4"],
     "the multimode suite holds 132 operators of (cutoff + 1)^modes entries at once, more "
     "than 45000000 in all: got --modes 9 --cutoff 4"),
    (["--suite", "multimode", "--modes", "2", "--cutoff", "1500"],
     "the multimode suite holds 20 operators of (cutoff + 1)^modes entries at once, more "
     "than 45000000 in all: got --modes 2 --cutoff 1500"),
    (["--suite", "multimode", "--modes", "1000000000", "--cutoff", "2"],
     "the multimode suite holds 1000000005000000006 operators of (cutoff + 1)^modes entries "
     "at once, more than 45000000 in all: got --modes 1000000000 --cutoff 2"),
    (["--suite", "chevalley", "--modes", "9", "--cutoff", "4"],
     "the chevalley suite holds 103 operators of (cutoff + 1)^modes entries at once, more "
     "than 45000000 in all: got --modes 9 --cutoff 4"),
    # At cutoff 1 the shifted gauge's alpha 2 also exceeds the cutoff; the tail is named.
    (["--suite", "recipe", "--cutoff", "1"],
     "the recipe suite needs a larger --cutoff: tail mass 0.25 exceeds budget 1e-06 at "
     "cutoff 1 of the averaged mode"),
    # Where the tail fits, a cutoff at or below the largest vacuum shift (2) is refused
    # before the average, whose <e(2) e+(2)> would be 0 there.
    (["--suite", "recipe", "--q", "0.01", "--cutoff", "2"],
     "the recipe suite needs a larger --cutoff: vacuum shift 2 needs cutoff >= 3, got 2"),
    (["--suite", "recipe", "--q", "0.01", "--cutoff", "1"],
     "the recipe suite needs a larger --cutoff: vacuum shift 2 needs cutoff >= 3, got 1"),
    (["--suite", "recipe", "--cutoff", "0"], "the recipe suite needs --cutoff >= 1, got 0"),
    (["--suite", "recipe", "--cutoff", "-3"], "the recipe suite needs --cutoff >= 1, got -3"),
    # A cutoff past the dimension limit is refused before any array is built; the recipe
    # counts its averaged mode alone.
    *((["--suite", suite, "--cutoff", "20000000"],
       f"the {suite} suite needs a smaller --cutoff: dimension 20000001+ exceeds limit "
       "10000000 for cutoffs (20000000,)")
      for suite in ("thermal", "cuntz", "qboson", "alpha", "coherent", "asymptotics")),
    (["--suite", "recipe", "--cutoff", "10000000"],
     "the recipe suite needs a smaller --cutoff: dimension 10000001+ exceeds limit 10000000 "
     "for cutoffs (10000000,)"),
    # A q^2 that underflows to 0 or rounds to 1 is refused naming the flags given.
    (["--suite", "thermal", "--q", "1e-170"],
     "q^2 from --q 1e-170 is 0.0 in floating point, outside (0, 1)"),
    (["--suite", "all", "--epsilon0", "1000", "--kT", "1"],
     "q^2 from --epsilon0 1000.0 --kT 1.0 is 0.0 in floating point, outside (0, 1)"),
    (["--suite", "qboson", "--epsilon0", "1e-20", "--kT", "1"],
     "q^2 from --epsilon0 1e-20 --kT 1.0 is 1.0 in floating point, outside (0, 1)"),
    (["--suite", "thermal", "--epsilon0", "nan", "--kT", "1"],
     "--epsilon0 and --kT must be positive, got nan and 1.0"),
    (["--suite", "thermal", "--q", "1.5"], "--q must lie in (0, 1), got 1.5"),
    # Type II's round-off at cutoff 2, eps q^-2 = 2.2e-6, passes --tol; at --q 0.001 that
    # of types II and IV, 2.2e-10, does too.
    (["--suite", "qboson", "--qtype", "II", "--q", "1e-5"],
     "the qboson suite cannot hold --tol 1e-10 for type II at --q 1e-05, even at cutoff 2"),
    (["--suite", "qboson", "--q", "0.001"],
     "the qboson suite cannot hold --tol 1e-10 for type II, IV at --q 0.001, even at cutoff 2"),
    # The symmetric variant's type-II rhs q^(-n) passes the overflow guard below cutoff 6.
    (["--suite", "chevalley", "--q", "1e-60", "--modes", "2"],
     "the chevalley suite needs a larger --q or a smaller --cutoff: rhs(n) passes the 1e+300 "
     "guard by cutoff 6"),
    # The R-matrix coupling q - 1/q, cubed, overflows the Yang-Baxter products; no cutoff
    # helps, so only --q is named.
    (["--suite", "rmatrix", "--q", "1e-120", "--modes", "3"],
     "the rmatrix suite needs a larger --q: R12 R13 R23 - R23 R13 R12 is not finite at "
     "q = 1e-120"),
    (["--suite", "multimode", "--q", "1e-150", "--modes", "3", "--cutoff", "4"],
     "the multimode suite needs a larger --q: R12 R13 R23 - R23 R13 R12 is not finite at "
     "q = 1e-150"),
])
def test_run_size_error_names_the_flag(args, message, capsys):
    assert cli.main(["run", *args]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_tiny_q_float_overflow_in_a_run_names_q(capsys):
    """At --q 1e-100 the recipe's q^2 to the power -2 leaves the float range whatever the
    cutoff, so the refusal names --q and keeps Python's own text after it."""
    assert cli.main(["run", "--suite", "recipe", "--q", "1e-100"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: the recipe suite needs a larger --q: ")


@pytest.mark.parametrize("args,code", [
    (["--suite", "qboson", "--q", "0.005"], 0),
    (["--suite", "qboson", "--q", "0.0015"], 0),
    (["--suite", "all", "--q", "0.05"], 1),  # two chevalley ef-bracket-best rows fail
])
def test_small_q_runs_whose_cutoff_two_holds_tol_are_not_refused(args, code, capsys):
    """Where cutoff 2's round-off eps q^-2 stays below --tol the qboson rows run and pass
    (at --q 0.0015 it is 9.9e-11), and the exit code is what the rest of the run gives."""
    assert cli.main(["run", *args, "--format", "json"]) == code
    checks = json.loads(capsys.readouterr().out)["checks"]
    qboson = [c for c in checks if c["name"].startswith("qboson/")]
    assert len(qboson) == 8 and all(c["passed"] for c in qboson)


@pytest.mark.parametrize("args,message", [
    (["run", "--suite", "rmatrix", "--modes", "57"], "the rmatrix suite needs --modes <= 56, got 57"),
    (["dump-operator", "--op", "rmatrix", "--modes", "300"],
     "--op rmatrix needs --modes <= 56, got 300"),
])
def test_rmatrix_rank_error_under_one_gib(args, message):
    """Ranks past the dense R-matrix bound exit 2 with the flag named before R is built
    (169 MB at 57, 121 GiB at 300), also with 1 GiB of address space."""
    assert_size_error_under_one_gib(args, message)


@pytest.mark.parametrize("args,message", [
    (["run", "--suite", "multimode", "--modes", "13", "--cutoff", "2"],
     "the multimode suite holds 240 operators of (cutoff + 1)^modes entries at once, more "
     "than 45000000 in all: got --modes 13 --cutoff 2"),
    (["run", "--suite", "chevalley", "--modes", "11", "--cutoff", "3"],
     "the chevalley suite holds 147 operators of (cutoff + 1)^modes entries at once, more "
     "than 45000000 in all: got --modes 11 --cutoff 3"),
])
def test_held_operators_error_under_one_gib(args, message):
    """Sizes whose operators would need about 6 GB (multimode N=13, cutoff 2) or
    10 GB (chevalley N=11, cutoff 3) exit 2 with the flags named before anything is
    built, also with 1 GiB of address space."""
    assert_size_error_under_one_gib(args, message)


def assert_size_error_under_one_gib(args, message):
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(CLI + args, capture_output=True, text=True,
                          preexec_fn=limit_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("suite,modes,cutoff", [
    ("multimode", 7, 4), ("multimode", 8, 4), ("multimode", 2, 1499), ("chevalley", 8, 4)])
def test_held_operators_bound_admits_the_scale_points(suite, modes, cutoff, monkeypatch):
    """These sizes pass the size checks and reach the builders (stopped there: multimode
    N=8 at cutoff 4 alone takes about 2 s and 0.38 GB)."""
    class Admitted(Exception):
        pass

    def stop(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(suites.mm, "covariant_check", stop)
    monkeypatch.setattr(suites.mm, "chevalley_check", stop)
    with pytest.raises(Admitted):
        next(suites.SUITE_TABLE[suite].build(q_squared=0.5, modes=modes, cutoff=cutoff,
                                             norm="spectral"))


def test_tiny_q_chevalley_run_warns_of_no_overflow_outside_its_safe_blocks():
    """At --q 1e-80 products and [H_i] overflow outside the margin-2 safe blocks, where
    they are discarded: under -W error the run prints nothing on stderr and its checks
    keep their bits (the SHA-256 of json.dumps(checks, sort_keys=True) begins as below)."""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", *CLI[1:], "run",
                           "--suite", "chevalley", "--q", "1e-80", "--modes", "2",
                           "--cutoff", "3", "--format", "json"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    checks = json.dumps(json.loads(proc.stdout)["checks"], sort_keys=True)
    assert hashlib.sha256(checks.encode()).hexdigest()[:16] == "5ab26ece6326adce"


def test_run_huge_tolerance_needs_no_precision_cap():
    proc = run_cli("run", "--suite", "qboson", "--tol", "1e300", "--format", "json")
    assert proc.returncode == 0
    assert proc.stderr == ""
    relations = {c["name"]: c["relation"] for c in json.loads(proc.stdout)["checks"]}
    assert relations["qboson/defining-relation-II"].endswith("at cutoff 24")


def test_import_needs_numpy_only():
    probe = ("import sys, qboson_kit; "
             "print(sorted(m for m in ('scipy.sparse', 'scipy.stats') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"


def test_runtime_needs_no_scipy():
    """Every CLI command and the coherent density run with scipy unimportable."""
    probe = """
import sys
sys.modules["scipy"] = None
from qboson_kit import cli, coherent_density, make_space
assert cli.main(["run", "--suite", "all"]) == 0
for op in cli.DUMP_FLAGS:
    assert cli.main(["dump-operator", "--op", op]) == 0
assert cli.main(["asymptotics", "--z", "4"]) == 0
coherent_density(make_space([60]), 1, 2.0)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Each file holds the output of `python -m qboson_kit dump-operator <args>`.  The
# ops are those whose entries come from IEEE-exact arithmetic only (sqrt, +, *,
# /), so the bytes do not depend on the platform's libm; types II and IV use pow
# and are left out.
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_DUMPS = {
    "a": ["--op", "a"],
    "adag": ["--op", "adag"],
    "n": ["--op", "n"],
    "sqrtn": ["--op", "sqrtn"],
    "e": ["--op", "e"],
    "edag": ["--op", "edag"],
    "theta-alpha3": ["--op", "theta", "--alpha", "3"],
    "qboson-lower-I": ["--op", "qboson-lower", "--qtype", "I"],
    "qboson-raise-I": ["--op", "qboson-raise", "--qtype", "I"],
    "qboson-lower-III": ["--op", "qboson-lower", "--qtype", "III"],
    "qboson-raise-III": ["--op", "qboson-raise", "--qtype", "III"],
    "rmatrix-modes2": ["--op", "rmatrix", "--modes", "2"],
    "rmatrix-modes3": ["--op", "rmatrix", "--modes", "3"],
}


@pytest.mark.parametrize("name", GOLDEN_DUMPS)
def test_dump_matches_golden_file(name, capsys):
    assert cli.main(["dump-operator", *GOLDEN_DUMPS[name]]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / f"{name}.txt").read_bytes()


# Each file holds the `checks` of `python -m qboson_kit run <args> --format json`,
# as JSON with indent 2 and sorted keys: "report checks are byte-identical" as a test.
GOLDEN_REPORTS = {
    "checks-all": ["--suite", "all"],
    "checks-recipe-cutoff400": ["--suite", "recipe", "--cutoff", "400"],
    "checks-multimode-modes4-cutoff6": ["--suite", "multimode", "--modes", "4", "--cutoff", "6"],
    "checks-multimode-modes6-cutoff4": ["--suite", "multimode", "--modes", "6", "--cutoff", "4"],
}


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_report_checks_match_golden_file(name, capsys):
    assert cli.main(["run", *GOLDEN_REPORTS[name], "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    text = json.dumps(checks, indent=2, sort_keys=True) + "\n"
    assert text.encode() == (GOLDEN_DIR / f"{name}.json").read_bytes()


def test_cli_asymptotics_csv():
    proc = run_cli("asymptotics", "--z", "4", "--z", "2j", "--cutoff", "600")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("z_re,z_im,exact_re")
    assert len(lines) == 3


@pytest.mark.parametrize("args,message", [
    (["--z", "4", "--cutoff", "10"], "asymptotics needs --cutoff >= 64 for --z 4, got 10"),
    (["--z", "2j", "--z", "1+2j", "--cutoff", "20"],
     "asymptotics needs --cutoff >= 21 for --z 1+2j, got 20"),
    (["--z", "0.5"], "--z needs abs(z) >= 1, got 0.5"),
    (["--z", "4x"], "could not parse --z value: complex() arg is a malformed string"),
])
def test_asymptotics_error_names_the_flag(args, message, capsys):
    assert cli.main(["asymptotics", *args]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("z", ["inf", "1e200"])
def test_asymptotics_overflowing_z_exits_two(z, capsys):
    """No cutoff is large enough, and 4 abs(z)^2 would overflow: the message names --z."""
    assert cli.main(["asymptotics", "--z", z]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --z needs abs(z) <= 1e150, got {z}\n"


@pytest.mark.parametrize("z", [["-2j"], ["-1+2j"], ["-4"], ["4", "-.5+3j"]])
def test_asymptotics_takes_a_negative_z_after_a_space(z, capsys):
    """`--z -2j` gives the CSV bytes of `--z=-2j`: a value, not an unknown option."""
    assert cli.main(["asymptotics", *[a for v in z for a in ("--z", v)], "--cutoff", "64"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(["asymptotics", *[f"--z={v}" for v in z], "--cutoff", "64"]) == 0
    assert capsys.readouterr().out.encode() == spaced.encode()
    assert spaced.count("\n") == len(z) + 1


def test_cli_asymptotics_out_file(tmp_path):
    target = tmp_path / "rows.csv"
    proc = run_cli("asymptotics", "--z", "5", "--out", str(target))
    assert proc.returncode == 0
    assert target.read_text().startswith("z_re,")


@pytest.mark.parametrize("command", [["run", "--suite", "cuntz"],
                                     ["dump-operator", "--op", "a"],
                                     ["asymptotics", "--z", "4"]])
def test_unwritable_out_exits_two(command, tmp_path, capsys):
    """A path that cannot be opened for writing exits 2 with the reason, not a traceback."""
    for target, code in ((tmp_path / "missing" / "x.json", errno.ENOENT), (tmp_path, errno.EISDIR)):
        assert cli.main([*command, "--out", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: cannot write --out {target}: {os.strerror(code)}\n"


def test_unwritable_out_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("run_suite called with an unwritable --out")

    monkeypatch.setattr(cli, "run_suite", no_run)
    target = tmp_path / "missing" / "x.json"
    assert cli.main(["run", "--suite", "cuntz", "--out", str(target)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write --out {target}: {os.strerror(errno.ENOENT)}\n"


def test_failed_run_leaves_out_as_it_was(tmp_path, capsys):
    """A run that fails after the --out check neither truncates an existing file nor
    leaves a new one behind."""
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier report\n")
    for target in (kept, fresh):
        assert cli.main(["run", "--suite", "cuntz", "--q", "0.5", "--out", str(target)]) == 2
        assert capsys.readouterr().err == "error: --suite cuntz does not take --q\n"
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_cli_run_csv_format():
    proc = run_cli("run", "--suite", "rmatrix", "--modes", "2", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("name,relation")

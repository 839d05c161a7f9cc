import json
import subprocess
import sys

import numpy as np
import pytest

from qboson_kit import ladder, make_space, su_r_matrix
from qboson_kit.dump import format_operator, format_rmatrix, parse_operator_dump
from qboson_kit.suites import ConfigError, SuiteConfig, render_report, run_suite

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


def test_cli_multimode_modes_validation():
    proc = run_cli("run", "--suite", "multimode", "--modes", "1")
    assert proc.returncode == 2
    assert "modes" in proc.stderr


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


def test_cli_asymptotics_csv():
    proc = run_cli("asymptotics", "--z", "4", "--z", "2j", "--cutoff", "600")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("z_re,z_im,exact_re")
    assert len(lines) == 3


def test_cli_asymptotics_out_file(tmp_path):
    target = tmp_path / "rows.csv"
    proc = run_cli("asymptotics", "--z", "5", "--out", str(target))
    assert proc.returncode == 0
    assert target.read_text().startswith("z_re,")


def test_cli_run_csv_format():
    proc = run_cli("run", "--suite", "rmatrix", "--modes", "2", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("name,relation")

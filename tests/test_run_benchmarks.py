"""The exit checks of the smoke harness, ``benchmarks/run_benchmarks.py``.

``main`` writes the report where ``--output`` points and exits 1 on the
first check a suite's summary fails, naming that check on stderr.  Here
the suites are replaced by a canned report, so these tests pin the gate
set, not the lanes' figures.
"""

import copy
import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "run_benchmarks.py",
)

#: A report every check passes, shaped like ``run``'s summary block.
PASSING = {
    "schema_version": 8,
    "cpus": 2,
    "config": {"repeats": 3, "smoke": True},
    "suites": {},
    "summary": {
        "membership": {
            "median_speedup_cold": 1.0,
            "median_speedup_warm": 90.0,
            "all_agree": True,
        },
        "catalog": {
            "median_speedup_cold": 36.0,
            "median_speedup_warm": 230.0,
            "all_agree": True,
            "parallel": {"catalog16_parallel": 0.4},
            "all_parallel_identical": True,
        },
        "service": {
            "all_identical": True,
            "tracing": {"trace_overhead_ratio": 1.0, "trace_overhead_ok": True},
            "sampling": {
                "sampler_overhead_ratio": 0.96,
                "sampler_overhead_ok": True,
                "retention_ok": True,
                "ledger_exact": True,
            },
        },
    },
}

#: (suite, section or None, flag): the seven flags behind the six checks.
FLAGS = [
    ("membership", None, "all_agree"),
    ("catalog", None, "all_parallel_identical"),
    ("service", None, "all_identical"),
    ("service", "tracing", "trace_overhead_ok"),
    ("service", "sampling", "sampler_overhead_ok"),
    ("service", "sampling", "retention_ok"),
    ("service", "sampling", "ledger_exact"),
]


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("run_benchmarks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(harness, monkeypatch, tmp_path, report):
    calls = []

    def canned(repeats, smoke):
        calls.append((repeats, smoke))
        return report

    monkeypatch.setattr(harness, "run", canned)
    output = tmp_path / "report.json"
    status = harness.main(["--smoke", "--output", str(output)])
    return status, calls, json.loads(output.read_text())


def test_passing_report_exits_zero(harness, monkeypatch, tmp_path, capsys):
    status, calls, written = _main(harness, monkeypatch, tmp_path, PASSING)
    assert status == 0
    assert calls == [(harness.SMOKE_REPEATS, True)]
    assert written == PASSING
    assert "ERROR" not in capsys.readouterr().err


@pytest.mark.parametrize("suite,section,flag", FLAGS)
def test_each_failing_flag_exits_one_naming_its_check(
    harness, monkeypatch, tmp_path, capsys, suite, section, flag
):
    report = copy.deepcopy(PASSING)
    entry = report["summary"][suite]
    (entry if section is None else entry[section])[flag] = False
    status, _, written = _main(harness, monkeypatch, tmp_path, report)
    assert status == 1
    assert written == report  # the report is written before the checks run
    errors = [line for line in capsys.readouterr().err.splitlines() if "ERROR" in line]
    assert len(errors) == 1 and flag in errors[0]

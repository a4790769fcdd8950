"""bench/compare.py on synthetic records: exit 0 when clean, exit 1 with a named ERROR line."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[1] / "bench" / "compare.py"


def _run(workload, trace, items_per_s=1000.0):
    metrics = {"items_per_s": items_per_s, "setup_s": 0.2, "peak_rss_mb": 40.0}
    return {
        "workload": workload,
        "trace": trace,
        "exit_code": 0,
        "stderr": "",
        "report": {"digests": ["aa", "bb"], "checks": []},
        "result": {
            "attempted": 10,
            "failed": 0,
            "correct": True,
            "metrics": {name: {"value": value} for name, value in metrics.items()},
        },
    }


BASE = {"seconds": 25, "seed": None, "runs": [_run("eo", 0), _run("eo", 1)]}


def _compare(tmp_path, new):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(BASE))
    new_path.write_text(json.dumps(new))
    proc = subprocess.run(
        [sys.executable, str(COMPARE), str(old_path), str(new_path)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, [line for line in proc.stdout.splitlines() if line.startswith("ERROR")]


def test_identical_records_pass(tmp_path):
    code, errors = _compare(tmp_path, BASE)
    assert (code, errors) == (0, [])


def test_a_drop_inside_the_bound_passes(tmp_path):
    new = copy.deepcopy(BASE)
    new["runs"][0]["result"]["metrics"]["items_per_s"]["value"] = 760.0
    assert _compare(tmp_path, new) == (0, [])


def _digest(run):
    run["report"]["digests"][1] = "cc"


def _failed(run):
    run["result"]["failed"] = 1


def _incorrect(run):
    run["result"]["correct"] = False
    run["report"]["checks"] = ["layer self times cover 0.9 of the traced wall time"]


def _slower(run):
    run["result"]["metrics"]["items_per_s"]["value"] = 740.0


def _crashed(run):
    run["exit_code"] = 1
    run["result"] = None
    run["stderr"] = "Traceback: boom"


@pytest.mark.parametrize(
    "spoil, expected",
    [
        (_digest, "ERROR eo trace=0: digests differ in batches [1] of 2"),
        (_failed, "ERROR NEW eo trace=0: failed 1 of 10"),
        (_incorrect, "ERROR NEW eo trace=0: correct false, checks "
                     "['layer self times cover 0.9 of the traced wall time']"),
        (_slower, "ERROR eo items_per_s: 1000 -> 740, worse than its bound 0.25"),
        (_crashed, "ERROR NEW eo trace=0: exit 1, no result: Traceback: boom"),
    ],
)
def test_each_problem_fails_with_its_error(tmp_path, spoil, expected):
    new = copy.deepcopy(BASE)
    spoil(new["runs"][0])
    code, errors = _compare(tmp_path, new)
    assert (code, errors) == (1, [expected])


def test_a_run_in_only_one_record_fails(tmp_path):
    new = copy.deepcopy(BASE)
    del new["runs"][1]
    code, errors = _compare(tmp_path, new)
    assert (code, errors) == (1, ["ERROR eo trace=1: in OLD only"])

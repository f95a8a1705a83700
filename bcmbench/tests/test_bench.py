"""Tests of the benchmark itself, on a tiny grid.

Run from the repository root:  python3 -m pytest bcmbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import run  # noqa: E402
from tracer import self_times  # noqa: E402

# experiment 1 on a coarse grid: about 11% rel_l2 in about a second
TINY = {"dx": 1.0 / 50, "dt": 1.0 / 500, "T": 3.0, "N": 4, "tol": 0.2}
TINY_EXP1 = dict(run.WORKLOADS["exp1"], **TINY)
TINY_CHECKS = {"kind": "checks", "checks": ["identity"]}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure_tiny(tmp_path_factory, trace):
    work = tmp_path_factory.mktemp("tiny")
    spec = run.workload_spec("exp1", seed=7, base=TINY_EXP1)
    return run.measure(spec, seconds=0, trace=trace, work_dir=work), work


@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory):
    return _measure_tiny(tmp_path_factory, trace=True)


def _assert_metrics(line, declared):
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


def test_every_named_metric_is_emitted_with_its_unit(tmp_path_factory, traced_tiny):
    result, _ = _measure_tiny(tmp_path_factory, trace=False)
    assert result["failed"] == 0
    untraced = run.result_line(result, trace=False)
    _assert_metrics(untraced, BENCHMARK["end_to_end"])
    for m in BENCHMARK["end_to_end"]:
        assert untraced["metrics"][m["name"]]["value"] > 0
    result, _ = traced_tiny
    assert result["failed"] == 0
    traced = run.result_line(result, trace=True)
    _assert_metrics(traced, BENCHMARK["per_layer"])
    assert traced["metrics"]["trace.overhead_s"]["value"] > 0


def test_checks_workload_emits_every_per_layer_metric(tmp_path):
    spec = run.workload_spec("checks", seed=0, base=TINY_CHECKS)
    result = run.measure(spec, seconds=0, trace=True, work_dir=tmp_path)
    # the two table rows of check identity
    assert result["failed"] == 0 and result["attempted"] == 2
    line = run.result_line(result, trace=True)
    _assert_metrics(line, BENCHMARK["per_layer"])
    assert line["metrics"]["identity.nonlinear.calls"]["value"] == 1
    assert line["metrics"]["identity_residual"]["value"] > 0


def test_noisy_workload_uses_its_seed_and_repeats_it(tmp_path):
    base = dict(run.WORKLOADS["exp2_noisy_cfl1"], **TINY)
    rel = {}
    for seed in (1, 2):
        spec = run.workload_spec("exp2_noisy_cfl1", seed=seed, base=base)
        assert spec["seed"] == seed
        result = run.measure(spec, seconds=0, trace=False,
                             work_dir=tmp_path / str(seed))
        # two runs with the seed, equal coefficients, nothing failed
        assert len(result["samples"]["run_s"]) == 2
        assert result["failed"] == 0, result["reasons"]
        rel[seed] = result["accuracy"]["rel_l2"]
    assert rel[1] != rel[2]
    assert "seed" not in run.workload_spec("exp1", seed=1)


def test_span_self_times_sum_to_traced_run_s(traced_tiny):
    _, work = traced_tiny
    spans = json.loads((work / "traced" / "spans.json").read_text())
    (root,) = [sp for sp in spans if sp["parent"] is None]
    assert root["name"] == "bench.run"
    assert len({sp["run_id"] for sp in spans}) == 1
    traced_run_s = json.loads((work / "traced" / "child.out").read_text()
                              .splitlines()[-1])["run_s"]
    assert sum(self_times(spans)) == pytest.approx(traced_run_s, rel=1e-9)
    assert root["end"] - root["start"] == pytest.approx(traced_run_s, rel=1e-12)


def test_self_time_subtracts_nested_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "d", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _tiny_experiment(tmp_path):
    spec = run.workload_spec("exp1", seed=0, base=TINY_EXP1)
    report = run.run_child(spec, "run", tmp_path, deadline=1e18)
    assert report["failed"] == 0, report["reasons"]
    return tmp_path / "experiment"


def test_nan_in_reconstruction_is_a_failure(tmp_path):
    out = _tiny_experiment(tmp_path)
    path = out / "reconstruction.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = "nan"
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    res = child.verify_experiment(out, 0, TINY_EXP1["tol"])
    assert res["failed"] == 1 and "non-finite output" in res["reasons"]


def test_summary_that_disagrees_with_the_csv_is_a_failure(tmp_path):
    out = _tiny_experiment(tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    summary["rel_l2"] *= 0.5
    (out / "summary.json").write_text(json.dumps(summary))
    assert child.verify_experiment(out, 0, None)["failed"] == 1


def test_fail_row_counts_against_attempted():
    table = (
        "solver order: MMS factor level 0->1          measured=3.996        "
        "tol=4.6        PASS\n"
        "identity residual refinement factor          measured=5.1          "
        "tol=4.6        FAIL\n"
    )
    res = child.parse_check_table(table, rc=1)
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert child.parse_check_table(table.replace("FAIL", "PASS"), rc=0)["failed"] == 0
    # a nonzero exit with no FAIL row, or no rows at all, is one more failure
    assert child.parse_check_table(table.replace("FAIL", "PASS"), rc=1)["failed"] == 1
    assert child.parse_check_table("", rc=0)["failed"] == 1


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "exp1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

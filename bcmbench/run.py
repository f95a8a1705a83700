"""bcm1d benchmark: time to a checked reconstruction on the paper grid.

    python3 bcmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bcmbench/run.py frontier

A run is a closed loop with one client: this driver starts one fresh child
interpreter at a time (child.py) and waits for it.  A ``--trace 0`` run
starts SETUP_PROBES set-up-only children, then workload children until
``--seconds`` have passed (at least ``min_reps`` of them); set-up time is
the median over all of these children.  Every workload child drives
``bcm1d.cli.main`` and checks all of its outputs.  A ``--trace 1`` run is
one workload child with the span tracer on; it reports the per-layer
figures, and the end-to-end figures come from untraced runs only.

Output: a readable report, one ``provenance`` line, and as the last line a
JSON object with the keys correct, attempted, failed and metrics.  The
result and the traced run's spans are also written under bcmbench/.work/.

``frontier`` runs experiments 1-3 once each at dt = dx/10 (the paper step),
dx/2 and dx and records rel_l2, im_leak and run_s; it is a report, not a
gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SRC = ROOT / "src"

SETUP_PROBES = 1
TIME_LIMIT_S = 170.0  # a run must end within 180 s

# The workloads.  BENCHMARK.json lists the gated ones and why each was
# chosen; exp3 and exp2_noisy_cfl1 are run by hand (see README.md).
# Tolerances are the acceptance tolerances of the noiseless presets; the
# noisy preset has none, but must reproduce its coefficients for a fixed
# seed.
WORKLOADS = {
    "exp1": {"kind": "experiment", "id": 1, "tol": 0.01},
    "exp3_cfl1": {"kind": "experiment", "id": 3, "dt": 0.004, "tol": 0.05},
    "exp3": {"kind": "experiment", "id": 3, "tol": 0.05},
    "exp2_noisy_cfl1": {"kind": "experiment", "id": 2, "dt": 0.004,
                        "noise": 0.01, "seeded": True, "min_reps": 2},
    "checks": {"kind": "checks", "checks": ["identity", "control", "convergence"]},
}


def workload_spec(name: str, seed: int, base: dict | None = None) -> dict:
    """The child's description of a workload; the seed reaches seeded ones only."""
    spec = dict(base if base is not None else WORKLOADS[name], name=name)
    if spec.pop("seeded", False):
        spec["seed"] = seed
    return spec


# ---------------------------------------------------------------------------
# children


class Deadline(Exception):
    pass


def run_child(spec: dict, mode: str, out_dir: Path, deadline: float) -> dict:
    """Start one child, wait for it, and return its report plus rusage."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    stdout_path = out_dir / "child.out"
    with open(stdout_path, "w") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec), mode,
             str(out_dir), repr(t_spawn)],
            stdout=fh, env=env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise Deadline(f"{spec['name']} child exceeded the time limit")
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout_path.read_text().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{spec['name']} {mode} child exited with "
                           f"{proc.returncode}")
    report = json.loads(lines[-1])
    report["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    return report


# ---------------------------------------------------------------------------
# one measured run


def measure(spec: dict, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Set-up probes and untraced workload children, or one traced child."""
    deadline = time.monotonic() + TIME_LIMIT_S
    shutil.rmtree(work_dir, ignore_errors=True)
    setups, reps = [], []
    if trace:
        reps.append(run_child(spec, "trace", work_dir / "traced", deadline))
    else:
        setups = [run_child(spec, "setup", work_dir / f"setup{i}", deadline)
                  for i in range(SETUP_PROBES)]
        t_start = time.monotonic()
        while (len(reps) < spec.get("min_reps", 1)
               or time.monotonic() - t_start < seconds):
            reps.append(run_child(spec, "run", work_dir / f"rep{len(reps)}",
                                  deadline))

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    reasons = [why for r in reps for why in r["reasons"]]
    digests = {r["digest"] for r in reps if r["digest"]}
    if spec["kind"] == "experiment" and len(digests) > 1:
        # same seed, same inputs: every repetition must emit equal coefficients
        attempted += 1
        failed += 1
        reasons.append(f"coefficients differ between {len(reps)} runs "
                       "with the same seed")

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    def accuracy(key):
        vals = [r[key] for r in reps if r.get(key) is not None]
        return statistics.median(vals) if vals else 0.0

    acc = {
        "rel_l2": accuracy("rel_l2"),
        "im_leak": accuracy("im_leak"),
        "identity_residual": accuracy("identity_residual"),
        "fail_frac": failed / attempted,
    }
    result = {"accuracy": acc, "attempted": attempted, "failed": failed,
              "reasons": reasons}
    if trace:
        (traced,) = reps
        result["per_layer"] = dict(
            traced["trace"], **acc,
            **{"import.s": traced["import_s"],
               "import.modules": traced["import_modules"],
               "cli.setup.s": traced["inputs_s"],
               "process.cpu_s": traced["cpu_s"],
               "run_s": traced["run_s"],
               "code.src_lines": src_lines()})
    else:
        headline = "rel_l2" if spec["kind"] == "experiment" else "identity_residual"
        result["end_to_end"] = {
            "setup_s": med("setup_s", setups + reps),
            "run_ref": med("run_ref", reps),
            "peak_rss_mib": med("peak_rss_mib", reps),
            "accuracy_err": acc[headline],
        }
        result["wall_run_s"] = med("run_s", reps)
        result["samples"] = {key: [r[key] for r in rows] for key, rows in (
            ("setup_s", setups + reps), ("run_s", reps), ("run_ref", reps))}
    return result


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


# ---------------------------------------------------------------------------
# provenance


def provenance(seed: int | None) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------------------
# commands


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for a run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(result: dict, trace: bool) -> dict:
    """The final JSON line: end-to-end metrics, or per-layer ones when traced."""
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in declared_metrics(trace).items()},
    }


def bench(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workload_spec(args.workload, args.seed)
    work_dir = WORK / args.workload
    trace = bool(args.trace)
    try:
        result = measure(spec, args.seconds, trace, work_dir)
        line = result_line(result, trace)
    except (OSError, RuntimeError, ValueError, KeyError, Deadline) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov = provenance(spec.get("seed"))
    result.update(workload=args.workload, provenance=prov)
    (work_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    samples = result.get("samples", {})
    print(f"bcm1d benchmark: workload {args.workload}, seed {args.seed} "
          f"({'used' if 'seed' in spec else 'not used'}), "
          f"{args.seconds:g} s, trace {args.trace}")
    layer_units = declared_metrics(True)
    rows = [(k, v, layer_units[k]) for k, v in result["accuracy"].items()]
    if trace:
        rows += [(k, m["value"], m["unit"]) for k, m in line["metrics"].items()
                 if k not in result["accuracy"]]
    else:
        rows = ([(k, m["value"], m["unit"]) for k, m in line["metrics"].items()]
                + [("run_s", result["wall_run_s"], "s")] + rows)
    for key, value, unit in rows:
        note = (f" (median of {len(samples[key])})" if key in samples else "")
        print(f"  {key:<32s} {value:.6g} {unit}{note}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for why in result["reasons"]:
        print(f"  failure: {why}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(line))
    return 0


FRONTIER_DTS = {"dx/10": 0.1, "dx/2": 0.5, "dx": 1.0}


def frontier() -> int:
    """dt sweep of the three presets; rel_l2, im_leak and run_s per point."""
    dx = 1.0 / 250
    rows = []
    print(f"{'exp':<5s}{'dt':<8s}{'rel_l2':>12s}{'im_leak':>12s}{'run_s':>10s}")
    for exp_id in (1, 2, 3):
        for label, ratio in FRONTIER_DTS.items():
            spec = {"kind": "experiment", "id": exp_id, "dt": dx * ratio,
                    "name": f"exp{exp_id}@{label}"}
            work_dir = WORK / "frontier" / f"exp{exp_id}_{label.replace('/', '_')}"
            try:
                rep = run_child(spec, "run", work_dir,
                                time.monotonic() + 10 * TIME_LIMIT_S)
            except (OSError, RuntimeError, Deadline) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            row = {"experiment": exp_id, "dt": label, "dt_value": dx * ratio,
                   "rel_l2": rep["rel_l2"], "im_leak": rep["im_leak"],
                   "run_s": rep["run_s"], "failed": rep["failed"]}
            rows.append(row)
            print(f"{exp_id:<5d}{label:<8s}{row['rel_l2']:>12.4%}"
                  f"{row['im_leak']:>12.3g}{row['run_s']:>10.2f}", flush=True)
    out = {"provenance": provenance(None), "rows": rows}
    (WORK / "frontier.json").write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {WORK / 'frontier.json'}")
    return 0


def main(argv: list[str]) -> int:
    if not (SRC / "bcm1d" / "cli.py").is_file():
        print(f"error: no bcm1d sources under {SRC}", file=sys.stderr)
        return 2
    if argv[:1] == ["frontier"]:
        return frontier()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return bench(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

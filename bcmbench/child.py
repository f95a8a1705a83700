"""One benchmark child: set up, drive ``bcm1d.cli.main``, check the outputs.

Usage (the parent in run.py builds these arguments):

    python child.py SPEC_JSON MODE OUT_DIR T_SPAWN

SPEC_JSON describes the workload (see ``run.workload_spec``); MODE is
``setup`` (import and build the inputs, then exit), ``run`` (also drive the
workload and check it) or ``trace`` (``run`` with every public layer
function wrapped by the span tracer).  T_SPAWN is the parent's
``time.monotonic()`` just before the child was started; the set-up time
runs from there until bcm1d is imported and the workload inputs are built.

The child prints one JSON line with its measurements.  In ``trace`` mode
the spans are written to OUT_DIR/spans.json when the run ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import statistics
import sys
import time
from pathlib import Path


# experiment options a spec may set; each names a RunConfig field and a flag
_OPTIONS = ("dx", "dt", "T", "N", "noise", "seed")


def _experiment_argv(spec: dict, out_dir: str) -> list[str]:
    argv = ["experiment", "--id", str(spec["id"]), "--out", out_dir]
    for key in _OPTIONS:
        if spec.get(key) is not None:
            argv += [f"--{key}", str(spec[key])]
    return argv


def build_inputs(cli, spec: dict):
    """The workload inputs: grid, medium and reconstruction settings."""
    if spec["kind"] == "checks":
        p = cli.PAPER
        return cli.GridSpec(p["a"], p["b"], p["dx"], p["dt"], p["T"])
    from bcm1d.recon import NONLINEAR_DIFFERENCE, ReconSettings

    config = cli.RunConfig(experiment_id=spec["id"])
    for key in _OPTIONS:
        if spec.get(key) is not None:
            setattr(config, key, spec[key])
    grid = config.grid()
    medium, truth, mode, eps = cli.experiment_setup(spec["id"], grid, config.N)
    settings = ReconSettings(
        grid=grid, N=config.N, noise_eps=config.noise, seed=config.seed,
        data_mode=mode,
        eps_linearization=eps if mode == NONLINEAR_DIFFERENCE else 1e-3,
    )
    return grid, medium, truth, settings


# ---------------------------------------------------------------------------
# output checks


def verify_experiment(out_dir, rc: int, tol: float | None) -> dict:
    """Check one experiment's files; one operation, failed on any defect."""
    import numpy as np  # loaded by bcm1d already; kept out of the timed import

    out = Path(out_dir)
    res = {"attempted": 1, "failed": 0, "reasons": [], "rel_l2": None,
           "im_leak": None, "digest": None}

    def fail(reason):
        res["reasons"].append(reason)
        res["failed"] = 1

    if rc != 0:
        fail(f"exit code {rc}")
    try:
        summary = json.loads((out / "summary.json").read_text())
        rec = np.loadtxt(out / "reconstruction.csv", delimiter=",", skiprows=1,
                         ndmin=2)
        coef_text = (out / "coefficients.csv").read_text()
        coef = np.loadtxt(coef_text.splitlines()[1:], delimiter=",", ndmin=2)
    except (OSError, ValueError, IndexError) as exc:
        fail(f"unreadable output: {exc}")
        return res
    rel_l2 = float(summary.get("rel_l2", float("nan")))
    res["rel_l2"] = rel_l2
    if rec.shape[1] != 4 or coef.shape[1] != 5:
        fail("unexpected column count")
        return res
    if not (np.all(np.isfinite(rec)) and np.all(np.isfinite(coef))
            and np.isfinite(rel_l2)):
        fail("non-finite output")
        return res
    xs, truth, re = rec[:, 0], rec[:, 1], rec[:, 2]
    recomputed = float(np.sqrt(np.trapezoid((re - truth) ** 2, x=xs))
                       / max(np.sqrt(np.trapezoid(truth**2, x=xs)), 1e-12))
    if abs(recomputed - rel_l2) > 1e-6 * rel_l2 + 1e-12:
        fail(f"summary rel_l2 {rel_l2!r} != recomputed {recomputed!r}")
    if tol is not None and rel_l2 > tol:
        fail(f"rel_l2 {rel_l2:.4%} above tolerance {tol:.2%}")
    # columns a_im and b_im; row k = 0 carries a0 with b = 0
    res["im_leak"] = float(np.max(np.abs(coef[:, [2, 4]])))
    res["digest"] = hashlib.sha256(coef_text.encode()).hexdigest()
    return res


def parse_check_table(text: str, rc: int) -> dict:
    """Each table row is one operation; a FAIL row is a failed one.

    A nonzero exit without a FAIL row, or a check that prints no row, counts
    as one more failed operation.
    """
    rows = []
    for line in text.splitlines():
        head, sep, tail = line.partition(" measured=")
        if not sep:
            continue
        fields = tail.split()
        verdict = fields[-1] if fields else ""
        try:
            measured = float(fields[0])
        except (IndexError, ValueError):
            measured = float("nan")
        rows.append((head.strip(), measured, verdict == "PASS"))
    attempted = len(rows)
    failed = sum(1 for _, _, ok in rows if not ok)
    reasons = [f"FAIL: {name}" for name, _, ok in rows if not ok]
    if not rows or (rc != 0 and failed == 0):
        attempted += 1
        failed += 1
        reasons.append(f"exit code {rc} with {len(rows)} table rows")
    residual = next((m for name, m, _ in rows
                     if name.startswith("nonlinear identity rel residual")), None)
    return {"attempted": attempted, "failed": failed, "reasons": reasons,
            "identity_residual": residual}


# ---------------------------------------------------------------------------
# traced run


_PASSES = {"solver.solve_many": 1, "solver.linearized_nd_map_many": 2}


def _make_hooks(tracer):
    def solver_pass(fields):
        def hook(counts, bound, result):
            # a pass run inside another counted pass is already counted
            if tracer.enclosing(_PASSES):
                return
            grid = next(iter(bound.arguments.values()))
            counts["solver.passes"] += 1
            counts["solver.columns"] += len(result)
            counts["solver.node_steps"] += grid.nx * (grid.nt - 2) * len(result) * fields
        return hook

    def control_samples(counts, bound, bundle):
        counts["control.trace_samples"] += sum(
            2 * len(tr) for tr in (bundle.f, bundle.f_t, bundle.f_tt))

    def emitted_bytes(counts, bound, paths):
        counts["cli.emit.bytes"] += sum(Path(p).stat().st_size for p in paths)

    return {
        **{name: solver_pass(fields) for name, fields in _PASSES.items()},
        "control.build_control": control_samples,
        "cli.emit_results": emitted_bytes,
    }


def trace_metrics(spans: list[dict], counts, run_s: float) -> dict:
    """Per-layer figures from the spans and counts of one traced run."""
    from tracer import self_times

    selfs = self_times(spans)

    def self_s(prefix):
        return sum(t for sp, t in zip(spans, selfs) if sp["name"].startswith(prefix))

    def inclusive(*names):
        total = 0.0
        for sp in spans:
            if sp["name"] not in names:
                continue
            p = sp["parent"]
            while p is not None and spans[p]["name"] not in names:
                p = spans[p]["parent"]
            if p is None:
                total += sp["end"] - sp["start"]
        return total

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    build_calls = counts["control.build_control"]
    build_s = inclusive("control.build_control")
    solver_s = self_s("solver.")
    node_steps = counts["solver.node_steps"]
    identity_calls = sum(v for k, v in counts.items()
                         if k.startswith("identity.") and k.count(".") == 1)
    identity_s = self_s("identity.")
    m = {f"{layer}.self_s": self_s(f"{layer}.")
         for layer in ("cli", "recon", "control", "extension")}
    m.update({
        "cli.emit.s": inclusive("cli.emit_results", "cli.stdout"),
        "cli.emit.bytes": counts["cli.emit.bytes"],
        "control.build.calls": build_calls,
        "control.build.s": build_s,
        "control.build.ms_per_call": per(build_s, build_calls, 1e3),
        "control.trace_samples": counts["control.trace_samples"],
        "control.verify.calls": counts["control.verify_control"],
        "extension.antiderivative.calls": counts["extension.antiderivative"],
        "extension.antiderivative.s": inclusive("extension.antiderivative"),
        "solver.passes": counts["solver.passes"],
        "solver.columns": counts["solver.columns"],
        "solver.columns_per_pass": per(counts["solver.columns"],
                                       counts["solver.passes"]),
        "solver.node_steps": node_steps,
        "solver.s": solver_s,
        "solver.ns_per_node_step": per(solver_s, node_steps, 1e9),
        "solver.share": per(solver_s, run_s),
        "identity.calls": identity_calls,
        "identity.s": identity_s,
        "identity.us_per_call": per(identity_s, identity_calls, 1e6),
        "identity.nonlinear.calls": counts["identity.nonlinear_identity_residual"],
        "recon.noise.calls": counts["recon.apply_measurement_noise"],
        "bench.self_s": self_s("bench."),
    })
    return m


def tracer_overhead(n_spans: int, calls: int = 20000) -> float:
    """Seconds that ``n_spans`` traced calls add over bare calls.

    Measured on a no-op wrapped by a throwaway tracer.  Traced minus
    untraced run_s would be the direct figure, but two untraced runs on a
    busy host already differ by far more than the tracer costs.
    """
    from tracer import Tracer

    def noop():
        pass

    traced = Tracer("overhead-probe").wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return n_spans * ((t2 - t1) - (t1 - t0)) / calls


# ---------------------------------------------------------------------------


class SpeedProbe:
    """Host speed during a run, sampled inside the measured process.

    Every PERIOD_S seconds a SIGALRM handler times a fixed kernel: STEPS
    small-array numpy steps on a 501 x 4 complex array, the shape of one
    solver step on the paper grid.  On a shared host the speed changes by up
    to a third for tens of seconds at a time, so a run's wall time swings
    with it.  Divided by the median kernel time sampled during the same run,
    most of that swing cancels.  Kernel timings taken just before and after
    the run do not cancel it, because the speed changes within the run.
    """

    PERIOD_S = 0.2
    STEPS = 100

    def __init__(self):
        import numpy as np

        self._u0 = np.linspace(0.0, 1.0, 2004).reshape(501, 4) + 0j
        self._lap0 = np.zeros_like(self._u0)
        self.kernel_s: list[float] = []
        self.cost_s = 0.0  # handler time inside the run, taken off run_s

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        u, v, lap = self._u0.copy(), self._u0.copy(), self._lap0.copy()
        t1 = time.perf_counter()
        for _ in range(self.STEPS):
            lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * 0.25
            u, v = 0.5 * (u + v) + lap, u
        t2 = time.perf_counter()
        self.kernel_s.append(t2 - t1)
        self.cost_s += t2 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self) -> float:
        """Median kernel time; one sample after the run if it had none."""
        if not self.kernel_s:
            cost = self.cost_s
            self._sample()
            self.cost_s = cost
        return statistics.median(self.kernel_s)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _call_main(cli, argv, tracer):
    """Run cli.main with its standard output captured."""

    class Capture(io.StringIO):
        def write(self, s):
            with _span(tracer, "cli.stdout"):
                return super().write(s)

    buf = Capture()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
    text = buf.getvalue()
    if tracer is not None:
        tracer.counts["cli.emit.bytes"] += len(text.encode())
    return rc, text


def run_workload(cli, spec: dict, out_dir: str, tracer) -> dict:
    """Drive the workload through cli.main and check every output."""
    res = {"attempted": 0, "failed": 0, "reasons": [], "rel_l2": None,
           "im_leak": None, "identity_residual": None, "digest": None}

    def merge(part):
        for key in ("attempted", "failed"):
            res[key] += part[key]
        res["reasons"] += part["reasons"]
        for key in ("rel_l2", "im_leak", "identity_residual", "digest"):
            if part.get(key) is not None:
                res[key] = part[key]

    if spec["kind"] == "checks":
        for kind in spec["checks"]:
            rc, text = _call_main(cli, ["check", kind], tracer)
            with _span(tracer, "bench.verify"):
                merge(parse_check_table(text, rc))
    else:
        out = Path(out_dir) / "experiment"
        rc, _ = _call_main(cli, _experiment_argv(spec, str(out)), tracer)
        with _span(tracer, "bench.verify"):
            merge(verify_experiment(out, rc, spec.get("tol")))
    return res


def main(argv: list[str]) -> int:
    spec_json, mode, out_dir, t_spawn = argv
    spec = json.loads(spec_json)
    t_import = time.perf_counter()
    import bcm1d.cli as cli

    import_s = time.perf_counter() - t_import
    modules = len(sys.modules)
    t_inputs = time.perf_counter()
    build_inputs(cli, spec)
    report = {
        "import_s": import_s,
        "import_modules": modules,
        "inputs_s": time.perf_counter() - t_inputs,
        "setup_s": time.monotonic() - float(t_spawn),
    }
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer, install

            tracer = Tracer(run_id=f"{spec['name']}:{spec.get('seed')}:{t_spawn}")
            install(tracer, _make_hooks(tracer))
        # the speed probe would add its samples to the traced spans
        probe = SpeedProbe() if tracer is None else None
        t0 = time.perf_counter()
        with _span(tracer, "bench.run"), probe or contextlib.nullcontext():
            report.update(run_workload(cli, spec, out_dir, tracer))
        report["run_s"] = time.perf_counter() - t0
        if probe is not None:
            report["run_s"] -= probe.cost_s
            report["run_ref"] = report["run_s"] / probe.reference_s()
            report["probe_samples"] = len(probe.kernel_s)
        else:
            spans = tracer.spans()
            root = spans[0]  # bench.run: the first span opened
            report["run_s"] = root["end"] - root["start"]
            report["trace"] = trace_metrics(spans, tracer.counts, report["run_s"])
            report["trace"]["trace.overhead_s"] = tracer_overhead(len(spans))
            with open(Path(out_dir) / "spans.json", "w") as fh:
                json.dump(spans, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

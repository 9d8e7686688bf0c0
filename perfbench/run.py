"""nematicflow benchmark: end-to-end metrics untraced, per-layer metrics traced.

One workload per process:

    python3 perfbench/run.py --workload audit-2d-n64 --seed 1 --seconds 25 --trace 0

runs ``nematicflow.cli.main`` in-process on a config generated from the
seed, repeatedly for ``--seconds``, checks every run's outputs, and prints
one JSON object as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics.  All four workloads, untraced then traced,
each in a fresh process, with a report of every metric:

    python3 perfbench/run.py --all --seed 1 --seconds 25

The package is imported from ``src/`` of the checkout that holds this file;
outputs go to ``perfbench/out/``.  See perfbench/README.md for the metric
definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_BATCH = 5  # set-ups timed after each untraced call, so they span the run
MIN_CALLS = 3


def _load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_package():
    """Import nematicflow from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "nematicflow", "__init__.py")):
        raise SystemExit(f"benchmark: no package source at {SRC}/nematicflow")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nematicflow
    import nematicflow.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(nematicflow.__file__))
    if where != os.path.join(SRC, "nematicflow"):
        raise SystemExit(f"benchmark: imported nematicflow from {where}, not {SRC}")
    return import_s


# -- environment record ------------------------------------------------------------


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


# -- one cli.main call -------------------------------------------------------------


@contextlib.contextmanager
def recording_exceptions(raised):
    """Wrap the cli's command functions so an exception's type is kept even
    when cli.main turns it into an exit code."""
    import nematicflow.cli as cli

    def wrap(fn):
        def command(args):
            try:
                return fn(args)
            except BaseException as e:
                raised.append(type(e).__name__)
                raise
        return command
    saved = cli.cmd_run, cli.cmd_sweep
    cli.cmd_run, cli.cmd_sweep = wrap(cli.cmd_run), wrap(cli.cmd_sweep)
    try:
        yield
    finally:
        cli.cmd_run, cli.cmd_sweep = saved


def _digest(w, outdir):
    h = hashlib.sha256()
    for d in w.member_dirs(outdir):
        for f in ("diagnostics.csv", "u_final.field", "d_final.field"):
            with open(os.path.join(d, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_once(w, config_path, outdir):
    """One timed cli.main call, then its output checks.

    Returns a record with the wall time, failure (None when the run passed
    every check) and, for a passing run, its outputs and their digest."""
    from workloads import check_outputs
    from nematicflow.cli import main

    shutil.rmtree(outdir, ignore_errors=True)
    raised = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with recording_exceptions(raised), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main(w.argv(config_path, outdir))
    except Exception as e:  # the harness records a crash and carries on
        code, raised[:] = None, [type(e).__name__]
    run_s = time.perf_counter() - t0
    rec = {"run_s": run_s, "exit": code, "failure": None}
    if code != 0:
        reason = raised[-1] if raised else f"exit {code}"
        rec["failure"] = f"{reason}: {sink.getvalue().strip()[-300:]}"
        return rec
    try:
        failed, outputs = check_outputs(w, outdir)
    except (OSError, KeyError, ValueError) as e:
        failed, outputs = [f"outputs unreadable: {type(e).__name__}: {e}"], {}
    if failed:
        rec["failure"] = "; ".join(failed)
        return rec
    rec["members_wall_s"] = outputs.pop("members_wall_s")
    rec["outputs"] = outputs
    rec["digest"] = _digest(w, outdir)
    return rec


def time_setup(config_path):
    """Seconds from config parse to a Stepper ready for its first step."""
    from nematicflow.coeffs import validate
    from nematicflow.config import (build_coefficients, build_grid, build_initial_state,
                                    build_regularization, build_stepper_config,
                                    parse_config)
    from nematicflow.solver import Stepper

    t0 = time.perf_counter()
    cfg = parse_config(config_path)
    coeffs = build_coefficients(cfg)
    if not validate(coeffs).admissible:
        raise ValueError("workload coefficients are not admissible")
    grid = build_grid(cfg)
    build_initial_state(cfg, grid, coeffs)
    Stepper(grid, coeffs, build_stepper_config(cfg), build_regularization(cfg))
    return time.perf_counter() - t0


# -- statistics ----------------------------------------------------------------------


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def tail(xs):
    """The highest of p50..p99.9 (nearest rank) with at least ten samples
    beyond it; the maximum when there are too few samples."""
    xs = sorted(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(round(len(xs) * p / 100.0, 6))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- per-layer metrics from spans ------------------------------------------------------


def layer_metrics(w, spans, traced_run_s, untraced):
    """Per-layer metrics from the traced calls' spans; see README.md for units."""
    from tracing import summarise

    stats, sample_s = summarise(spans)
    runs = len(stats["solver.run"]["durations"])
    steps = len(stats["solver.step_pair"]["durations"])
    samples = len(stats["diagnostics.monitor_update"]["durations"])
    if not (runs and steps and samples):
        raise RuntimeError(f"traced run recorded {runs} runs, {steps} steps, {samples} samples")
    per_step = 1.0 / steps
    ms_step = 1e3 / steps
    ms_sample = 1e3 / samples
    ms_run = 1e3 / runs
    step_ms = [1e3 * d for d in stats["solver.step_pair"]["durations"]]
    tail_p, tail_ms = tail(step_ms)

    m = {}
    for op in ("fft", "ifft", "dealias", "truncate_modes"):
        m[f"spectral.{op}.calls_per_step"] = stats[f"spectral.{op}"]["calls_step"] * per_step
    for op in ("fft", "ifft", "dealias"):
        m[f"spectral.{op}.calls_per_step.in_sample"] = \
            stats[f"spectral.{op}"]["calls_sample"] * per_step
    m["spectral.fft.bytes_per_step"] = \
        (stats["spectral.fft"]["bytes_step"] + stats["spectral.ifft"]["bytes_step"]) * per_step
    m["spectral.fft.ms_per_step"] = \
        (stats["spectral.fft"]["self_s"] + stats["spectral.ifft"]["self_s"]) * ms_step
    for op in ("dealias", "gradient", "div_tensor", "leray"):
        m[f"spectral.{op}.ms_per_step"] = stats[f"spectral.{op}"]["total_s"] * ms_step
    c = stats["physics.constitutive"]
    m["physics.constitutive.calls_per_step.in_step"] = c["calls_step"] * per_step
    m["physics.constitutive.calls_per_step.in_sample"] = c["calls_sample"] * per_step
    for fn in ("constitutive", "momentum_rhs", "director_rhs"):
        m[f"physics.{fn}.self_ms"] = stats[f"physics.{fn}"]["self_s"] * ms_step
    m["solver.step_pair.ms.p50"] = statistics.median(step_ms)
    m["solver.step_pair.ms.tail"] = tail_ms
    m["solver.step_pair.self_ms"] = stats["solver.step_pair"]["self_s"] * ms_step
    m["diagnostics.sample.ms"] = sample_s * ms_sample
    for span in ("diagnostics.channels", "diagnostics.monitor_update"):
        m[f"{span}.ms"] = stats[span]["total_s"] * ms_sample
    m["diagnostics.sample_share"] = sample_s / sum(traced_run_s)
    for span in ("diagnostics.write_timeseries", "config.parse", "coeffs.validate",
                 "config.build_initial_state", "spectral.grid_init", "solver.stepper_init"):
        m[f"{span}.ms"] = stats[span]["total_s"] * ms_run
    m["cli.io.ms"] = (stats["cli.save_snapshot"]["total_s"]
                      + stats["cli.manifest_dump"]["total_s"]) * ms_run
    member_s = [x for rec in untraced for x in rec["members_wall_s"]]
    m["cli.sweep.member_s"] = statistics.median(member_s)
    m["cli.sweep.efficiency"] = statistics.median(
        sum(rec["members_wall_s"]) / (w.threads * rec["run_s"]) for rec in untraced)
    untraced_s = statistics.median(rec["run_s"] for rec in untraced)
    m["trace.overhead_frac"] = (statistics.median(traced_run_s) - untraced_s) / untraced_s
    info = {"tail_percentile": tail_p, "steps_traced": steps, "samples_traced": samples,
            "runs_traced": runs, "step_pair_samples": len(step_ms),
            "spectral.truncate_modes.ms_per_step":
                stats["spectral.truncate_modes"]["total_s"] * ms_step}
    return m, info


def io_bytes(w, outdir):
    total = 0
    for d in w.member_dirs(outdir):
        for f in os.listdir(d):
            if f.endswith(".field") or f == "run_manifest.json":
                total += os.path.getsize(os.path.join(d, f))
    return total / len(w.member_dirs(outdir))


# -- one workload ----------------------------------------------------------------------


def measure(w, seed, seconds, trace, workdir):
    """Run one workload for `seconds`.

    Returns the result record, the metrics, and the failed and attempted
    call counts."""
    from tracing import Tracer

    os.makedirs(workdir, exist_ok=True)
    config_path = os.path.join(workdir, "run.ini")
    with open(config_path, "w") as fh:
        fh.write(w.config_text(seed))
    outdir = os.path.join(workdir, "out")

    setups = []
    if not trace:
        time_setup(config_path)  # untimed warm-up

    tracer = Tracer()
    calls, untraced, traced_s, failures = [], [], [], []
    digests = set()
    cli_io = []
    first_traced_spans = 0
    start = time.perf_counter()
    while True:
        # Stop at `seconds`, or earlier when one more call would overrun by
        # more than half its length.
        left = seconds - (time.perf_counter() - start)
        if len(calls) >= (2 if trace else MIN_CALLS) \
                and (left <= 0.0 or 0.5 * calls[-1]["run_s"] > left):
            break
        traced_call = bool(trace) and len(calls) % 2 == 1
        if traced_call:
            tracer.install()
        try:
            rec = run_once(w, config_path, outdir)
        finally:
            tracer.uninstall()
        rec["traced"] = traced_call
        calls.append(rec)
        if traced_call and not first_traced_spans:
            first_traced_spans = len(tracer.spans)
        if not trace:
            setups += [time_setup(config_path) for _ in range(SETUP_BATCH)]
        if rec["failure"] is not None:
            failures.append(rec["failure"])
            continue
        digests.add(rec["digest"])
        if traced_call:
            traced_s.append(rec["run_s"])
            cli_io.append(io_bytes(w, outdir))
        else:
            untraced.append(rec)
        if len(digests) > 1:
            failures.append("outputs differ between runs of one seed"
                            + (" (traced vs untraced)" if trace else ""))
            calls[-1]["failure"] = failures[-1]
            digests = {next(iter(digests))}

    shutil.rmtree(outdir, ignore_errors=True)
    failed = sum(rec["failure"] is not None for rec in calls)
    result = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(seed), "calls": calls, "failures": failures,
    }
    metrics = {}
    if not trace and untraced:
        run_s = [rec["run_s"] for rec in untraced]
        q1, med, q3 = quartiles(run_s)
        sq1, smed, sq3 = quartiles(setups)
        result["run_s"] = {"median": med, "q1": q1, "q3": q3, "count": len(run_s)}
        result["setup_s"] = {"median": smed, "q1": sq1, "q3": sq3, "count": len(setups)}
        metrics = {"run_s": med, "setup_s": smed, "peak_rss_mb": peak_rss_mb(),
                   "passed_frac": 1.0 - failed / len(calls)}
    elif trace and untraced and traced_s:
        try:
            metrics, result["trace_info"] = layer_metrics(w, tracer.spans, traced_s, untraced)
            metrics["cli.io.bytes"] = statistics.median(cli_io)
        except RuntimeError as e:
            failures.append(str(e))
        result["spans"] = tracer.spans[:first_traced_spans]
    if untraced:
        result["outputs"] = untraced[-1]["outputs"]
    return result, metrics, failed, len(calls)


def emit(w, seed, seconds, trace, units, import_s):
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        result, metrics, failed, attempted = measure(w, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    correct = failed == 0 and not missing and not result["failures"]
    result["import_s"] = import_s
    spans = result.pop("spans", None)
    stem = os.path.join(OUT, f"{w.name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "bytes"],
                       "spans": spans}, fh)
    for f in result["failures"]:
        print(f"FAILED: {f}")
    if missing:
        print(f"FAILED: metrics not measured: {', '.join(missing)}")
    info = result.get("trace_info", {})
    for name in units:
        if name in metrics:
            print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    for key in ("run_s", "setup_s"):
        if key in result:
            r = result[key]
            print(f"{key}: median {r['median']:.4f} s, q1 {r['q1']:.4f}, q3 {r['q3']:.4f},"
                  f" n={r['count']}")
    if info:
        print(f"solver.step_pair.ms.tail is p{info['tail_percentile']:g} of"
              f" {info['step_pair_samples']} steps")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }))
    return 0


def run_all(seed, seconds, e2e, layers):
    """Every workload untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    rows, ok = [], True
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            rows.append((name, trace, res))
            print(f"{name} trace={trace}: correct={res['correct']} attempted={res['attempted']}"
                  f" failed={res['failed']} failed_frac={res['failed'] / res['attempted']:g}")
            print("\n".join("  " + l for l in lines[:-1]))
    names = list(WORKLOADS)
    for trace in (0, 1):
        units = layers if trace else e2e
        print(f"\n{'metric':48s} {'unit':>8s} " + " ".join(f"{n:>16s}" for n in names))
        for metric, unit in units.items():
            vals = {n: r["metrics"].get(metric, {}).get("value") for n, t, r in rows if t == trace}
            cells = " ".join(f"{vals[n]:>16.6g}" if vals.get(n) is not None else f"{'-':>16s}"
                             for n in names)
            print(f"{metric:48s} {unit:>8s} {cells}")
    return 0 if ok else 1


def main(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("give --workload NAME or --all")
    e2e, layers = _load_benchmark_spec()
    import_s = import_package()
    os.makedirs(OUT, exist_ok=True)
    if args.all:
        return run_all(args.seed, args.seconds, e2e, layers)
    return emit(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                layers if args.trace else e2e, import_s)


if __name__ == "__main__":
    sys.exit(main())

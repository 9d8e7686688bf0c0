"""Command-line front end: validate / run / sweep / inspect.

Exit codes: 0 success (for validate: the coefficient set is admissible),
1 configuration or validation failure, 2 blow-up during time integration.
Output directory precedence: --output-dir flag, then NEMATICFLOW_OUTPUT_DIR,
then [diagnostics] output_dir from the config file.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import functools
import json
import math
import os
import re
import sys

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # not on Windows
    getrusage = None

import numpy as np

from . import __version__
from .coeffs import CONSTRAINTS
from .coeffs import validate as validate_coeffs
from .config import (RunConfig, build_coefficients, build_grid,
                     build_initial_state, build_regularization, build_sampling,
                     build_stepper_config, check_initial_condition, config_sha256,
                     parse_config, serialize_config)
from .diagnostics import write_timeseries
from .errors import BlowUpError, ConfigError, ParameterError, RegimeError
from .solver import run as run_solver
from .spectral import _sum_squares, load_snapshot, save_snapshot


def member_label(axis: str, value) -> str:
    """Directory name for one sweep member, filesystem-safe."""
    text = format(float(value), "g") if axis == "dt" else str(int(value))
    return f"{axis}_{text.replace('-', 'm').replace('.', 'p')}"


def _num(x, spec: str) -> str:
    """x formatted by spec; empty for the None of a run without samples."""
    return "" if x is None else format(x, spec)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _resolve_output_dir(args, cfg: RunConfig) -> str:
    return (getattr(args, "output_dir", None) or os.environ.get("NEMATICFLOW_OUTPUT_DIR")
            or cfg.diagnostics.output_dir)


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    coeffs = build_coefficients(cfg)
    report = validate_coeffs(coeffs)
    if args.structured:
        payload = {"coefficients": coeffs.as_dict(), **report.as_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"coefficients: {coeffs.as_dict()}")
        for flag, _, label in CONSTRAINTS:
            print(f"  {'PASS' if getattr(report, flag) else 'FAIL'}  {label}")
        for name, residual in report.violations:
            if residual == 0.0:  # only a strict inequality fails with residual 0: at its bound
                quantity, bound = re.split("[<>]", name)
                print(f"  violated: {name} (at bound, {quantity} = {bound})")
            else:
                print(f"  violated: {name} (residual {residual:.6g})")
        print(f"regime: case1={report.case1} case2={report.case2}")
    return 0 if report.admissible else 1


@functools.cache
def _fix_malloc_thresholds() -> bool:
    """Fix glibc's malloc thresholds for this process; True when both took.

    Left dynamic, glibc returns the multi-MB temporaries each step frees to
    the kernel (trimming the heap top, or munmap), and the next step faults
    the same pages back in.  Fixed, they are reused from the heap.  A libc
    without mallopt (musl, macOS, Windows) is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        # M_MMAP_THRESHOLD (-3) at 32 MiB, the most glibc's dynamic rule reaches
        # on 64-bit; M_TRIM_THRESHOLD (-1) at 1 GiB, above any run's free heap top.
        return (mallopt(-3, 32 << 20), mallopt(-1, 1 << 30)) == (1, 1)
    except (OSError, AttributeError, TypeError):
        return False


class ProcessPoolExecutor:
    """concurrent.futures.ProcessPoolExecutor, imported when a pool is built.

    Importing it loads multiprocessing (about 1.5 MB resident), which only
    a parallel sweep uses.  Offers map and the context-manager protocol,
    and can be subclassed.
    """

    def __init__(self, max_workers: int):
        from concurrent.futures import ProcessPoolExecutor as pool_class
        self._pool = pool_class(max_workers=max_workers)

    def map(self, fn, *iterables, **kwargs):
        return self._pool.map(fn, *iterables, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._pool.shutdown()


def _build_run(cfg: RunConfig, cadence: int | None = None) -> tuple:
    """(coeffs, regime report, grid, stepper config, regularization, cadence,
    snapshot cadence): all a run can be refused for but its initial state.
    cadence, when given, overrides the configured sampling cadence."""
    coeffs = build_coefficients(cfg)
    report = validate_coeffs(coeffs)
    if not report.admissible:
        bad = ", ".join(name for name, _ in report.violations) or "regime conditions"
        raise RegimeError(f"coefficient set is not admissible (failed: {bad})")
    return (coeffs, report, build_grid(cfg), build_stepper_config(cfg),
            build_regularization(cfg), *build_sampling(cfg, cadence))


def _execute_run(cfg: RunConfig, outdir: str, cadence: int | None = None) -> dict:
    """Run one configuration, write CSV/manifest/snapshots, return a summary."""
    _fix_malloc_thresholds()
    coeffs, report, grid, stepper_cfg, reg, cad, snap_cad = _build_run(cfg, cadence)

    hooks = ()
    if snap_cad > 0:
        def snapshot_hook(state, step_index):
            if step_index % snap_cad == 0:
                os.makedirs(outdir, exist_ok=True)
                save_snapshot(os.path.join(outdir, f"u_{step_index:06d}.field"),
                              state.u, state.time, grid)
                save_snapshot(os.path.join(outdir, f"d_{step_index:06d}.field"),
                              state.d, state.time, grid)
        hooks = (snapshot_hook,)

    # Built in the call, so the run holds the initial state's only reference
    # and frees it after the first step; a refused initial condition raises
    # before any directory is made.
    traj = run_solver(build_initial_state(cfg, grid, coeffs), stepper_cfg, reg=reg,
                      hooks=hooks, cadence=cad)

    os.makedirs(outdir, exist_ok=True)
    write_timeseries(os.path.join(outdir, "diagnostics.csv"), traj.reports, traj.monitor)
    save_snapshot(os.path.join(outdir, "u_final.field"),
                  traj.final_state.u, traj.final_state.time, grid)
    save_snapshot(os.path.join(outdir, "d_final.field"),
                  traj.final_state.d, traj.final_state.time, grid)

    reports = traj.reports  # empty when the first step blows up
    summary = {
        "version": __version__,
        "config_sha256": config_sha256(cfg),
        "config": serialize_config(cfg),
        "seed": cfg.run.seed,
        "case1": report.case1,
        "case2": report.case2,
        "n_steps": traj.n_steps,
        "samples": len(reports),
        "final_time": traj.final_state.time,
        "final_E_total": reports[-1].E_total if reports else None,
        "max_energy_increase": traj.max_energy_increase,
        "max_abs_residual_general": max((abs(r.residual_general) for r in reports), default=None),
        "max_abs_residual_case1": max((abs(r.residual_case1) for r in reports), default=None),
        "blown_up": traj.blown_up,
        "blowup_time": traj.blowup_time,
        "blowup_step": traj.blowup_step,
        "blowup_reason": traj.blowup_reason,
        "wall_time_s": traj.wall_time,
        # the process's high-water mark so far; ru_maxrss counts KiB on Linux
        "peak_rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / 1024.0 if getrusage else None,
        "output_dir": outdir,
    }
    with open(os.path.join(outdir, "run_manifest.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    outdir = _resolve_output_dir(args, cfg)
    summary = _execute_run(cfg, outdir, cadence=args.cadence)
    if args.structured:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"wrote {outdir}/diagnostics.csv ({summary['samples']} rows, "
              f"{summary['n_steps']} steps, {summary['wall_time_s']:.2f}s)")
        if summary["samples"]:
            print(f"final E_total = {summary['final_E_total']:.12g} at t = {summary['final_time']}")
            print(f"max |residual_general| = {summary['max_abs_residual_general']:.3e}, "
                  f"max |residual_case1| = {summary['max_abs_residual_case1']:.3e}")
        if summary["blown_up"]:
            print(f"BLOW-UP at step {summary['blowup_step']}, t = {summary['blowup_time']}")
            print(summary["blowup_reason"])
    return 2 if summary["blown_up"] else 0


def _sweep_member(payload):
    """Worker for parallel sweep members (must be picklable): payload is (cfg, outdir)."""
    return _execute_run(*payload)


def _member_config(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """A copy of the sweep's configuration with one axis set to value."""
    cfg = copy.deepcopy(cfg)
    if axis == "dt":
        cfg.stepper.dt = float(value)
    elif axis == "M":
        cfg.regularization.enabled = True
        cfg.regularization.m = int(value)
    elif axis == "n":
        cfg.grid.n = int(value)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose dt, M, or n")
    return cfg


def _slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of ys against xs, from mean-centred sums.

    Plain arithmetic: numpy's line fit would load and run BLAS/LAPACK in the
    sweep's parent to fit a line through a few points.  xs must not all be equal.
    """
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
            / sum((x - x_bar) ** 2 for x in xs))


def cmd_sweep(args) -> int:
    if args.threads < 1:
        return _fail(f"--threads must be >= 1, got {args.threads}")
    cfg = parse_config(args.config)
    outdir = _resolve_output_dir(args, cfg)
    try:
        kind = float if args.axis == "dt" else int
        values = [kind(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        return _fail(f"--values must be a comma-separated list of numbers, got {args.values!r}")
    if not values:
        return _fail("--values is empty")

    labels = [member_label(args.axis, v) for v in values]
    if len(set(labels)) < len(labels):  # two members would write one directory
        return _fail(f"sweep members must have distinct directory names, got {labels}")
    members = [_member_config(cfg, args.axis, v) for v in values]
    for member in members:  # refuse a bad member before any member runs
        check_initial_condition(member, _build_run(member)[2])
    jobs = [(member, os.path.join(outdir, label)) for member, label in zip(members, labels)]
    # the fork start method launches every worker on the first submit
    workers = min(args.threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_sweep_member, jobs))
    else:
        summaries = [_sweep_member(j) for j in jobs]

    os.makedirs(outdir, exist_ok=True)
    lines = ["member,axis,value,final_E_total,max_abs_residual_general,"
             "max_abs_residual_case1,blown_up,wall_time_s"]
    print(f"{'member':<16} {'value':>12} {'final E':>18} {'max|res_case1|':>16} blown_up")
    for v, label, s in zip(values, labels, summaries):
        lines.append(",".join([
            label, args.axis, format(float(v), ".17g"),
            _num(s["final_E_total"], ".17g"),
            _num(s["max_abs_residual_general"], ".17g"),
            _num(s["max_abs_residual_case1"], ".17g"),
            str(s["blown_up"]).lower(), format(s["wall_time_s"], ".3f"),
        ]))
        print(f"{label:<16} {v:>12} {_num(s['final_E_total'], '.12g'):>18} "
              f"{_num(s['max_abs_residual_case1'], '.3e'):>16} {s['blown_up']}")
    with open(os.path.join(outdir, "sweep_summary.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    if args.axis == "dt" and len(values) >= 2 \
            and all((s["max_abs_residual_case1"] or 0.0) > 0 for s in summaries):
        order = _slope([math.log(v) for v in values],
                       [math.log(s["max_abs_residual_case1"]) for s in summaries])
        print(f"fitted residual_case1 order vs dt: {order:.3f}")

    return 2 if any(s["blown_up"] for s in summaries) else 0


def cmd_inspect(args) -> int:
    field, t, meta = load_snapshot(args.path)
    sq = _sum_squares(field, meta["dim"])  # |field|^2, pointwise
    info = {
        "path": args.path,
        **meta,  # dim, n, ncomp and time
        "l2_norm": float(np.sqrt(np.mean(sq))),
        "sup_norm": float(np.sqrt(sq.max())),
        "component_means": [float(field[c].mean()) for c in range(meta["ncomp"])],
    }
    if args.structured:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        print(f"{args.path}: {meta['ncomp']}-component field, {meta['dim']}D grid "
              f"n={meta['n']}, t={t}")
        print(f"  L2 norm {info['l2_norm']:.12g}, sup norm {info['sup_norm']:.12g}")
        print(f"  component means {info['component_means']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nematicflow",
        description="Pseudo-spectral Ericksen-Leslie solver with energy-law verification",
    )
    p.add_argument("--version", action="version", version=f"nematicflow {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a coefficient set against the regime constraints")
    pv.add_argument("--config", required=True)
    pv.add_argument("--structured", action="store_true", help="JSON output")
    pv.set_defaults(fn=cmd_validate)

    pr = sub.add_parser("run", help="integrate one configuration and write diagnostics")
    pr.add_argument("--config", required=True)
    pr.add_argument("--output-dir", default=None)
    pr.add_argument("--cadence", type=int, default=None, help="sampling stride override")
    pr.add_argument("--structured", action="store_true", help="JSON summary")
    pr.set_defaults(fn=cmd_run)

    ps = sub.add_parser("sweep", help="run a family of configs varying one axis")
    ps.add_argument("--config", required=True)
    ps.add_argument("--axis", required=True, choices=("dt", "M", "n"))
    ps.add_argument("--values", required=True, help="comma-separated axis values")
    ps.add_argument("--output-dir", default=None)
    ps.add_argument("--threads", type=int, default=1,
                    help="parallel worker processes for family members, at most one per member")
    ps.set_defaults(fn=cmd_sweep)

    pi = sub.add_parser("inspect", help="print metadata and norms of a snapshot file")
    pi.add_argument("path")
    pi.add_argument("--structured", action="store_true", help="JSON output")
    pi.set_defaults(fn=cmd_inspect)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParameterError, RegimeError, FileNotFoundError) as e:
        return _fail(str(e))
    except BlowUpError as e:
        print(f"blow-up: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
from concurrent.futures import ProcessPoolExecutor

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
                     build_stepper_config, config_sha256, parse_config,
                     serialize_config)
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
    if getattr(args, "output_dir", None):
        return args.output_dir
    env = os.environ.get("NEMATICFLOW_OUTPUT_DIR")
    if env:
        return env
    return cfg.diagnostics.output_dir


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


def _build_run(cfg: RunConfig) -> tuple:
    """(coeffs, regime report, grid, stepper config, regularization, cadence,
    snapshot cadence): all a run can be refused for but its initial state."""
    coeffs = build_coefficients(cfg)
    report = validate_coeffs(coeffs)
    if not report.admissible:
        bad = ", ".join(name for name, _ in report.violations) or "regime conditions"
        raise RegimeError(f"coefficient set is not admissible (failed: {bad})")
    return (coeffs, report, build_grid(cfg), build_stepper_config(cfg),
            build_regularization(cfg), *build_sampling(cfg))


def _execute_run(cfg: RunConfig, outdir: str, cadence: int | None = None) -> dict:
    """Run one configuration, write CSV/manifest/snapshots, return a summary."""
    _fix_malloc_thresholds()
    coeffs, report, grid, stepper_cfg, reg, cad, snap_cad = _build_run(cfg)
    state0 = build_initial_state(cfg, grid, coeffs)
    if cadence is not None:
        cad = cadence

    os.makedirs(outdir, exist_ok=True)
    hooks = ()
    if snap_cad > 0:
        def snapshot_hook(state, step_index):
            if step_index % snap_cad == 0:
                save_snapshot(os.path.join(outdir, f"u_{step_index:06d}.field"),
                              state.u, state.time, grid)
                save_snapshot(os.path.join(outdir, f"d_{step_index:06d}.field"),
                              state.d, state.time, grid)
        hooks = (snapshot_hook,)

    traj = run_solver(state0, stepper_cfg, reg=reg, hooks=hooks, cadence=cad)

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
    if args.cadence is not None and args.cadence < 1:
        return _fail(f"--cadence must be >= 1, got {args.cadence}")
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
    return 2 if summary["blown_up"] else 0


def _sweep_member(payload):
    """Worker for parallel sweep members (must be picklable)."""
    cfg, axis, value, outdir = payload
    summary = _execute_run(_member_config(cfg, axis, value), outdir)
    summary["axis_value"] = value
    return summary


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
    for v in values:  # refuse a bad member before any member runs
        _build_run(_member_config(cfg, args.axis, v))
    jobs = [(cfg, args.axis, v, os.path.join(outdir, label)) for v, label in zip(values, labels)]
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
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
        logs = [(math.log(v), math.log(s["max_abs_residual_case1"]))
                for v, s in zip(values, summaries)]
        xs, ys = zip(*logs)
        order = float(np.polyfit(xs, ys, 1)[0])
        print(f"fitted residual_case1 order vs dt: {order:.3f}")

    return 2 if any(s["blown_up"] for s in summaries) else 0


def cmd_inspect(args) -> int:
    field, t, meta = load_snapshot(args.path)
    mag = np.sqrt(_sum_squares(field, meta["dim"]))
    info = {
        "path": args.path,
        **meta,  # dim, n, ncomp and time
        "l2_norm": float(np.sqrt(np.mean(mag ** 2))),
        "sup_norm": float(mag.max()),
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
                    help="parallel worker processes for family members")
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
    except (ConfigError, ParameterError, RegimeError) as e:
        return _fail(str(e))
    except BlowUpError as e:
        print(f"blow-up: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())

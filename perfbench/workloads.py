"""The benchmark's workloads: generated configs, CLI arguments and output checks.

Every workload draws its perturbed-director initial condition from the
benchmark seed through ``[run] seed``; the program sees only the generated
config file.  ``Workload.shrunk`` gives the same workload at self-test sizes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

CRITERION6 = "alpha = 1.0\nnu = 1.0"
CASE2 = ("lambda1 = -1.0\nlambda2 = 0.2\nmu1 = 0.5\nmu2 = -0.5\nmu3 = 0.5\n"
         "mu4 = 1.0\nmu5 = 0.6\nmu6 = 0.4")
CASE1_CHANNELS = ("D_mu1", "D_visc", "D_case1_director", "D_case1_Ad", "D_reg")
MAX_ENERGY_INCREASE = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    n: int
    coefficients: str
    dt: float
    steps: int
    scheme: str
    cadence: int
    regularization: str = "enabled = false"
    sweep_dt: tuple = ()
    threads: int = 1
    checks: str = "audit"

    def config_text(self, seed: int) -> str:
        return (
            f"[grid]\ndim = {self.dim}\nn = {self.n}\n\n"
            f"[coefficients]\n{self.coefficients}\n\n"
            "[initial_condition]\npreset = perturbed-director\namplitude = 0.1\n\n"
            f"[stepper]\ndt = {self.dt!r}\nt_end = {self.steps * self.dt!r}\n"
            f"scheme = {self.scheme}\n\n"
            f"[regularization]\n{self.regularization}\n\n"
            f"[diagnostics]\ncadence = {self.cadence}\n\n"
            f"[run]\nseed = {seed}\n"
        )

    def argv(self, config_path: str, outdir: str) -> list[str]:
        if self.sweep_dt:
            return ["sweep", "--config", config_path, "--output-dir", outdir,
                    "--axis", "dt", "--values", ",".join(repr(v) for v in self.sweep_dt),
                    "--threads", str(self.threads)]
        return ["run", "--config", config_path, "--output-dir", outdir]

    def member_dirs(self, outdir: str) -> list[str]:
        if not self.sweep_dt:
            return [outdir]
        from nematicflow.cli import member_label
        return [os.path.join(outdir, member_label("dt", v)) for v in self.sweep_dt]

    def member_steps(self) -> list[int]:
        t_end = self.steps * self.dt
        return [round(t_end / v) for v in self.sweep_dt] or [self.steps]

    def shrunk(self) -> "Workload":
        """The same workload at self-test size: n=16 and a few steps."""
        fields = dict(self.__dict__, n=16, steps=max(4, self.steps // 25))
        if self.cadence > 1:
            fields["cadence"] = 2
        return Workload(**fields)


WORKLOADS = {w.name: w for w in (
    Workload(
        "audit-2d-n64",
        "criterion-6 run sampled every step: the audited run the package exists for,"
        " about half of it sampling",
        dim=2, n=64, coefficients=CRITERION6, dt=5e-4, steps=100,
        scheme="semi-implicit-euler", cadence=1, checks="audit"),
    Workload(
        "stride-2d-n128",
        "regularised imex-bdf2 step at n=128 sampled every 100 steps: step-bound,"
        " bypasses the sample layer",
        dim=2, n=128, coefficients=CRITERION6, dt=5e-4, steps=100,
        scheme="imex-bdf2", cadence=100,
        regularization="enabled = true\nm = 8\nr = 4.0", checks="stride"),
    Workload(
        "case2-3d-n32",
        "3D non-Parodi Case 2 set: the only path through 3x3 tensors, 3D transforms"
        " and nonzero mu1; memory-heavy",
        dim=3, n=32, coefficients=CASE2, dt=1e-3, steps=20,
        scheme="semi-implicit-euler", cadence=10, checks="case2"),
    Workload(
        "sweep-dt-2d-n64",
        "dt sweep of the criterion-6 run on a two-process pool: the sweep layer,"
        " where a threaded FFT would oversubscribe",
        dim=2, n=64, coefficients=CRITERION6, dt=5e-4, steps=100,
        scheme="semi-implicit-euler", cadence=1, sweep_dt=(1e-3, 5e-4), threads=2,
        checks="audit"),
)}


# -- output checks ---------------------------------------------------------------


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def check_outputs(w: Workload, outdir: str) -> tuple[list[str], dict]:
    """Check every member's manifest and diagnostics.csv.

    Returns the failed checks (empty when all pass) and the recorded outputs:
    max_energy_increase and the largest absolute residuals over all members,
    and each member's solver wall time.
    """
    from nematicflow.coeffs import eta_margin
    from nematicflow.config import build_coefficients, parse_config_text
    from nematicflow.diagnostics import EnergyReport, case2_lower_bound_check

    failed = []
    outputs = {"max_energy_increase": 0.0, "max_abs_residual_general": 0.0,
               "max_abs_residual_case1": 0.0}
    wall = []
    for outdir_m, steps in zip(w.member_dirs(outdir), w.member_steps()):
        label = os.path.basename(outdir_m)
        with open(os.path.join(outdir_m, "run_manifest.json")) as fh:
            manifest = json.load(fh)
        rows = read_rows(os.path.join(outdir_m, "diagnostics.csv"))
        for key in outputs:
            outputs[key] = max(outputs[key], abs(manifest[key]))
        wall.append(manifest["wall_time_s"])
        expected_samples = steps // w.cadence + (1 if steps % w.cadence == 0 else 2)

        def need(ok, what):
            if not ok:
                failed.append(f"{label}: {what}")

        need(not manifest["blown_up"], "blew up")
        need(manifest["n_steps"] == steps, f"n_steps {manifest['n_steps']} != {steps}")
        need(len(rows) == manifest["samples"] == expected_samples,
             f"{len(rows)} rows, {manifest['samples']} samples, expected {expected_samples}")
        if w.checks == "audit":
            need(manifest["max_energy_increase"] <= MAX_ENERGY_INCREASE,
                 f"max_energy_increase {manifest['max_energy_increase']:.3g}"
                 f" > {MAX_ENERGY_INCREASE:g}")
            need(all(r[c] >= 0.0 for r in rows for c in CASE1_CHANNELS),
                 "a Case-1 channel is negative")
        elif w.checks == "stride":
            need(rows[-1]["E_total"] < rows[0]["E_total"], "final energy not below initial")
            need(all(r["D_reg"] >= 0.0 for r in rows), "D_reg negative")
        elif w.checks == "case2":
            coeffs = build_coefficients(parse_config_text(manifest["config"]))
            eta = eta_margin(coeffs)
            mu56 = coeffs.mu5 + coeffs.mu6
            for r in rows:
                # norm_N_sq and norm_Ad_sq are not CSV columns; D_N and D_Ad carry them.
                rep = EnergyReport(
                    **{k: r[k] for k in EnergyReport.__dataclass_fields__ if k in r},
                    norm_N_sq=r["D_N"] / -coeffs.lambda1, norm_Ad_sq=r["D_Ad"] / mu56)
                need(case2_lower_bound_check(rep, eta),
                     f"Case 2 lower bound fails at t={r['time']}")
        else:
            raise ValueError(f"unknown checks {w.checks!r}")
    outputs["members_wall_s"] = wall
    return failed, outputs

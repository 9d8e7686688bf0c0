"""Config parsing round-trips and the command-line surface."""

import ctypes
import importlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nematicflow
from nematicflow import ConfigError, load_snapshot, save_snapshot
from nematicflow import cli
from nematicflow.cli import main, member_label
from nematicflow.config import (_SECTIONS, RunConfig, build_coefficients, build_grid,
                                build_initial_state, build_sampling, config_sha256,
                                parse_config_text, serialize_config)

REPO_ROOT = Path(__file__).resolve().parents[1]

ALPHA_CFG = """\
[grid]
dim = 2
n = 16

[coefficients]
alpha = 1.0
nu = 1.0

[initial_condition]
preset = quiescent

[stepper]
dt = 0.001
t_end = 0.005

[run]
seed = 3
"""

EXPLICIT_BAD = """\
[coefficients]
lambda1 = 1.0
lambda2 = 1.0
mu1 = 0.0
mu2 = 0.0
mu3 = -1.0
mu4 = 1.0
mu5 = 1.0
mu6 = 0.0
"""

CASE2_CFG = """\
[coefficients]
lambda1 = -1.0
lambda2 = 0.3
mu1 = 0.0
mu2 = -0.5
mu3 = 0.5
mu4 = 1.0
mu5 = 0.6
mu6 = 0.3
"""

# Every coefficient zero: lambda1 < 0 and mu4 > 0 fail at their strict bounds.
ZERO_CFG = "[coefficients]\n" + "".join(
    f"{name} = 0.0\n" for name in ("lambda1", "lambda2", "mu1", "mu2", "mu3", "mu4", "mu5", "mu6"))

# The full `validate` stdout of EXPLICIT_BAD, CASE2_CFG and ZERO_CFG, plain and --structured.
VALIDATE_PLAIN = {
    EXPLICIT_BAD: """\
coefficients: {'lambda1': 1.0, 'lambda2': 1.0, 'mu1': 0.0, 'mu2': 0.0, 'mu3': -1.0, \
'mu4': 1.0, 'mu5': 1.0, 'mu6': 0.0, 'epsilon': 0.1}
  FAIL  lambda1 < 0
  PASS  mu1 >= 0
  PASS  mu4 > 0
  PASS  mu5 + mu6 >= 0
  PASS  lambda1 = mu2 - mu3
  PASS  lambda2 = mu5 - mu6
  PASS  Parodi mu2 + mu3 = mu6 - mu5
  violated: lambda1<0 (residual 1)
regime: case1=False case2=False
""",
    CASE2_CFG: """\
coefficients: {'lambda1': -1.0, 'lambda2': 0.3, 'mu1': 0.0, 'mu2': -0.5, 'mu3': 0.5, \
'mu4': 1.0, 'mu5': 0.6, 'mu6': 0.3, 'epsilon': 0.1}
  PASS  lambda1 < 0
  PASS  mu1 >= 0
  PASS  mu4 > 0
  PASS  mu5 + mu6 >= 0
  PASS  lambda1 = mu2 - mu3
  PASS  lambda2 = mu5 - mu6
  FAIL  Parodi mu2 + mu3 = mu6 - mu5
  violated: mu2+mu3=mu6-mu5 (residual 0.3)
regime: case1=False case2=True
""",
    ZERO_CFG: """\
coefficients: {'lambda1': 0.0, 'lambda2': 0.0, 'mu1': 0.0, 'mu2': 0.0, 'mu3': 0.0, \
'mu4': 0.0, 'mu5': 0.0, 'mu6': 0.0, 'epsilon': 0.1}
  FAIL  lambda1 < 0
  PASS  mu1 >= 0
  FAIL  mu4 > 0
  PASS  mu5 + mu6 >= 0
  PASS  lambda1 = mu2 - mu3
  PASS  lambda2 = mu5 - mu6
  PASS  Parodi mu2 + mu3 = mu6 - mu5
  violated: lambda1<0 (at bound, lambda1 = 0)
  violated: mu4>0 (at bound, mu4 = 0)
regime: case1=False case2=False
""",
}
_ALL_PASS = {"lambda1_negative": True, "mu1_nonnegative": True, "mu4_positive": True,
             "mu56_nonnegative": True, "lambda1_identity": True, "lambda2_identity": True,
             "parodi_holds": True}
VALIDATE_STRUCTURED = {
    EXPLICIT_BAD: {
        **_ALL_PASS, "lambda1_negative": False, "case1": False, "case2": False,
        "violations": [["lambda1<0", 1.0]],
        "coefficients": {"lambda1": 1.0, "lambda2": 1.0, "mu1": 0.0, "mu2": 0.0,
                         "mu3": -1.0, "mu4": 1.0, "mu5": 1.0, "mu6": 0.0, "epsilon": 0.1},
    },
    CASE2_CFG: {
        **_ALL_PASS, "parodi_holds": False, "case1": False, "case2": True,
        "violations": [["mu2+mu3=mu6-mu5", 0.3]],
        "coefficients": {"lambda1": -1.0, "lambda2": 0.3, "mu1": 0.0, "mu2": -0.5,
                         "mu3": 0.5, "mu4": 1.0, "mu5": 0.6, "mu6": 0.3, "epsilon": 0.1},
    },
    ZERO_CFG: {
        **_ALL_PASS, "lambda1_negative": False, "mu4_positive": False,
        "case1": False, "case2": False,
        "violations": [["lambda1<0", 0.0], ["mu4>0", 0.0]],
        "coefficients": {**dict.fromkeys(("lambda1", "lambda2", "mu1", "mu2", "mu3",
                                          "mu4", "mu5", "mu6"), 0.0), "epsilon": 0.1},
    },
}

# Any value of each key kind; strings avoid the INI syntax (spaces, '#', newlines).
_KIND_VALUES = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCZ0123456789._-/"),
    "bool": st.booleans(),
}
_CONFIGS = st.builds(RunConfig, **{
    section: st.builds(cls, **{
        key: st.none() | _KIND_VALUES[kind.removeprefix("opt")] if kind.startswith("opt")
        else _KIND_VALUES[kind]
        for key, kind in schema.items()
    })
    for section, (cls, schema) in _SECTIONS.items()
})


class TestConfigParsing:
    def test_round_trip_is_exact(self):
        cfg = parse_config_text(ALPHA_CFG)
        text = serialize_config(cfg)
        assert parse_config_text(text) == cfg
        # canonical form is a fixed point
        assert serialize_config(parse_config_text(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(_CONFIGS)
    def test_round_trip_property(self, cfg):
        text = serialize_config(cfg)
        assert parse_config_text(text) == cfg
        assert serialize_config(parse_config_text(text)) == text

    def test_defaults(self):
        cfg = parse_config_text("")
        assert cfg == RunConfig()
        assert cfg.stepper.scheme == "semi-implicit-euler"
        assert cfg.diagnostics.cadence == 1

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[solvr\]"):
            parse_config_text("[solvr]\ndt = 0.1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"\[stepper\] unknown key"):
            parse_config_text("[stepper]\ndtt = 0.1\n")

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match=r"\[grid\] n: expected int"):
            parse_config_text("[grid]\nn = sixteen\n")
        with pytest.raises(ConfigError, match=r"\[regularization\] enabled"):
            parse_config_text("[regularization]\nenabled = yep\n")

    def test_coefficient_styles_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_and_build(ALPHA_CFG.replace("[initial_condition]",
                                              "lambda1 = -1.0\n\n[initial_condition]"))
        with pytest.raises(ConfigError, match="nu is only meaningful"):
            parse_and_build("[coefficients]\nnu = 2.0\n")
        with pytest.raises(ConfigError, match="missing values: lambda2, mu2"):
            parse_and_build("[coefficients]\nlambda1 = -1.0\nmu1 = 0.0\nmu3 = 0.0\n"
                            "mu4 = 1.0\nmu5 = 1.0\nmu6 = 0.0\n")

    def test_sha_tracks_content(self):
        a = config_sha256(parse_config_text(ALPHA_CFG))
        assert a == config_sha256(parse_config_text(ALPHA_CFG))
        assert a != config_sha256(parse_config_text(ALPHA_CFG.replace("seed = 3",
                                                                      "seed = 4")))

    def test_initial_state_presets(self):
        cfg = parse_config_text(ALPHA_CFG)
        grid, coeffs = build_grid(cfg), build_coefficients(cfg)
        st = build_initial_state(cfg, grid, coeffs)
        assert not st.u.any() and st.d[2].min() == 1.0

        cfg.initial_condition.preset = "perturbed-director"
        cfg.initial_condition.amplitude = 0.05
        st = build_initial_state(cfg, grid, coeffs)
        assert not st.u.any()
        assert 0.0 < np.abs(st.d[0]).max() < 0.2

        cfg.initial_condition.preset = "spiral"
        with pytest.raises(ConfigError, match="unknown preset"):
            build_initial_state(cfg, grid, coeffs)


def parse_and_build(text):
    return build_coefficients(parse_config_text(text))


def test_member_label():
    assert member_label("dt", 5e-4) == "dt_0p0005"
    assert member_label("dt", 1e-05) == "dt_1em05"
    assert member_label("M", 8) == "M_8"
    assert member_label("n", 64) == "n_64"


@pytest.fixture()
def cfg_file(tmp_path):
    def write(text, name="run.ini"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


class TestValidateCommand:
    def test_admissible_alpha(self, cfg_file, capsys):
        rc = main(["validate", "--config", cfg_file(ALPHA_CFG)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out
        assert "case1=True" in out

    def test_inadmissible_explicit(self, cfg_file, capsys):
        rc = main(["validate", "--config", cfg_file(EXPLICIT_BAD)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "violated: lambda1<0" in out

    def test_case2_only_is_admissible(self, cfg_file, capsys):
        rc = main(["validate", "--config", cfg_file(CASE2_CFG)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "case1=False case2=True" in out

    def test_structured_output(self, cfg_file, capsys):
        rc = main(["validate", "--structured", "--config", cfg_file(ALPHA_CFG)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["case1"] is True
        assert payload["coefficients"]["mu4"] == 1.0

    @pytest.mark.parametrize("text, rc", [(EXPLICIT_BAD, 1), (CASE2_CFG, 0), (ZERO_CFG, 1)],
                             ids=["explicit-bad", "case2", "all-zero"])
    def test_output_golden(self, cfg_file, capsys, text, rc):
        path = cfg_file(text)
        assert main(["validate", "--config", path]) == rc
        assert capsys.readouterr().out == VALIDATE_PLAIN[text]
        assert main(["validate", "--structured", "--config", path]) == rc
        out = capsys.readouterr().out
        assert json.loads(out) == VALIDATE_STRUCTURED[text]
        assert out == json.dumps(VALIDATE_STRUCTURED[text], indent=2, sort_keys=True) + "\n"

    def test_missing_file(self, capsys):
        rc = main(["validate", "--config", "/nonexistent/run.ini"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_outputs(self, cfg_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        rc = main(["run", "--config", cfg_file(ALPHA_CFG),
                   "--output-dir", str(outdir)])
        assert rc == 0
        for name in ("diagnostics.csv", "u_final.field", "d_final.field",
                     "run_manifest.json"):
            assert (outdir / name).exists(), name
        manifest = json.loads((outdir / "run_manifest.json").read_text())
        assert manifest["n_steps"] == 5
        assert manifest["blown_up"] is False
        assert manifest["blowup_reason"] is None
        assert manifest["final_E_total"] == 0.0
        assert manifest["config_sha256"] == config_sha256(parse_config_text(ALPHA_CFG))
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0
        assert "final E_total" in capsys.readouterr().out

    def test_determinism_bitwise(self, cfg_file, tmp_path):
        cfg = cfg_file(ALPHA_CFG.replace("preset = quiescent",
                                         "preset = perturbed-director\namplitude = 0.1"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--output-dir", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--output-dir", str(out2)]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == \
               (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "u_final.field").read_bytes() == \
               (out2 / "u_final.field").read_bytes()

    def test_env_var_output_dir(self, cfg_file, tmp_path, monkeypatch):
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("NEMATICFLOW_OUTPUT_DIR", str(envdir))
        assert main(["run", "--config", cfg_file(ALPHA_CFG)]) == 0
        assert (envdir / "diagnostics.csv").exists()

    def test_snapshot_cadence_and_inspect(self, cfg_file, tmp_path, capsys):
        text = ALPHA_CFG + "\n[diagnostics]\nsnapshot_cadence = 2\n"
        outdir = tmp_path / "snaps"
        assert main(["run", "--config", cfg_file(text),
                     "--output-dir", str(outdir)]) == 0
        assert (outdir / "u_000002.field").exists()
        capsys.readouterr()

        rc = main(["inspect", str(outdir / "d_final.field")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3-component field" in out

        rc = main(["inspect", "--structured", str(outdir / "d_final.field")])
        info = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert info["ncomp"] == 3 and info["n"] == 16
        assert info["sup_norm"] == pytest.approx(1.0)
        field, _, _ = load_snapshot(str(outdir / "d_final.field"))
        mag = np.linalg.norm(field, axis=0)
        assert info["l2_norm"] == pytest.approx(np.linalg.norm(mag) / np.sqrt(mag.size), rel=1e-14)
        assert info["sup_norm"] == pytest.approx(mag.max(), rel=1e-15)

    def test_run_frees_the_initial_state(self, cfg_file, tmp_path, monkeypatch):
        """The command keeps no reference to its initial state, so the state
        is freed once the first step has returned: every snapshot after step
        0's is written with the initial state gone."""
        refs, alive = [], []

        def build(*args, **kwargs):
            state = build_initial_state(*args, **kwargs)
            refs.append(weakref.ref(state))
            return state

        def save(path, field, time, grid):
            alive.append(refs[0]() is not None)
            save_snapshot(path, field, time, grid)

        monkeypatch.setattr(cli, "build_initial_state", build)
        monkeypatch.setattr(cli, "save_snapshot", save)
        text = ALPHA_CFG.replace("preset = quiescent",
                                 "preset = perturbed-director\namplitude = 0.1")
        text += "\n[diagnostics]\nsnapshot_cadence = 1\n"
        assert main(["run", "--config", cfg_file(text), "--output-dir", str(tmp_path / "out")]) == 0
        # u and d of steps 0..5, then of the final state
        assert alive == [True, True] + [False] * 12

    def test_inadmissible_config_fails(self, cfg_file, capsys):
        text = ALPHA_CFG.replace("alpha = 1.0\nnu = 1.0", EXPLICIT_BAD.split("\n", 1)[1])
        rc = main(["run", "--config", cfg_file(text)])
        assert rc == 1
        assert "not admissible" in capsys.readouterr().err


# Each input fails in a constructor that knows nothing of the INI layout;
# the error must still name the section the bad value came from.
SECTION_ERRORS = {
    "grid-n": (ALPHA_CFG.replace("n = 16", "n = 12"), "[grid] n must be"),
    "stepper-dt": (ALPHA_CFG.replace("dt = 0.001", "dt = -1"), "[stepper] dt must be"),
    "regularization-r": (ALPHA_CFG + "\n[regularization]\nenabled = true\nr = 3.0\n",
                         "[regularization] regularization exponent r"),
    "coefficients-mu4": (ALPHA_CFG.replace("alpha = 1.0\nnu = 1.0",
                                           CASE2_CFG.split("\n", 1)[1].replace(
                                               "mu4 = 1.0", "mu4 = inf")),
                         "[coefficients] coefficient mu4 must be finite"),
    "initial-condition-kmax": (ALPHA_CFG.replace("preset = quiescent",
                                                 "preset = perturbed-director\nkmax = 40"),
                               "[initial_condition] kmax must be"),
    "initial-condition-amplitude": (ALPHA_CFG.replace("preset = quiescent",
                                                      "preset = perturbed-director\namplitude = inf"),
                                    "[initial_condition] non-finite values in state fields"),
    "initial-condition-3d-taylor-green": (
        ALPHA_CFG.replace("dim = 2", "dim = 3").replace(
            "preset = quiescent", "preset = taylor-green-uniform-director"),
        "[initial_condition] taylor-green initial condition is 2D only"),
    "diagnostics-cadence": (ALPHA_CFG + "\n[diagnostics]\ncadence = 0\n",
                            "[diagnostics] cadence must be >= 1, got 0"),
    "diagnostics-snapshot-cadence": (ALPHA_CFG + "\n[diagnostics]\nsnapshot_cadence = -3\n",
                                     "[diagnostics] snapshot_cadence must be >= 0, got -3"),
    "diagnostics-snapshot-off-samples": (
        ALPHA_CFG + "\n[diagnostics]\ncadence = 3\nsnapshot_cadence = 2\n",
        "[diagnostics] snapshot_cadence must be a multiple of the sampling cadence 3, got 2"),
    "regularization-r-inf": (ALPHA_CFG + "\n[regularization]\nenabled = true\nr = inf\n",
                             "[regularization] regularization exponent r must be finite"),
}


@pytest.mark.parametrize("case", list(SECTION_ERRORS))
def test_bad_value_error_names_its_section(cfg_file, tmp_path, capsys, case):
    text, message = SECTION_ERRORS[case]
    rc = main(["run", "--config", cfg_file(text), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {message}"), err
    section = message.split("]")[0] + "]"
    assert err.count(section) == 1, err
    assert not (tmp_path / "out").exists()


SNAP_2 = "\n[diagnostics]\nsnapshot_cadence = 2\n"
SNAP_2_OFF_SAMPLES = "[diagnostics] snapshot_cadence must be a multiple of the sampling cadence"


@pytest.mark.parametrize("argv, extra, message", [
    (["run", "--cadence", "0"], "", "--cadence must be >= 1, got 0"),
    (["sweep", "--axis", "dt", "--values", "0.001", "--threads", "-4"], "",
     "--threads must be >= 1, got -4"),
    (["run", "--cadence", "3"], SNAP_2, f"{SNAP_2_OFF_SAMPLES} 3, got 2"),
    (["sweep", "--axis", "dt", "--values", "0.001,0.0005"],
     SNAP_2.replace("[diagnostics]", "[diagnostics]\ncadence = 4"), f"{SNAP_2_OFF_SAMPLES} 4, got 2"),
], ids=["run-cadence", "sweep-threads", "run-cadence-snapshots", "sweep-snapshots"])
def test_bad_count_flag_fails_before_writing(cfg_file, tmp_path, capsys, argv, extra, message):
    """A bad count, from a flag or from the configuration a flag overrides,
    ends the command with exit 1 before it writes anything; a sweep refuses
    before any member runs."""
    out = tmp_path / "out"
    rc = main(argv + ["--config", cfg_file(ALPHA_CFG + extra), "--output-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()



@pytest.mark.parametrize("cadence", [0, -2])
def test_build_sampling_refuses_an_override_below_one(cadence):
    """build_sampling checks the cadence it returns, the override when one
    is given, and names it as the flag it comes from."""
    cfg = parse_config_text(ALPHA_CFG)
    with pytest.raises(ConfigError, match=f"^--cadence must be >= 1, got {cadence}$"):
        build_sampling(cfg, cadence)
    assert build_sampling(cfg, 2) == (2, 0)

class TestSweepCommand:
    def test_dt_axis(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(ALPHA_CFG.replace("preset = quiescent",
                                         "preset = perturbed-director\namplitude = 0.1")
                       .replace("t_end = 0.005", "t_end = 0.01"))
        outdir = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg, "--axis", "dt",
                   "--values", "0.001,0.0005", "--output-dir", str(outdir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert (outdir / "dt_0p001" / "run_manifest.json").exists()
        assert (outdir / "dt_0p0005" / "run_manifest.json").exists()
        assert "fitted residual_case1 order vs dt" in out

        rows = (outdir / "sweep_summary.csv").read_text().splitlines()
        assert rows[0].startswith("member,axis,value")
        assert len(rows) == 3

    def test_dt_order_is_the_least_squares_slope_without_blas(self, cfg_file, tmp_path,
                                                              capsys, monkeypatch):
        """With numpy's line fit and least-squares solver made to raise, a dt
        sweep still exits 0, and the order it prints is np.polyfit's slope of
        log max|residual_case1| against log dt, to the printed 3 decimals;
        unrounded, cli._slope agrees with it to 1e-12 relative."""
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep called BLAS/LAPACK")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        cfg = cfg_file(ALPHA_CFG.replace("preset = quiescent",
                                         "preset = perturbed-director\namplitude = 0.1")
                       .replace("t_end = 0.005", "t_end = 0.01"))
        outdir = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg, "--axis", "dt", "--values", "0.002,0.001,0.0005",
                   "--threads", "1", "--output-dir", str(outdir)])
        out = capsys.readouterr().out
        assert rc == 0
        monkeypatch.undo()  # np.polyfit solves by np.linalg.lstsq

        rows = [row.split(",") for row in
                (outdir / "sweep_summary.csv").read_text().splitlines()[1:]]
        xs = [np.log(float(row[2])) for row in rows]
        ys = [np.log(float(row[5])) for row in rows]
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert out.splitlines()[-1] == f"fitted residual_case1 order vs dt: {slope:.3f}"
        assert cli._slope(xs, ys) == pytest.approx(slope, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("axis, values, message", [
        ("n", "16,12", "[grid] n must be a power of two >= 8, got 12"),
        ("dt", "0.001,0.002", "[stepper] t_end=0.005 is not an integer multiple of dt=0.002"),
    ], ids=["n", "dt"])
    def test_bad_member_fails_before_any_member_runs(self, cfg_file, tmp_path, capsys,
                                                     axis, values, message):
        """A member that its configuration refuses ends the sweep with exit 1
        before the first member runs: no member directory, no summary."""
        outdir = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg_file(ALPHA_CFG), "--axis", axis,
                   "--values", values, "--output-dir", str(outdir)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("values", ["0.001,1e-3", "0.001,0.001000000000001"],
                             ids=["equal", "same-label"])
    def test_members_sharing_a_directory_fail_before_any_member_runs(
            self, cfg_file, tmp_path, capsys, values):
        """Two values whose member directories would be the same one end the
        sweep with exit 1 before any member runs, also on a process pool."""
        outdir = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg_file(ALPHA_CFG), "--axis", "dt",
                   "--values", values, "--threads", "2", "--output-dir", str(outdir)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: sweep members must have distinct "
                                           "directory names, got ['dt_0p001', 'dt_0p001']\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("threads, values, pools", [
        (3, "0.001,0.0005", [2]), (2, "0.001,0.0005", [2]), (4, "0.001", []),
    ])
    def test_pool_has_at_most_one_worker_per_member(self, cfg_file, tmp_path, monkeypatch,
                                                    threads, values, pools):
        """--threads is capped at the member count, since the fork start
        method launches every worker on the first submit; one member runs
        without a pool.  A serial stand-in pool records its size, so no
        process starts."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        outdir = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg_file(ALPHA_CFG), "--axis", "dt", "--values", values,
                   "--threads", str(threads), "--output-dir", str(outdir)])
        assert rc == 0
        assert sizes == pools
        assert len((outdir / "sweep_summary.csv").read_text().splitlines()) == 1 + len(
            values.split(","))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_member_initial_condition_is_refused_before_any_member_runs(
            self, cfg_file, tmp_path, monkeypatch, capsys, threads):
        """kmax = 4 fits the n = 16 member (band 5) but not the n = 8 one
        (band 2): the sweep exits 1 with the builder's message before the
        first member runs, serially and on a pool.  A stand-in pool records
        whether it was built, so no process starts."""
        built = []

        class RecordingPool:
            def __init__(self, max_workers):
                built.append(max_workers)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        text = ALPHA_CFG.replace("preset = quiescent", "preset = perturbed-director\nkmax = 4")
        outdir = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg_file(text), "--axis", "n", "--values", "16,8",
                   "--threads", str(threads), "--output-dir", str(outdir)])
        assert rc == 1
        assert capsys.readouterr().err == "error: [initial_condition] kmax must be in [1, 2], got 4\n"
        assert not outdir.exists()
        assert built == []

    def test_snapshot_member_is_refused_from_its_header(self, cfg_file, tmp_path, monkeypatch,
                                                        capsys):
        """A snapshot preset swept over n: the n = 8 member's grid does not
        match the n = 16 snapshots, and the sweep refuses it from their
        headers before any member runs, without reading a payload."""
        grid = nematicflow.SpectralGrid(2, 16)
        paths = {name: str(tmp_path / f"{name}.field") for name in "ud"}
        save_snapshot(paths["u"], np.zeros((2,) + grid.shape), 0.0, grid)
        save_snapshot(paths["d"], np.ones((3,) + grid.shape), 0.0, grid)

        def no_payload(path):
            raise AssertionError(f"payload of {path} read")
        monkeypatch.setattr(nematicflow.config, "load_snapshot", no_payload)
        text = ALPHA_CFG.replace("preset = quiescent",
                                 f"preset = snapshot\nu_path = {paths['u']}\n"
                                 f"d_path = {paths['d']}")
        outdir = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg_file(text), "--axis", "n", "--values", "16,8",
                   "--output-dir", str(outdir)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: [initial_condition] u snapshot holds a 2-component 2D n=16 field, "
            "expected 2 components on the configured 2D n=8 grid\n")
        assert not outdir.exists()

    def test_bad_values(self, cfg_file, capsys):
        rc = main(["sweep", "--config", cfg_file(ALPHA_CFG), "--axis", "dt",
                   "--values", "abc"])
        assert rc == 1
        assert "comma-separated" in capsys.readouterr().err


HUGE_CFG = ALPHA_CFG.replace("preset = quiescent",
                             "preset = perturbed-director\namplitude = 1e80")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_first_step_blowup_writes_a_run_without_samples(cfg_file, tmp_path, capsys, command):
    """|d| ~ 1e80 blows up in the first step, before any sample: the command
    exits 2 and writes a manifest with no sample values and a CSV with no rows."""
    outdir = tmp_path / "out"
    args = [command, "--config", cfg_file(HUGE_CFG), "--output-dir", str(outdir)]
    if command == "sweep":
        args += ["--axis", "dt", "--values", "0.001"]
    assert main(args) == 2
    member = outdir / "dt_0p001" if command == "sweep" else outdir

    def reject(constant):
        raise ValueError(f"non-finite {constant} in run_manifest.json")
    manifest = json.loads((member / "run_manifest.json").read_text(), parse_constant=reject)
    assert manifest["blown_up"] and manifest["blowup_step"] == 0
    assert manifest["samples"] == 0
    for key in ("final_E_total", "max_abs_residual_general", "max_abs_residual_case1"):
        assert manifest[key] is None
    lines = (member / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("# units") and lines[1].startswith("time,")
    if command == "sweep":
        rows = (outdir / "sweep_summary.csv").read_text().splitlines()
        assert rows[1].split(",")[-2] == "true"
        assert "dt_0p001" in capsys.readouterr().out


def _has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return True


CASE2_3D_CFG = """\
[grid]
dim = 3
n = 32

[coefficients]
lambda1 = -1.0
lambda2 = 0.2
mu1 = 0.5
mu2 = -0.5
mu3 = 0.5
mu4 = 1.0
mu5 = 0.6
mu6 = 0.4

[initial_condition]
preset = perturbed-director
amplitude = 0.1

[stepper]
dt = 0.001
t_end = 0.005

[run]
seed = 5
"""


@pytest.mark.skipif(not _has_mallopt(), reason="this libc has no mallopt")
def test_run_reuses_the_heap(cfg_file, tmp_path):
    """A repeated run takes its step temporaries from the heap the first run
    left, instead of faulting them in from the kernel again: left to glibc's
    dynamic thresholds, the second run faults over 20,000 pages."""
    import resource  # POSIX only, like mallopt

    args = ["run", "--config", cfg_file(CASE2_3D_CFG), "--output-dir", str(tmp_path / "out")]
    assert main(args) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(args) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def _no_shared_object(name):
    raise OSError("cannot load the C library")


def _no_path_handle(name):
    raise TypeError("expected a library name")


def _libc_without_mallopt(name):
    return types.SimpleNamespace()


def _libc_refusing_mallopt(name):
    return types.SimpleNamespace(mallopt=lambda param, value: 0)


@pytest.fixture()
def unfixed_malloc():
    """Drop the cached result of cli._fix_malloc_thresholds after the test,
    so later runs call the real mallopt again."""
    yield
    cli._fix_malloc_thresholds.cache_clear()


@pytest.mark.parametrize("cdll", [_no_shared_object, _no_path_handle, _libc_without_mallopt,
                                  _libc_refusing_mallopt])
def test_run_without_mallopt_writes_the_same_outputs(cfg_file, tmp_path, monkeypatch,
                                                     unfixed_malloc, cdll):
    """Where the C library has no mallopt, or refuses the thresholds, a run
    still succeeds with the same output bytes."""
    cfg = cfg_file(ALPHA_CFG.replace("preset = quiescent",
                                     "preset = perturbed-director\namplitude = 0.1"))
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "a")]) == 0
    cli._fix_malloc_thresholds.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "b")]) == 0
    assert cli._fix_malloc_thresholds() is False
    for name in ("diagnostics.csv", "u_final.field", "d_final.field"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def _pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


def _declared_version(pyproject):
    """[project] version, or for a dynamic version the attribute that
    [tool.setuptools.dynamic] names, resolved as setuptools resolves it."""
    project = pyproject["project"]
    if "version" not in project.get("dynamic", []):
        return project["version"]
    spec = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, _, attr = spec.rpartition(".")
    return getattr(importlib.import_module(module), attr)


def _installed_by_installer():
    """True only for a distribution an installer recorded; a stray
    egg-info on the path has no INSTALLER file and does not count."""
    try:
        dist = importlib.metadata.distribution("nematicflow")
    except importlib.metadata.PackageNotFoundError:
        return False
    return dist.read_text("INSTALLER") is not None


# Resolves and calls the entry point the way pip's generated wrapper does.
WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name=sys.argv[1], value=sys.argv[2], group="console_scripts").load()
sys.argv = sys.argv[1:2] + sys.argv[3:]
sys.exit(main())
"""


def test_console_script_installed(cfg_file, tmp_path):
    """The declared `nematicflow` console script resolves to `cli.main` and
    behaves as a command, whether or not the package is installed."""
    pyproject = _pyproject()
    value = pyproject["project"].get("scripts", {}).get("nematicflow")
    assert value is not None, "[project.scripts] declares no nematicflow command"
    ep = importlib.metadata.EntryPoint(name="nematicflow", value=value,
                                       group="console_scripts")
    assert ep.load() is main

    # The fresh interpreter runs in tmp_path, where an inherited relative
    # PYTHONPATH misses; point it at the package this test imported.
    pkg_root = str(Path(nematicflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}

    def command(*args):
        return subprocess.run([sys.executable, "-c", WRAPPER, "nematicflow", value, *args],
                              capture_output=True, text=True, cwd=tmp_path, env=env)

    res = command("--version")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"nematicflow {_declared_version(pyproject)}"

    res = command("validate", "--config", cfg_file("[solvr]\ndt = 0.1\n"))
    assert res.returncode == 1
    assert "unknown section [solvr]" in res.stderr


def test_python_m_nematicflow(tmp_path):
    """`python -m nematicflow` runs the same command as the entry point."""
    pkg_root = str(Path(nematicflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": pkg_root}
    res = subprocess.run([sys.executable, "-m", "nematicflow", "--version"],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"nematicflow {nematicflow.__version__}"


def test_cli_loads_the_process_pool_only_for_a_parallel_sweep(cfg_file, tmp_path):
    """A fresh interpreter that imports the CLI and runs a configuration has
    not imported concurrent.futures.process (and with it multiprocessing):
    only `sweep --threads K`, K > 1, builds a pool."""
    pkg_root = str(Path(nematicflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": pkg_root}
    code = ("import sys, nematicflow.cli as cli\n"
            "loaded = 'concurrent.futures.process' in sys.modules\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, loaded, 'concurrent.futures.process' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code, "run", "--config", cfg_file(ALPHA_CFG),
                          "--output-dir", str(tmp_path / "out")],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False False"


def test_parallel_sweep_parent_imports_neither_numpy_random_nor_fft(cfg_file, tmp_path):
    """A fresh interpreter running `sweep --threads 2`, with a stand-in pool
    whose map returns canned member summaries so no worker runs, checks
    every member up front without importing numpy.random or numpy.fft: the
    parent builds no field, and those imports would raise its peak RSS."""
    pkg_root = str(Path(nematicflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": pkg_root}
    code = ("import sys, nematicflow.cli as cli\n"
            "class CannedPool:\n"
            "    def __init__(self, max_workers): pass\n"
            "    def __enter__(self): return self\n"
            "    def __exit__(self, *exc_info): return False\n"
            "    def map(self, fn, jobs):\n"
            "        return [dict(final_E_total=1.0, max_abs_residual_general=1e-3 * k,\n"
            "                     max_abs_residual_case1=1e-3 * k, blown_up=False,\n"
            "                     wall_time_s=0.0) for k, _ in enumerate(jobs, 1)]\n"
            "cli.ProcessPoolExecutor = CannedPool\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, 'numpy.random' in sys.modules, 'numpy.fft' in sys.modules)\n")
    text = ALPHA_CFG.replace("preset = quiescent", "preset = perturbed-director\namplitude = 0.1")
    res = subprocess.run([sys.executable, "-c", code, "sweep", "--config", cfg_file(text),
                          "--axis", "dt", "--values", "0.001,0.0005", "--threads", "2",
                          "--output-dir", str(tmp_path / "out")],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    assert "fitted residual_case1 order" in res.stdout
    assert res.stdout.splitlines()[-1] == "0 False False"


def test_public_names_resolve_once():
    """Every name in nematicflow.__all__ is bound in the package and listed
    once, so `from nematicflow import *` imports each of them."""
    names = nematicflow.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(nematicflow, n)] == []
    namespace = {}
    exec("from nematicflow import *", namespace)
    assert set(names) <= namespace.keys()


@pytest.mark.skipif(not _installed_by_installer(),
                    reason="nematicflow is not installed by an installer "
                           "(no distribution with an INSTALLER file; "
                           "pip install -e .), so no console script is on PATH")
def test_console_script_on_path():
    exe = shutil.which("nematicflow")
    assert exe is not None
    assert os.access(exe, os.X_OK)
    res = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    version = importlib.metadata.version("nematicflow")
    assert res.stdout.strip() == f"nematicflow {version}"

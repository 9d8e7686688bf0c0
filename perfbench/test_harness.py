"""Self-test of the benchmark harness at tiny sizes (2D and 3D n=16, a few steps).

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import CRITERION6, WORKLOADS, Workload, check_outputs  # noqa: E402

run.import_package()
E2E, LAYERS = run._load_benchmark_spec()

# Blows up in the 3D regularised scheme; the solver raises ParameterError
# from dealias at step 6 instead of BlowUpError (see README.md, findings).
RAISES = Workload("raises-3d-n16", "known failing input", dim=3, n=16,
                  coefficients=CRITERION6, dt=5e-4, steps=10,
                  scheme="semi-implicit-euler", cadence=1,
                  regularization="enabled = true\nm = 4")


@pytest.fixture(autouse=True)
def _outputs_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))


def run_emit(capsys, w, trace):
    run.emit(w, 5, 0.0, trace, LAYERS if trace else E2E, 0.0)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(capsys, name, trace):
    lines, res = run_emit(capsys, WORKLOADS[name].shrunk(), trace)
    units = LAYERS if trace else E2E
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    for metric, unit in units.items():
        assert any(line.split()[:1] == [metric] and line.split()[-1] == unit
                   for line in lines[:-1]), metric
    if trace:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["physics.constitutive.calls_per_step.in_step"] == 1.0
        assert m["spectral.fft.calls_per_step"] > 0 and m["spectral.fft.bytes_per_step"] > 0
        assert m["diagnostics.sample.ms"] > 0


def test_exact_counters_repeat(capsys):
    w = WORKLOADS["stride-2d-n128"].shrunk()
    counts = []
    for _ in range(2):
        _, res = run_emit(capsys, w, 1)
        counts.append({k: v["value"] for k, v in res["metrics"].items() if "calls" in k})
    assert counts[0] == counts[1]
    assert counts[0]["spectral.truncate_modes.calls_per_step"] == 1.0


def _passing_outputs(w, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(w.config_text(3))
    rec = run.run_once(w, str(config), str(tmp_path / "out"))
    assert rec["failure"] is None
    return str(tmp_path / "out")


def _edit_csv(path, column, fn):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    col = header.index(column)
    for i in range(2, len(lines)):
        cells = lines[i].split(",")
        cells[col] = repr(fn(float(cells[col]), i - 2))
        lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, column, fn, expect", [
    ("audit-2d-n64", "D_visc", lambda v, i: -1.0, "Case-1 channel is negative"),
    ("stride-2d-n128", "E_total", lambda v, i: float(i), "final energy not below initial"),
    ("stride-2d-n128", "D_reg", lambda v, i: -1.0, "D_reg negative"),
    ("case2-3d-n32", "D_cross", lambda v, i: -1e6, "Case 2 lower bound fails"),
    ("sweep-dt-2d-n64", "D_case1_director", lambda v, i: -v - 1.0, "Case-1 channel"),
])
def test_every_check_runs(tmp_path, name, column, fn, expect):
    w = WORKLOADS[name].shrunk()
    out = _passing_outputs(w, tmp_path)
    member = w.member_dirs(out)[-1]
    _edit_csv(os.path.join(member, "diagnostics.csv"), column, fn)
    failed, _ = check_outputs(w, out)
    assert any(expect in f for f in failed), failed


@pytest.mark.parametrize("key, value, expect", [
    ("blown_up", True, "blew up"),
    ("max_energy_increase", 1e-6, "max_energy_increase"),
    ("n_steps", 1, "n_steps"),
])
def test_manifest_checks_run(tmp_path, key, value, expect):
    w = WORKLOADS["audit-2d-n64"].shrunk()
    out = _passing_outputs(w, tmp_path)
    path = os.path.join(out, "run_manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest[key] = value
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    failed, _ = check_outputs(w, out)
    assert any(expect in f for f in failed), failed


@pytest.mark.parametrize("trace", [0, 1])
def test_raising_run_is_a_failure_not_a_crash(capsys, trace):
    lines, res = run_emit(capsys, RAISES, trace)
    assert not res["correct"]
    assert res["attempted"] >= 2 and res["failed"] == res["attempted"]
    assert any(line.startswith("FAILED: ParameterError") for line in lines)


def test_trace_mismatch_fails_the_benchmark(capsys, monkeypatch):
    digests = iter(["a", "b", "c", "d", "e", "f"])
    monkeypatch.setattr(run, "_digest", lambda w, outdir: next(digests))
    lines, res = run_emit(capsys, WORKLOADS["audit-2d-n64"].shrunk(), 1)
    assert not res["correct"] and res["failed"] >= 1
    assert any("outputs differ" in line for line in lines)


def test_tail_names_a_percentile_with_ten_beyond():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail(list(range(30))) == (50.0, 14)
    assert run.tail(list(range(5))) == (100.0, 4)

"""End-to-end tests of the command-line interface.

Each stage runs in-process through ``main(argv)`` on micro-sized plans,
checking exit codes, the single-line error contract on stderr, and the
artifact handoff between stages.
"""

import argparse
import csv
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from treeval.cli import (
    EXIT_ARTIFACT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    RunConfig,
    _load_surface,
    main,
)
from treeval.ensemble import BoostConfig
from treeval.measure import CopulaMeasure
from treeval.valuation import ValueSurface

MICRO = """
experiment:
  name: micro
  seed: 0
payoff:
  kind: min_put
  strike: 1.0
model:
  d: 2
plan:
  n_train: 120
  n_valid: 60
  n_test: 150
  n_inner: 10
estimator:
  kind: tree
  nodesize: 30
"""


def _cfg(tmp_path, text=MICRO, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def _err_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert re.match(r"^(CONFIG_ERROR|MISSING_ARTIFACT|RUNTIME_ERROR): .+$", err[0])
    return err[0]


# ------------------------------------------------------------ config errors


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    line = _err_line(capsys)
    assert line.startswith("CONFIG_ERROR:") and "not found" in line


def test_yaml_syntax_error_reports_position(tmp_path, capsys):
    cfg = _cfg(tmp_path, "payoff:\n  kind: min_put\n bad_indent: 1\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "line" in _err_line(capsys)


def test_unknown_section(tmp_path, capsys):
    cfg = _cfg(tmp_path, MICRO + "\nextras:\n  a: 1\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "unknown section 'extras'" in _err_line(capsys)


def test_unknown_key_reports_path(tmp_path, capsys):
    cfg = _cfg(tmp_path, MICRO.replace("n_train: 120", "n_trains: 120"))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "'plan.n_trains'" in _err_line(capsys)


def test_wrong_type_reports_key_path(tmp_path, capsys):
    cfg = _cfg(tmp_path, MICRO.replace("n_train: 120", "n_train: many"))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    line = _err_line(capsys)
    assert "plan.n_train" in line and "expected int" in line


def test_missing_payoff_section(tmp_path, capsys):
    cfg = _cfg(tmp_path, "experiment:\n  name: x\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "payoff" in _err_line(capsys)


def test_bad_estimator_kind(tmp_path, capsys):
    cfg = _cfg(tmp_path, MICRO.replace("kind: tree", "kind: mlp"))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "estimator.kind" in _err_line(capsys)


def test_missing_out_dir(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    rc = main(["simulate", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert "output directory" in _err_line(capsys)


# ------------------------------------------------------- RunConfig resolution


def _ns(**kw):
    base = dict(seed=None, scale=None, out=None)
    base.update(kw)
    return argparse.Namespace(**base)


def test_plan_resolution_by_scale():
    doc = {"payoff": {"kind": "min_put"}}
    desk = RunConfig(doc, _ns()).european_plan()
    assert (desk.n_train, desk.valid_size, desk.n_test, desk.n_inner) == \
        (5000, 2000, 20000, 200)
    paper = RunConfig(doc, _ns(scale="paper")).european_plan()
    assert (paper.n_train, paper.valid_size, paper.n_test, paper.n_inner) == \
        (20000, 8000, 100000, 1000)
    # a configured n_train leaves n_valid at the scale's size, not 0.4 * n_train
    sized = {"payoff": {"kind": "min_put"}, "plan": {"n_train": 100}}
    assert RunConfig(sized, _ns()).european_plan().valid_size == 2000
    assert RunConfig(sized, _ns(scale="paper")).european_plan().valid_size == 8000
    berm = {"bermudan": {"n_dates": 3}}
    assert RunConfig(berm, _ns()).bermudan_plan().n_test == 20000
    assert RunConfig(berm, _ns(scale="paper")).bermudan_plan().n_test == 100000


def test_seed_override_wins():
    doc = {"experiment": {"seed": 5}, "payoff": {"kind": "min_put"}}
    assert RunConfig(doc, _ns()).seed == 5
    assert RunConfig(doc, _ns(seed=3)).seed == 3


def test_default_estimator_is_boost():
    plan = RunConfig({"payoff": {"kind": "min_put"}}, _ns()).european_plan()
    assert plan.estimator_kind == "boost"
    assert plan.estimator == BoostConfig(rounds=400, learning_rate=0.1, nodesize=40,
                                         max_depth=15, patience=20, seed=7)


def test_clayton_measure_configuration():
    doc = {"payoff": {"kind": "min_put"}, "model": {"d": 2},
           "measure": {"kind": "clayton", "theta": 2.0}}
    plan = RunConfig(doc, _ns()).european_plan()
    assert isinstance(plan.measure, CopulaMeasure)
    from treeval.cli import ConfigError

    with pytest.raises(ConfigError, match="theta"):
        RunConfig({"payoff": {"kind": "min_put"},
                   "measure": {"kind": "clayton"}}, _ns()).european_plan()


# ------------------------------------------------------------- stage chain


def test_stage_chain(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"

    # train before simulate: missing artifact
    rc = main(["train", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    assert _err_line(capsys).startswith("MISSING_ARTIFACT:")

    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("samples.npz", "samples_meta.json", "config.snapshot"):
        assert (out / name).exists(), name
    with np.load(out / "samples.npz") as data:
        assert data["train_driver"].shape == (120, 2, 2)
        assert data["test_payoff"].shape == (150,)

    # value before train: missing artifact
    rc = main(["value", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    assert "flat_tree" in _err_line(capsys)

    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("flat_tree.npz", "flat_tree.txt", "training.json"):
        assert (out / name).exists(), name

    assert main(["value", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "value_surface_tree.csv").exists()
    assert (out / "value_surface_tree.meta.json").exists()

    assert main(["risk", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("risk.csv", "qq_t1.csv", "qq_tT.csv"):
        assert (out / name).exists(), name
    capsys.readouterr()

    # re-value at dates {0, T} only; risk then lacks date 1
    assert main(["value", "--config", cfg, "--out", str(out),
                 "--t", "0", "T"]) == EXIT_OK
    rc = main(["risk", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    assert "date 1" in _err_line(capsys)


@pytest.mark.parametrize("text, dates", [
    (MICRO, (0, 1, 2)),
    (MICRO.replace("d: 2", "d: 2\n  steps: [1.0]"), (0, 1)),
])
def test_staged_chain_and_report_write_the_same_files(tmp_path, capsys, text, dates):
    cfg = _cfg(tmp_path, text)
    staged, report = tmp_path / "staged", tmp_path / "report"
    for stage in ("simulate", "train", "value", "risk"):
        assert main([stage, "--config", cfg, "--out", str(staged)]) == EXIT_OK, stage
    assert main(["report", "--config", cfg, "--out", str(report)]) == EXIT_OK
    capsys.readouterr()
    with open(staged / "value_surface_tree.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 150 * len(dates)
    assert tuple(int(r["t"]) for r in rows[:len(dates)]) == dates
    # at T = 1 the date-1 table would repeat qq_tT.csv, so neither run writes it
    names = ["value_surface_tree.csv", "risk.csv", "qq_tT.csv"]
    assert (staged / "qq_t1.csv").exists() == (report / "qq_t1.csv").exists() == (dates[-1] > 1)
    if dates[-1] > 1:
        names.append("qq_t1.csv")
    for name in names:
        assert (staged / name).read_bytes() == (report / name).read_bytes(), name


def test_corrupt_artifact_is_runtime_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    np.savez_compressed(out / "samples.npz", wrong_key=np.zeros(3))
    capsys.readouterr()
    rc = main(["train", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_RUNTIME
    assert _err_line(capsys).startswith("RUNTIME_ERROR:")


def test_value_error_at_runtime_is_runtime_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    with np.load(out / "samples.npz") as data:
        arrays = dict(data)
    arrays["test_driver"][4, 0, 1] = np.nan
    np.savez_compressed(out / "samples.npz", **arrays)
    capsys.readouterr()
    rc = main(["value", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_RUNTIME
    assert _err_line(capsys).startswith("RUNTIME_ERROR:")


FOREST_MISFIT = """
estimator:
  kind: forest
  sampling: subsample_without
  n_resample: 1000
"""
BERM_MISFIT = """
bermudan:
  n_train: 120
  estimator:
    kind: forest
    sampling: subsample_without
    n_resample: 1000
"""


@pytest.mark.parametrize("argv, text, needle", [
    (["value", "--t", "99"], MICRO, "--t"),
    (["value", "--t", "one"], MICRO, "--t"),
    (["simulate", "--threads", "0"], MICRO, "--threads"),
    (["simulate"], MICRO.replace("n_inner: 10", "n_inner: 10\n  dates: [0, 5]"), "plan.dates"),
    (["report"], MICRO.replace("n_inner: 10", "n_inner: 10\n  dates: [0, 2]"), "plan.dates"),
    (["value", "--t", "0", "1", "1"], MICRO, "--t"),
    (["train"], MICRO.replace("nodesize: 30", "nodesize: 30\n  max_leaves: 4"), "unknown key"),
    (["train"], MICRO.split("estimator:")[0] + FOREST_MISFIT, "n_resample"),
    (["bermudan"], BERM_MISFIT, "n_resample"),
    (["train"], MICRO.replace("nodesize: 30", "nodesize: 30\n  features: true"), "features"),
    (["train"], MICRO.replace("kind: tree\n  nodesize: 30", "kind: boost\n  rounds: null"),
     "rounds"),
    (["train"], MICRO.replace("nodesize: 30", "nodesize: null"), "nodesize"),
    (["simulate"], MICRO.replace("n_test: 150", "n_test: null"), "plan.n_test"),
    (["bermudan"], "bermudan:\n  strike: -1.0\n", "strike"),
    (["bermudan"], "bermudan:\n  sigma: 0.0\n", "sigma"),
    (["bermudan"], "bermudan:\n  rate: 0.05\n", "unknown key 'bermudan.rate'"),
])
def test_config_checks_are_config_errors(tmp_path, capsys, argv, text, needle):
    cfg = _cfg(tmp_path, text)
    rc = main(argv + ["--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == EXIT_CONFIG
    line = _err_line(capsys)
    assert line.startswith("CONFIG_ERROR:") and needle in line


def test_report_rejects_a_bad_bermudan_section_before_any_fit(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["report", "--config", _cfg(tmp_path, MICRO + "bermudan:\n  strike: -1.0\n"),
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "strike" in _err_line(capsys)
    assert not out.exists()


def test_null_unsets_optional_estimator_fields(tmp_path, capsys):
    text = MICRO.replace("kind: tree\n  nodesize: 30",
                         "kind: boost\n  rounds: 3\n  patience: null\n  max_depth: null")
    plan = RunConfig(yaml.safe_load(text), _ns()).european_plan()
    assert plan.estimator.patience is None and plan.estimator.max_depth is None
    assert plan.estimator.rounds == 3
    forest = MICRO.replace("kind: tree", "kind: forest\n  n_trees: 2\n  n_resample: null")
    assert RunConfig(yaml.safe_load(forest), _ns()).european_plan().estimator.n_resample is None
    out = tmp_path / "run"
    assert main(["simulate", "--config", _cfg(tmp_path, text), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    snapshot = (out / "config.snapshot").read_text()
    assert "    patience: None\n" in snapshot and "    max_depth: None\n" in snapshot


def _staged(cfg, out, stages):
    for stage in stages:
        assert main([stage, "--config", cfg, "--out", str(out)]) == EXIT_OK, stage


def test_risk_rejects_a_surface_from_another_sample(tmp_path, capsys):
    out = tmp_path / "run"
    _staged(_cfg(tmp_path), out, ("simulate", "train", "value"))
    _staged(_cfg(tmp_path, MICRO.replace("n_test: 150", "n_test: 170"), "b.yaml"), out,
            ("simulate",))
    capsys.readouterr()
    rc = main(["risk", "--config", str(tmp_path / "b.yaml"), "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT:") and "150" in line and "170" in line
    assert not (out / "risk.csv").exists()


@pytest.mark.parametrize("resimulate", [True, False])
def test_value_rejects_artifacts_of_other_dims(tmp_path, capsys, resimulate):
    # True: train at d = 3, then resimulate at d = 2, so the model and the
    # sample disagree; False: d = 2 artifacts valued under a d = 3 config
    out = tmp_path / "run"
    d3 = _cfg(tmp_path, MICRO.replace("d: 2", "d: 3"), "d3.yaml")
    d2 = _cfg(tmp_path, MICRO, "d2.yaml")
    _staged(d3 if resimulate else d2, out, ("simulate", "train"))
    if resimulate:
        _staged(d2, out, ("simulate",))
    cfg = d2 if resimulate else d3
    capsys.readouterr()
    rc = main(["value", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT:")
    assert "flat_tree.npz" in line and "samples.npz" in line
    assert not (out / "value_surface_tree.csv").exists()


@pytest.mark.parametrize("edit", ["drop", "duplicate", "renumber"])
def test_risk_rejects_a_surface_with_gaps_in_scenario_ids(tmp_path, capsys, edit):
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    _staged(cfg, out, ("simulate", "train", "value"))
    path = out / "value_surface_tree.csv"
    lines = path.read_bytes().split(b"\r\n")
    # lines[1:4] are scenario 0 at dates 0, 1, 2; change its date-1 row only
    if edit == "drop":
        del lines[2]
    elif edit == "duplicate":
        lines[2] = lines[5]
    else:
        lines[2] = b"150" + lines[2][1:]
    path.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    rc = main(["risk", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    assert "scenario ids" in _err_line(capsys)


@pytest.mark.parametrize("edit", ["ragged", "not_a_number"])
def test_risk_rejects_an_unreadable_surface(tmp_path, capsys, edit):
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    _staged(cfg, out, ("simulate", "train", "value"))
    path = out / "value_surface_tree.csv"
    lines = path.read_bytes().split(b"\r\n")
    # scenario 0, date 1: drop or spoil its value field
    head = lines[2].rsplit(b",", 1)[0]
    lines[2] = head if edit == "ragged" else head + b",x"
    path.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    rc = main(["risk", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT:") and "value_surface_tree.csv" in line


def _csv_writer_bytes(surface: ValueSurface, path: Path) -> bytes:
    # reference: the per-row csv.writer form of ValueSurface.to_csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario_id", "t", "value"])
        for i in range(surface.values.shape[0]):
            for k, t in enumerate(surface.dates):
                w.writerow([i, t, repr(float(surface.values[i, k]))])
    return path.read_bytes()


def test_surface_csv_round_trip_is_exact(tmp_path):
    awkward = [-0.0, 1e-05, 1e16, 5e-324, 2.225073858507201e-308, 0.1 + 0.2,
               1.0000000000000002, -1.2345678901234567e-7, 123456789.12345679, np.inf,
               -np.inf, 1e300, 0.0]
    rng = np.random.default_rng(4)
    values = np.concatenate([np.array(awkward), rng.normal(size=47) * 10.0 ** rng.integers(
        -20, 20, size=47)]).reshape(20, 3)
    surface = ValueSurface(dates=(0, 1, 12), values=values)
    path = tmp_path / "value_surface_x.csv"
    surface.to_csv(path)
    assert path.read_bytes() == _csv_writer_bytes(surface, tmp_path / "ref.csv")
    # the same rows in another order read back to the same surface
    head, *rows = path.read_bytes().split(b"\r\n")[:-1]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes(b"".join(line + b"\r\n" for line in
                                  [head] + [rows[j] for j in rng.permutation(len(rows))]))
    for p in (path, shuffled):
        back = _load_surface(p)
        assert back.dates == (0, 1, 12)
        assert np.array_equal(back.values, values)
        assert np.array_equal(np.signbit(back.values), np.signbit(values))


# ----------------------------------------------------------------- bermudan


BERM = """
experiment:
  name: micro_berm
  seed: 1
bermudan:
  n_dates: 3
  n_train: 200
  n_test: 300
  estimator:
    kind: tree
    nodesize: 50
"""


def test_bermudan_command(tmp_path, capsys):
    cfg = _cfg(tmp_path, BERM)
    out = tmp_path / "b"
    assert main(["bermudan", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "stopping mass" in capsys.readouterr().out
    with open(out / "stopping.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    total = sum(float(r["probability"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ report bundle


def test_report_bundle_determinism(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    hashes = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        hashes.append((out / "bundle.hash").read_text().strip())
    assert hashes[0] == hashes[1]

    out3 = tmp_path / "r3"
    assert main(["report", "--config", cfg, "--out", str(out3),
                 "--seed", "1"]) == EXIT_OK
    assert (out3 / "bundle.hash").read_text().strip() != hashes[0]

    # the stored digest matches an independent recomputation
    from treeval.bench import bundle_hash

    assert bundle_hash(tmp_path / "r1") == hashes[0]
    capsys.readouterr()


def test_report_writes_the_bermudan_leg_to_its_own_directory(tmp_path, capsys):
    cfg = _cfg(tmp_path, MICRO + "bermudan:" + BERM.split("bermudan:")[1])
    out = tmp_path / "r"
    assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert (out / "config.snapshot").read_text().startswith("ExperimentPlan:")
    assert (out / "bermudan" / "config.snapshot").read_text().startswith("BermudanPlan:")
    assert not (out / "stopping.csv").exists()


def test_module_entry_point_runs_without_install(tmp_path):
    cfg = _cfg(tmp_path)
    out = tmp_path / "r"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "treeval.cli", "report", "--config", cfg,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (out / "bundle.hash").exists()

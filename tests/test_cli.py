"""End-to-end tests of the command-line interface.

Each stage runs in-process through ``main(argv)`` on micro-sized plans,
checking exit codes, the single-line error contract on stderr, and the
artifact handoff between stages.
"""

import argparse
import ast
import csv
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
import zipfile
from dataclasses import replace
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
from treeval.bench import _config_text, desk_plan, paper_plan, sample_streams
from treeval.ensemble import BoostConfig
from treeval.paths import simulate_bs
from treeval.valuation import _CSV_BLOCK, ValueSurface

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


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("kind", ["min_put", "max_call", "brc"])
def test_bare_payoff_config_builds_the_scale_preset(kind, scale):
    # keys a config leaves out take the preset's values, the payoff's included
    plan = RunConfig({"payoff": {"kind": kind}}, _ns(scale=scale)).european_plan()
    preset = (paper_plan if scale == "paper" else desk_plan)(kind)
    assert _config_text(plan) == \
        _config_text(replace(preset, name="run", n_valid=preset.valid_size))


def test_default_estimator_is_boost():
    plan = RunConfig({"payoff": {"kind": "min_put"}}, _ns()).european_plan()
    assert plan.estimator_kind == "boost"
    assert plan.estimator == BoostConfig(rounds=400, learning_rate=0.1, nodesize=40,
                                         max_depth=15, patience=20, seed=7)


def test_readme_config_builds_both_plans():
    # the README's example config must name only keys the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    cfg = RunConfig(yaml.safe_load(blocks[0]), _ns())
    plan = cfg.european_plan()
    assert (plan.payoff.kind, plan.model.n_assets, plan.estimator_kind) == \
        ("min_put", 6, "boost")
    assert cfg.has_bermudan and cfg.bermudan_plan().mode == "both"


def test_readme_python_blocks_import_only_existing_names():
    # parsed, not run: every name a README example imports from treeval must exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    imported = []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treeval":
                imported += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "treeval"]
    assert blocks and imported
    for module, name in imported:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"README imports {name} from {module}"


# ------------------------------------------------------------- stage chain


# value_surface_tree.meta.json of MICRO: the estimator settings training.json
# records, and the samples record, which is samples_meta.json without its name
VALUE_META = """\
{
  "config": {
    "features": "all",
    "max_depth": null,
    "nodesize": 30,
    "seed": 7
  },
  "estimator": "tree",
  "samples": {
    "dims": [
      2,
      2
    ],
    "model": {
      "initial_prices": [
        1.0,
        1.0
      ],
      "rate": 0.0,
      "steps": [
        0.08333333333333333,
        0.9166666666666666
      ],
      "vols": [
        [
          0.2,
          0.0
        ],
        [
          0.0,
          0.2
        ]
      ]
    },
    "n_test": 150,
    "n_train": 120,
    "n_valid": 60,
    "payoff": {
      "barrier": 0.0,
      "coupon": 0.0,
      "face": 1.0,
      "kind": "min_put",
      "strike": 1.0
    },
    "seed": 0
  },
  "seed": 0
}
"""


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

    # value before train: missing artifact; the training record is read first
    rc = main(["value", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert "missing training.json" in line and "run the train stage first" in line

    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("flat_tree.npz", "flat_tree.txt", "training.json"):
        assert (out / name).exists(), name

    assert main(["value", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "value_surface_tree.csv").exists()
    # the value stage's record, byte for byte: indented, keys sorted, one final newline
    assert (out / "value_surface_tree.meta.json").read_bytes() == VALUE_META.encode()

    assert main(["risk", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("risk.csv", "qq_t1.csv", "qq_tT.csv"):
        assert (out / name).exists(), name


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


def test_samples_archive_holds_six_stored_arrays(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", _cfg(tmp_path), "--out", str(out)]) == EXIT_OK
    with zipfile.ZipFile(out / "samples.npz") as zf:
        infos = zf.infolist()
    assert {info.filename for info in infos} == {f"{tag}_{kind}.npy" for tag in
                                                 ("train", "valid", "test")
                                                 for kind in ("driver", "payoff")}
    assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)
    # the arrays are the streams' drivers and payoffs, dtypes included
    plan = RunConfig(yaml.safe_load(MICRO), _ns()).european_plan()
    with np.load(out / "samples.npz") as data:
        for tag, s in sample_streams(plan).items():
            for name, want in ((f"{tag}_driver", s.driver), (f"{tag}_payoff", s.payoffs)):
                assert data[name].dtype == want.dtype and np.array_equal(data[name], want)
    meta = {"dims": [2, 2], "n_test": 150, "n_train": 120, "n_valid": 60, "name": "micro",
            "seed": 0,
            "payoff": {"kind": "min_put", "strike": 1.0, "barrier": 0.0, "coupon": 0.0,
                       "face": 1.0},
            "model": {"initial_prices": [1.0, 1.0], "vols": [[0.2, 0.0], [0.0, 0.2]],
                      "rate": 0.0, "steps": [1.0 / 12.0, 11.0 / 12.0]}}
    assert (out / "samples_meta.json").read_text() == \
        json.dumps(meta, indent=2, sort_keys=True) + "\n"


def test_stages_read_archives_in_the_older_deflated_format(tmp_path, capsys):
    # older versions deflated samples.npz and also stored the price paths
    cfg = _cfg(tmp_path)
    new, old = tmp_path / "new", tmp_path / "old"
    for out in (new, old):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    plan = RunConfig(yaml.safe_load(MICRO), _ns()).european_plan()
    arrays = {}
    for tag, s in sample_streams(plan).items():
        arrays.update({f"{tag}_driver": s.driver,
                       f"{tag}_prices": simulate_bs(plan.model, s.driver),
                       f"{tag}_payoff": s.payoffs})
    np.savez_compressed(old / "samples.npz", **arrays)
    for out in (new, old):
        _staged(cfg, out, ("train", "value", "risk"))
    capsys.readouterr()
    names = sorted(p.name for p in new.iterdir() if p.name != "samples.npz")
    assert sorted(p.name for p in old.iterdir() if p.name != "samples.npz") == names
    for name in ("flat_tree.txt", "value_surface_tree.csv", "risk.csv", "qq_t1.csv",
                 "qq_tT.csv"):
        assert name in names
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_npz_without_a_named_array_is_an_artifact_error(tmp_path, capsys):
    # an archive that reads but lacks an array is unreadable upstream output: exit 3
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    _staged(cfg, out, ("simulate", "train"))
    with np.load(out / "flat_tree.npz") as z:
        kept = {k: z[k] for k in z.files if k != "lo"}
    np.savez_compressed(out / "flat_tree.npz", **kept)
    capsys.readouterr()
    assert main(["value", "--config", cfg, "--out", str(out)]) == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT: flat_tree.npz: unreadable (KeyError"), line
    assert line.endswith("rerun the train stage"), line
    assert not (out / "value_surface_tree.csv").exists()

    np.savez_compressed(out / "samples.npz", wrong_key=np.zeros(3))
    rc = main(["train", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT: samples.npz: unreadable (KeyError"), line
    assert line.endswith("rerun the simulate stage"), line


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
BERM_TAIL = "bermudan:\n  n_dates: 3\n"
BERM_MISFIT = """
bermudan:
  n_train: 120
  estimator:
    kind: forest
    sampling: subsample_without
    n_resample: 1000
"""


@pytest.mark.parametrize("argv, text, needle", [
    # a command checks the whole file, sections its plan does not read included
    (["risk"], MICRO + "bermudan:\n  estimator:\n    kind: tree\n    nodesiz: 5\n",
     "unknown key 'bermudan.estimator.nodesiz'"),
    (["bermudan"], MICRO.replace("nodesize: 30", "nodesize: 30\n  max_leaves: 4") + BERM_TAIL,
     "unknown key 'estimator.max_leaves'"),
    (["simulate", "--threads", "0"], MICRO, "--threads"),
    (["simulate"], MICRO.replace("n_inner: 10", "n_inner: 10\n  dates: [0, 5]"), "plan.dates"),
    (["report"], MICRO.replace("n_inner: 10", "n_inner: 10\n  dates: [0, 2]"), "plan.dates"),
    (["value"], MICRO.replace("strike: 1.0", "strike: 1.0\n  strike: 1.3"),
     "duplicate key 'strike'"),
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
    # the pipelines value under the N(0, 1) law their samplers draw; no other law is set
    pytest.param(["simulate"], MICRO + "measure:\n  kind: clayton\n  theta: 2.0\n",
                 "unknown section 'measure'", id="measure-clayton"),
    pytest.param(["report"], MICRO + "measure:\n  kind: product_normal\n",
                 "unknown section 'measure'", id="measure-product-normal"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  kind: black_scholes"),
                 "unknown key 'model.kind'", id="model-kind"),
    pytest.param(["simulate"], MICRO.replace("n_inner: 10", "n_inner: 10\n  dates: [0, true, 2]"),
                 "plan.dates", id="dates-boolean"),
    # non-finite or empty market and payoff terms fail before any sample is drawn
    pytest.param(["simulate"], MICRO.replace("strike: 1.0", "strike: .nan"),
                 "payoff: strike, barrier, coupon and face must be finite", id="strike-nan"),
    pytest.param(["simulate"], MICRO.replace("strike: 1.0", "strike: 1.0\n  face: .nan"),
                 "payoff: strike, barrier, coupon and face must be finite", id="face-nan"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  vol: .inf"), "model: vols",
                 id="vol-inf"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  vol: -.inf"), "model: vols",
                 id="vol-minus-inf"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  rate: .nan"), "model: rate",
                 id="rate-nan"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 0"), "model: initial prices",
                 id="no-assets"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  steps: []"), "model: steps",
                 id="no-steps"),
    # a boolean is no number, and an int no float holds is refused, in every number key
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  initial_price: true"),
                 "model.initial_price: expected a number", id="initial-price-boolean"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  initial_price: [1.0, false]"),
                 "model.initial_price: expected a number", id="initial-prices-boolean"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  steps: [true, 1.0]"),
                 "model.steps: expected a number", id="steps-boolean"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  initial_price: '1.0'"),
                 "model.initial_price: expected a number", id="initial-price-string"),
    pytest.param(["simulate"], MICRO.replace("strike: 1.0", "strike: 1" + "0" * 400),
                 "payoff.strike: integer too large for a float", id="strike-huge-int"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  initial_price: 1" + "0" * 400),
                 "model.initial_price: integer too large for a float",
                 id="initial-price-huge-int"),
    pytest.param(["simulate"], MICRO.replace("d: 2", "d: 2\n  steps: [0.5, 1" + "0" * 400 + "]"),
                 "model.steps: integer too large for a float", id="steps-huge-int"),
    pytest.param(["bermudan"], "bermudan:\n  z0: 1" + "0" * 400 + "\n",
                 "bermudan.z0: integer too large for a float", id="bermudan-huge-int"),
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


def test_value_rejects_a_model_fitted_on_other_samples(tmp_path, capsys):
    # a resimulate between train and value: the samples match the config, the model does not
    out = tmp_path / "run"
    _staged(_cfg(tmp_path), out, ("simulate", "train"))
    other = _cfg(tmp_path, MICRO.replace("strike: 1.0", "strike: 1.3"), "b.yaml")
    _staged(other, out, ("simulate",))
    capsys.readouterr()
    assert main(["value", "--config", other, "--out", str(out)]) == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT: training.json records payoff "), line
    assert "'strike': 1.0" in line and "'strike': 1.3" in line, line
    assert line.endswith("rerun train with this config"), line
    assert main(["risk", "--config", other, "--out", str(out)]) == EXIT_ARTIFACT
    assert "missing value_surface_tree.csv" in _err_line(capsys)
    assert not (out / "value_surface_tree.csv").exists() and not (out / "risk.csv").exists()


def test_risk_rejects_a_surface_of_an_older_model(tmp_path, capsys):
    # simulate and train again at another n_train, same n_test, and no value
    out = tmp_path / "run"
    _staged(_cfg(tmp_path, MICRO.replace("n_train: 120", "n_train: 300")), out,
            ("simulate", "train", "value"))
    surface = (out / "value_surface_tree.csv").read_bytes()
    small = _cfg(tmp_path, MICRO.replace("n_train: 120", "n_train: 200"), "b.yaml")
    _staged(small, out, ("simulate", "train"))
    capsys.readouterr()
    assert main(["risk", "--config", small, "--out", str(out)]) == EXIT_ARTIFACT
    assert _err_line(capsys) == (
        "MISSING_ARTIFACT: value_surface_tree.meta.json records n_train 300 but the "
        "config gives n_train 200; rerun value with this config")
    assert (out / "value_surface_tree.csv").read_bytes() == surface
    assert not (out / "risk.csv").exists()


@pytest.mark.parametrize("command, text, needle", [
    ("bermudan", BERM_TAIL + "payoff:\n  kind: nope\n  strik: 1.0\n", "payoff.kind"),
    ("bermudan", BERM_TAIL + "payoff:\n  kind: min_put\n  strik: 1.0\n",
     "unknown key 'payoff.strik'"),
    ("simulate", MICRO + "bermudan:\n  sigmaa: 0.3\n", "unknown key 'bermudan.sigmaa'"),
], ids=["bermudan-payoff-kind", "bermudan-payoff-key", "simulate-bermudan-key"])
def test_every_command_checks_the_whole_config(tmp_path, capsys, command, text, needle):
    out = tmp_path / "run"
    assert main([command, "--config", _cfg(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    line = _err_line(capsys)
    assert line.startswith("CONFIG_ERROR:") and needle in line, line
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    (MICRO + "plan:\n  n_test: 20000\n", "plan"),
    (MICRO.replace("strike: 1.0", "strike: 1.0\n  strike: 1.3"), "strike"),
], ids=["section", "nested-key"])
def test_duplicate_yaml_keys_are_config_errors(tmp_path, capsys, text, key):
    # the later value would win silently: n_test 20000 and the last strike
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    lines = Path(cfg).read_text().splitlines()
    row = max(i for i, ln in enumerate(lines) if ln.strip().startswith(f"{key}:"))
    col = len(lines[row]) - len(lines[row].lstrip())
    assert _err_line(capsys) == (f"CONFIG_ERROR: {cfg} (line {row + 1}, column {col + 1}): "
                                 f"duplicate key '{key}'")
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "bermudan"])
def test_report_and_bermudan_need_a_new_or_empty_out(tmp_path, capsys, command):
    # a bundle in a staged directory would mix its files with another config's
    cfg = _cfg(tmp_path, MICRO + "bermudan:" + BERM.split("bermudan:")[1])
    out = tmp_path / "run"
    _staged(_cfg(tmp_path, MICRO.replace("strike: 1.0", "strike: 1.3"), "b.yaml"), out,
            ("simulate",))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "holds files" in _err_line(capsys)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([command, "--config", cfg, "--out", str(empty)]) == EXIT_OK
    assert main([command, "--config", cfg, "--out", str(tmp_path / "new")]) == EXIT_OK
    capsys.readouterr()
    assert (empty / "config.snapshot").read_bytes() == \
        (tmp_path / "new" / "config.snapshot").read_bytes()


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


def test_stages_reject_samples_of_another_config(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _cfg(tmp_path)
    n100 = _cfg(tmp_path, MICRO.replace("n_train: 120", "n_train: 100"), "n100.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    rc = main(["train", "--config", n100, "--out", str(out), "--seed", "2"])
    assert rc == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert "samples_meta.json" in line and "seed" in line and "n_train" in line
    assert not (out / "flat_tree.npz").exists()
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["value", "--config", cfg, "--out", str(out), "--seed", "2"]) == EXIT_ARTIFACT
    assert "samples_meta.json records seed 1" in _err_line(capsys)
    assert not (out / "value_surface_tree.csv").exists()
    assert main(["value", "--config", cfg, "--out", str(out), "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["risk", "--config", cfg, "--out", str(out), "--seed", "3"]) == EXIT_ARTIFACT
    assert "config gives seed 3" in _err_line(capsys)
    assert not (out / "risk.csv").exists()


@pytest.mark.parametrize("edit, field", [
    (("strike: 1.0", "strike: 1.3"), "payoff"),
    (("d: 2", "d: 2\n  vol: 0.5"), "model"),
    (("d: 2", "d: 2\n  steps: [0.5, 0.5]"), "model"),
], ids=["strike", "vol", "steps"])
def test_stages_reject_samples_of_another_payoff_or_model(tmp_path, capsys, edit, field):
    # same sizes and dims, other cash flows: the fit and the oracles would disagree
    out = tmp_path / "run"
    _staged(_cfg(tmp_path), out, ("simulate", "train", "value"))
    other = _cfg(tmp_path, MICRO.replace(*edit), "other.yaml")
    capsys.readouterr()
    for stage in ("train", "value", "risk"):
        assert main([stage, "--config", other, "--out", str(out)]) == EXIT_ARTIFACT, stage
        line = _err_line(capsys)
        assert line.startswith(f"MISSING_ARTIFACT: samples_meta.json records {field} "), line
        assert line.endswith("rerun simulate with this config"), line
    assert not (out / "risk.csv").exists()


@pytest.mark.parametrize("field, recorded", [
    ("seed", 7), ("n_train", 121), ("n_valid", 59), ("n_test", 149), ("dims", [3, 2]),
    ("missing", None),
])
def test_stages_check_every_samples_meta_field(tmp_path, capsys, field, recorded):
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    _staged(cfg, out, ("simulate", "train", "value"))
    path = out / "samples_meta.json"
    if field == "missing":
        path.unlink()
    else:
        meta = json.loads(path.read_text())
        meta[field] = recorded
        path.write_text(json.dumps(meta))
    capsys.readouterr()
    for stage in ("train", "value", "risk"):
        assert main([stage, "--config", cfg, "--out", str(out)]) == EXIT_ARTIFACT, stage
        line = _err_line(capsys)
        assert line.startswith("MISSING_ARTIFACT:") and "samples_meta.json" in line, stage
        if field == "missing":
            assert "missing samples_meta.json" in line
        else:
            assert f"records {field} {recorded}" in line, line
    assert not (out / "risk.csv").exists()


def test_stages_reject_a_model_of_other_estimator_settings(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _cfg(tmp_path)
    ns5 = _cfg(tmp_path, MICRO.replace("nodesize: 30", "nodesize: 5"), "ns5.yaml")
    _staged(cfg, out, ("simulate", "train"))
    capsys.readouterr()
    assert json.loads((out / "training.json").read_text())["config"] == \
        {"nodesize": 30, "max_depth": None, "features": "all", "seed": 7}
    assert main(["value", "--config", ns5, "--out", str(out)]) == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT:") and "training.json" in line
    assert "records nodesize 30 but the config gives nodesize 5" in line
    assert not (out / "value_surface_tree.csv").exists()
    _staged(cfg, out, ("value",))
    capsys.readouterr()
    assert json.loads((out / "value_surface_tree.meta.json").read_text())["config"] == \
        json.loads((out / "training.json").read_text())["config"]
    assert main(["risk", "--config", ns5, "--out", str(out)]) == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT:") and "value_surface_tree.meta.json" in line
    assert "records nodesize 30 but the config gives nodesize 5" in line
    assert not (out / "risk.csv").exists()


@pytest.mark.parametrize("stage, name", [("value", "training.json"),
                                         ("risk", "value_surface_tree.meta.json")])
def test_stages_reject_a_missing_estimator_record(tmp_path, capsys, stage, name):
    out = tmp_path / "run"
    cfg = _cfg(tmp_path)
    _staged(cfg, out, ("simulate", "train", "value"))
    (out / name).unlink()
    capsys.readouterr()
    assert main([stage, "--config", cfg, "--out", str(out)]) == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith(f"MISSING_ARTIFACT: missing {name} in {out}"), line
    assert not (out / "risk.csv").exists()


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


@pytest.mark.parametrize("stage, name, needle, upstream", [
    ("train", "samples_meta.json", "unreadable (JSONDecodeError", "the simulate stage"),
    ("value", "training.json", "records nodesize None", "train with this config"),
    ("value", "flat_tree.npz", "unreadable (BadZipFile", "the train stage")],
    ids=["truncated-samples-meta", "training-json-a-list", "truncated-flat"])
def test_stages_reject_an_unreadable_artifact(tmp_path, capsys, stage, name, needle, upstream):
    # a truncated JSON record or archive, and a record that is not a JSON object
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    _staged(cfg, out, ("simulate", "train"))
    path = out / name
    if name == "training.json":
        path.write_text("[1, 2]")
    else:
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    writes = {"train": "flat_tree.txt", "value": "value_surface_tree.csv"}[stage]
    (out / writes).unlink(missing_ok=True)
    capsys.readouterr()
    assert main([stage, "--config", cfg, "--out", str(out)]) == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith(f"MISSING_ARTIFACT: {name}") and needle in line, line
    assert line.endswith(f"rerun {upstream}"), line
    assert not (out / writes).exists()


def test_risk_rejects_a_surface_with_fractional_dates(tmp_path, capsys):
    # read as int, every date-1.5 row would pass for a date-1 row
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    _staged(cfg, out, ("simulate", "train", "value"))
    path = out / "value_surface_tree.csv"
    lines = path.read_bytes().split(b"\r\n")
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(b",")
        if len(fields) == 3 and fields[1] == b"1":
            lines[k] = b",".join((fields[0], b"1.5", fields[2]))
    path.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    assert main(["risk", "--config", cfg, "--out", str(out)]) == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT:") and "dates must be integers" in line
    assert not (out / "risk.csv").exists()


@pytest.mark.parametrize("edit, needle", [
    ("truncated", " holds 100 scenario ids, not the config's n_test 150 ids 0..149 once at "
                  "every date"),
    ("no_date_1", ": dates must be integers and the config's [0, 1, 2], got [0.0, 2.0]")],
    ids=["truncated", "no_date_1"])
def test_risk_checks_the_surface_against_the_plan(tmp_path, capsys, edit, needle):
    # cut at a scenario boundary the surface used to pass, and without its
    # date-1 rows risk failed late with a runtime error
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    _staged(cfg, out, ("simulate", "train", "value"))
    path = out / "value_surface_tree.csv"
    head, *rows = path.read_bytes().split(b"\r\n")[:-1]
    if edit == "truncated":
        rows = rows[:3 * 100]  # scenario-major: the first 100 scenarios at dates 0, 1, 2
    else:
        rows = [r for r in rows if r.split(b",")[1] != b"1"]
    path.write_bytes(b"".join(line + b"\r\n" for line in [head] + rows))
    capsys.readouterr()
    assert main(["risk", "--config", cfg, "--out", str(out)]) == EXIT_ARTIFACT
    assert _err_line(capsys) == (f"MISSING_ARTIFACT: value_surface_tree.csv{needle}; "
                                 "rerun value with this config")
    assert not (out / "risk.csv").exists()


def test_value_rejects_a_grid_layout_directory(tmp_path, capsys):
    # a directory from before the time-major layout: lows / highs of shape
    # (N, d, T) and a training.json without the config record
    cfg = _cfg(tmp_path)
    out = tmp_path / "run"
    _staged(cfg, out, ("simulate", "train"))
    path = out / "flat_tree.npz"
    with np.load(path) as z:
        arrays = dict(z)
    n, (d, T) = arrays["values"].size, arrays["dims"]
    for new, old in (("lows", "lo"), ("highs", "hi")):
        arrays[new] = arrays.pop(old).reshape(n, T, d).transpose(0, 2, 1)
    np.savez_compressed(path, **arrays)
    info = json.loads((out / "training.json").read_text())
    del info["config"]
    (out / "training.json").write_text(json.dumps(info))
    capsys.readouterr()
    assert main(["value", "--config", cfg, "--out", str(out)]) == EXIT_ARTIFACT
    line = _err_line(capsys)
    assert line.startswith("MISSING_ARTIFACT:") and "training.json" in line
    assert not (out / "value_surface_tree.csv").exists()


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
        back = _load_surface(p, (0, 1, 12), 20)
        assert back.dates == (0, 1, 12)
        assert np.array_equal(back.values, values)
        assert np.array_equal(np.signbit(back.values), np.signbit(values))


def _row_generator_bytes(surface: ValueSurface, path: Path) -> bytes:
    # reference: the one-generator form of ValueSurface.to_csv that the blocks replaced
    rows = np.asarray(surface.values, dtype=np.float64).tolist()
    text = "".join(f"{i},{t},{v!r}\r\n"
                   for i, row in enumerate(rows) for t, v in zip(surface.dates, row))
    with open(path, "w", newline="") as fh:
        fh.write("scenario_id,t,value\r\n" + text)
    return path.read_bytes()


@pytest.mark.parametrize("k", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, "pool"])
def test_surface_csv_blocks_write_the_same_bytes(tmp_path, k):
    if k == "pool":
        # few distinct values, repeated within and across blocks, so each word is
        # mapped back to many places; NaNs of either sign all write nan
        pool = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 0.1 + 0.2,
                         -1.5, 1e300])
        values = np.random.default_rng(5).choice(pool, size=(2 * _CSV_BLOCK + 3, 3))
    else:
        awkward = np.array([-0.0, 1e-05, 1e16, 5e-324, 2.225073858507201e-308, 0.1 + 0.2,
                            1.0000000000000002, -1.2345678901234567e-7, 123456789.12345679,
                            np.inf, -np.inf, 1e300, 0.0])
        rng = np.random.default_rng(k)
        values = rng.normal(size=(k, 3)) * 10.0 ** rng.integers(-20, 20, size=(k, 3))
        # the awkward values in the first and the last rows
        flat = values.reshape(-1)
        for start in {0, max(0, flat.size - awkward.size)}:
            flat[start:start + awkward.size] = awkward[:flat.size - start]
    surface = ValueSurface(dates=(0, 1, 12), values=values)
    path = tmp_path / "value_surface_x.csv"
    surface.to_csv(path)
    assert path.read_bytes() == _row_generator_bytes(surface, tmp_path / "ref.csv")


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


def test_bermudan_boost_needs_patience_unset(tmp_path, capsys):
    # the desk boost's patience: 20 needs a validation sample, which the Bermudan fits lack
    boost = BERM.replace("kind: tree\n    nodesize: 50", "kind: boost\n    rounds: 3")
    out = tmp_path / "b"
    rc = main(["bermudan", "--config", _cfg(tmp_path, boost), "--out", str(out)])
    assert rc == EXIT_CONFIG
    line = _err_line(capsys)
    assert line.startswith("CONFIG_ERROR: bermudan:") and "set patience: null" in line, line
    assert not out.exists()
    unset = _cfg(tmp_path, boost + "    patience: null\n", "unset.yaml")
    assert main(["bermudan", "--config", unset, "--out", str(out)]) == EXIT_OK
    assert "    patience: None\n" in (out / "config.snapshot").read_text()


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

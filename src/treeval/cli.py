"""Command-line front end: config parsing, subcommands, report emission.

Subcommands: simulate, train, value, risk, bermudan, report.  Every
command takes ``--config PATH`` (YAML) plus optional ``--seed``,
``--scale {desk,paper}``, ``--threads``, ``--out DIR`` overrides and no
option of its own, so the config's plans alone drive a run; the whole
file is checked when it is loaded.  The staged commands share one
directory, and each checks that its inputs record the samples the config
draws; ``report`` and ``bermudan`` write to a new or empty one.  Exit
codes: 0 success, 2 config error, 3 missing or unreadable upstream
artifact, 4 runtime failure; errors print one machine-parsable line
``<ERROR_CLASS>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import zipfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import yaml

from .bench import (DESK_ESTIMATORS, BermudanPlan, ExperimentPlan, _date1_truth,
                    bundle_hash, desk_plan, oracle_v0, paper_bermudan_plan, paper_plan,
                    risk_stage, run_bermudan, run_experiment, sample_streams,
                    standard_model, write_snapshot)
from .cart import _distinct
from .ensemble import FittedBoost, fit
from .flat import flatten_model, load_flat, save_flat, write_flat_text
from .parallel import set_threads
from .paths import BlackScholesModel
from .valuation import ValueSurface, value_surface

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ARTIFACT = 3
EXIT_RUNTIME = 4

_SCALES = ("desk", "paper")


class ConfigError(Exception):
    pass


class ArtifactError(Exception):
    pass


# ------------------------------------------------------------ config schema

# Every config key once, with the YAML value it takes:
# - a type or a tuple of types: an int passes as a float and a bool as no
#   number; null passes only where the tuple holds type(None), and sets an
#   optional field to None;
# - None where the plan's dataclass checks the value, which is never null;
# - a set of the allowed strings; a kind is a dict of the allowed kinds,
#   each with the keys it adds.
# Keys a config leaves out take the preset's values.
_OPTIONAL_INT = (int, type(None))
_EST_KEYS = {
    "boost": {"rounds": int, "learning_rate": float, "nodesize": int,
              "max_depth": _OPTIONAL_INT, "patience": _OPTIONAL_INT, "seed": int},
    "forest": {"n_trees": int, "nodesize": int, "features": None, "sampling": str,
               "n_resample": _OPTIONAL_INT, "max_depth": _OPTIONAL_INT, "seed": int},
    "tree": {"nodesize": int, "max_depth": _OPTIONAL_INT, "features": None, "seed": int},
}
_KEYS = {
    "experiment": {"name": str, "seed": int, "scale": set(_SCALES), "out": str},
    "payoff": {"kind": {"min_put": {}, "max_call": {}, "brc": {}}, "strike": float,
               "barrier": float, "coupon": float, "face": float},
    "model": {"d": int, "rate": float, "vol": float, "initial_price": None, "steps": None},
    "plan": {"n_train": int, "n_valid": int, "n_test": int, "n_inner": int, "dates": list},
    "estimator": {"kind": _EST_KEYS},
    "bermudan": {"z0": float, "sigma": float, "strike": float, "n_dates": int,
                 "horizon": float, "n_train": int, "n_test": int, "mode": str,
                 "estimator": dict},
}


def _type_name(v) -> str:
    return type(v).__name__


def _check(where: str, val, spec):
    """val if spec, a _KEYS entry, allows it (an int widened for a float), else ConfigError."""
    if isinstance(spec, (dict, set)):
        if isinstance(val, str) and val in spec:
            return val
        raise ConfigError(f"{where}: expected one of {', '.join(sorted(spec))}, got {val!r}")
    if spec is None:
        if val is not None:
            return val
        raise ConfigError(f"{where}: expected a value, got null")
    if spec is float and type(val) is int:
        return _floats(where, val).item()
    if isinstance(val, spec) and not isinstance(val, bool):
        return val
    names = " or ".join(t.__name__ for t in (spec if isinstance(spec, tuple) else (spec,)))
    raise ConfigError(f"{where}: expected {names}, got {_type_name(val)}")


def _floats(where: str, val) -> np.ndarray:
    """A number or a list of numbers, bools not, as floats, else ConfigError naming where."""
    if not all(type(v) in (int, float) for v in (val if isinstance(val, list) else [val])):
        raise ConfigError(f"{where}: expected a number or a list of numbers")
    try:
        return np.asarray(val, dtype=np.float64)
    except OverflowError:
        raise ConfigError(f"{where}: integer too large for a float") from None


def _section(node, path: str, keys: dict) -> dict:
    """The checked values of the keys a config section sets.

    A missing or null section sets none.  A section whose keys hold a
    kind must set it, and may also set the keys of that kind.
    """
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"section '{path}' must be a mapping, got {_type_name(node)}")
    if "kind" in keys:
        keys = {**keys, **keys["kind"][_check(f"{path}.kind", node.get("kind"), keys["kind"])]}
    fields = {}
    for key, val in node.items():
        if key not in keys:
            raise ConfigError(f"unknown key '{path}.{key}' "
                              f"(allowed: {', '.join(sorted(keys))})")
        fields[key] = _check(f"{path}.{key}", val, keys[key])
    return fields


def _built(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError or TypeError of it a ConfigError naming where."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}: {e}") from None


def _estimator(fields: dict, path: str):
    """The desk config of the checked section's kind with the keys it sets replaced."""
    fields = dict(fields)
    return _built(path, replace, DESK_ESTIMATORS[fields.pop("kind")], **fields)


def _model(fields: dict, payoff_kind: str) -> BlackScholesModel:
    """The payoff's standard model with the keys the model section sets replaced."""
    model = standard_model(payoff_kind,
                           **{k: fields[k] for k in ("d", "vol", "rate") if k in fields})
    changes = {"steps": _floats("model.steps", fields["steps"])} if "steps" in fields else {}
    if "initial_price" in fields:  # one price for every asset, or a list of d
        price = _floats("model.initial_price", fields["initial_price"])
        changes["initial_prices"] = np.full(model.n_assets, price) if price.ndim == 0 else price
    return replace(model, **changes)


class RunConfig:
    """Parsed and validated configuration document."""

    def __init__(self, doc: dict, args):
        if not isinstance(doc, dict):
            raise ConfigError("top-level config must be a mapping")
        for key in doc:
            if key not in _KEYS:
                raise ConfigError(f"unknown section '{key}' "
                                  f"(allowed: {', '.join(sorted(_KEYS))})")
        # every section is checked here, so each command rejects a bad key, kind
        # or type anywhere in the file; the plans and their range rules are built
        # only when a command asks for them
        self.sections = {key: _section(doc.get(key), key, _KEYS[key]) for key in _KEYS}
        berm = self.sections["bermudan"]
        if "estimator" in berm:
            berm["estimator"] = _section(berm["estimator"], "bermudan.estimator",
                                         _KEYS["estimator"])
        exp = self.sections["experiment"]
        self.name = exp.get("name", "run")
        self.seed = args.seed if args.seed is not None else exp.get("seed", 0)
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        self.scale = args.scale if args.scale is not None else exp.get("scale", "desk")
        out = args.out if args.out is not None else exp.get("out")
        self.out = Path(out) if out is not None else None
        self.doc = doc
        self.has_bermudan = "bermudan" in doc

    def _required(self, key: str) -> dict:
        if self.doc.get(key) is None:
            raise ConfigError(f"missing required section '{key}'")
        return dict(self.sections[key])

    def european_plan(self) -> ExperimentPlan:
        payoff = self._required("payoff")
        model = self.sections["model"]
        fields = dict(self.sections["plan"])
        if self.sections["estimator"]:
            fields["estimator"] = _estimator(self.sections["estimator"], "estimator")
        base = (paper_plan if self.scale == "paper" else desk_plan)(payoff["kind"])
        # an unset n_valid keeps the scale's size, not a share of the configured n_train
        fields.setdefault("n_valid", base.valid_size)
        return _built("plan", replace, base, name=self.name, seed=self.seed,
                      payoff=_built("payoff", replace, base.payoff, **payoff),
                      model=_built("model", _model, model, payoff["kind"]), **fields)

    def bermudan_plan(self) -> BermudanPlan:
        fields = self._required("bermudan")
        if "estimator" in fields:
            fields["estimator"] = _estimator(fields["estimator"], "bermudan.estimator")
        base = paper_bermudan_plan(self.seed) if self.scale == "paper" else \
            BermudanPlan(seed=self.seed)
        return _built("bermudan", replace, base, **fields)

    def require_out(self, fresh: bool = False) -> Path:
        """The output directory, made if missing; fresh asks for a new or empty one."""
        if self.out is None:
            raise ConfigError("an output directory is required "
                              "(experiment.out or --out)")
        if fresh and self.out.is_dir() and any(self.out.iterdir()):
            raise ConfigError(f"{self.out} holds files; this command writes its bundle "
                              "to a new or empty directory")
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a mapping which repeats a string key."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # config keys are strings; a merge key (<<) is not, and may repeat
            if key_node.tag == "tag:yaml.org,2002:str":
                if key_node.value in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key_node.value!r}", key_node.start_mark)
                seen.add(key_node.value)
        return super().construct_mapping(node, deep=deep)


def load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"{path}{where}: {getattr(e, 'problem', e)}") from None
    return RunConfig(doc or {}, args)


# -------------------------------------------------------------- subcommands


def cmd_simulate(cfg: RunConfig) -> int:
    plan = cfg.european_plan()
    out = cfg.require_out()
    streams = sample_streams(plan)
    arrays = {}
    for tag, s in streams.items():
        arrays[f"{tag}_driver"] = s.driver
        arrays[f"{tag}_payoff"] = s.payoffs
    # stored, not deflated: random float64 barely compresses, and the later
    # stages read only these arrays (np.load reads deflated archives too)
    np.savez(out / "samples.npz", **arrays)
    write_snapshot(out / "config.snapshot", plan)
    _write_json(out / "samples_meta.json", {"name": plan.name, **_samples_meta(plan)})
    print(f"wrote samples for {sum(s.payoffs.size for s in streams.values())} paths "
          f"to {out}")
    return EXIT_OK


def _write_json(path: Path, record: dict) -> None:
    """One JSON record per file: indented, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _samples_meta(plan: ExperimentPlan) -> dict:
    """The fields of samples_meta.json that fix the drawn samples, arrays as lists."""
    return {"seed": plan.seed, "n_train": plan.n_train, "n_valid": plan.valid_size,
            "n_test": plan.n_test, "dims": [plan.model.n_assets, plan.model.n_periods],
            "payoff": asdict(plan.payoff),
            "model": {k: np.asarray(v).tolist() for k, v in asdict(plan.model).items()}}


def _read_artifact(path: Path, stage: str, read):
    """read(path) for an artifact that the named stage writes.

    A missing file, and any error of the one read or parse (a missing
    npz array too), raise ArtifactError naming the file and the stage to run.
    """
    if not path.exists():
        raise ArtifactError(f"missing {path.name} in {path.parent} "
                            f"(run the {stage} stage first)")
    try:
        return read(path)
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as e:
        raise ArtifactError(f"{path.name}: unreadable ({type(e).__name__}: {e}); "
                            f"rerun the {stage} stage") from e


def _check_meta(path: Path, want: dict, stage: str, key=None) -> None:
    """Reject an upstream artifact whose recorded fields differ from want.

    path is the JSON file the upstream stage wrote; key picks the dict
    within it that holds the fields.  stage names the stage that writes it.
    """
    meta = _read_artifact(path, stage, lambda p: json.loads(p.read_text()))
    if key is not None and isinstance(meta, dict):
        meta = meta.get(key)
    if not isinstance(meta, dict):  # a record that is not an object records no field
        meta = {}
    bad = [k for k in want if meta.get(k) != want[k]]
    if bad:
        raise ArtifactError(
            f"{path.name} records " + ", ".join(f"{k} {meta.get(k)}" for k in bad)
            + " but the config gives " + ", ".join(f"{k} {want[k]}" for k in bad)
            + f"; rerun {stage} with this config")


def _read_samples(out: Path, *names: str) -> tuple:
    """The named arrays of samples.npz, each inflated once; the archive is closed."""
    def read(path):
        with np.load(path) as data:
            return tuple(data[name] for name in names)
    return _read_artifact(out / "samples.npz", "simulate", read)


def cmd_train(cfg: RunConfig) -> int:
    plan = cfg.european_plan()
    out = cfg.require_out()
    _check_meta(out / "samples_meta.json", _samples_meta(plan), "simulate")
    x_train, y_train, x_valid, y_valid = _read_samples(
        out, "train_driver", "train_payoff", "valid_driver", "valid_payoff")
    name = plan.estimator_kind
    fitted = fit(plan.estimator, x_train, y_train, (x_valid, y_valid))
    fe = flatten_model(fitted)
    save_flat(fe, out / f"flat_{name}.npz")
    write_flat_text(fe, out / f"flat_{name}.txt")
    info = {"estimator": name, "n_cells": int(fe.n_cells), "seed": plan.seed,
            "config": asdict(plan.estimator), "samples": _samples_meta(plan)}
    if isinstance(fitted, FittedBoost):
        info["rounds"] = int(fitted.n_rounds)
    _write_json(out / "training.json", info)
    print(f"fitted {name}: {fe.n_cells} cells -> {out / f'flat_{name}.npz'}")
    return EXIT_OK


def cmd_value(cfg: RunConfig) -> int:
    plan = cfg.european_plan()
    out = cfg.require_out()
    name = plan.estimator_kind
    flat_path = out / f"flat_{name}.npz"
    config = asdict(plan.estimator)
    # the record first: a model fitted under other settings is never parsed
    _check_meta(out / "training.json", config, "train", key="config")
    fe = _read_artifact(flat_path, "train", load_flat)
    x_test, = _read_samples(out, "test_driver")
    drivers = tuple(x_test.shape[1:])
    dims = (plan.model.n_assets, plan.model.n_periods)
    if not fe.dims == drivers == dims:
        raise ArtifactError(f"{flat_path.name} has dims (d, T) = {fe.dims} and samples.npz "
                            f"test drivers have {drivers}, but the config gives "
                            f"{dims}; rerun simulate and train with this config")
    samples = _samples_meta(plan)
    _check_meta(out / "samples_meta.json", samples, "simulate")
    _check_meta(out / "training.json", samples, "train", key="samples")
    surface = value_surface(fe, plan.eval_dates, x_test)
    del x_test  # the CSV write is the stage's memory peak
    surface.to_csv(out / f"value_surface_{name}.csv")
    _write_json(out / f"value_surface_{name}.meta.json",
                {"estimator": name, "seed": plan.seed, "config": config, "samples": samples})
    print(f"valued {surface.values.shape[0]} scenarios at dates {list(surface.dates)} "
          f"-> {out / f'value_surface_{name}.csv'}")
    return EXIT_OK


def _load_surface(path: Path, dates: tuple, n: int) -> ValueSurface:
    """Read a ``ValueSurface.to_csv`` file; rows may come in any order.

    A file at other dates than the given ones, or without each of the
    scenario ids 0..n-1 once at every date, raises ArtifactError.
    """
    rows = _read_artifact(path, "value",
                          lambda p: np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2))
    if rows.shape[0] == 0 or rows.shape[1] != 3:
        raise ArtifactError(f"{path.name}: expected rows of scenario_id,t,value "
                            "(rerun the value stage)")
    ids, t, value = rows.T
    got, want = _distinct(t).tolist(), sorted(dates)
    if got != want:  # also fractional, NaN and inf dates
        raise ArtifactError(f"{path.name}: dates must be integers and the config's {want}, "
                            f"got {got}; rerun value with this config")
    k = _distinct(ids).size
    order = np.lexsort((ids, t))  # date-major, then scenario id
    if k != n or ids.size != len(want) * n or \
            not (ids[order].reshape(len(want), n) == np.arange(n)).all():
        raise ArtifactError(f"{path.name} holds {k} scenario ids, not the config's n_test {n} "
                            f"ids 0..{n - 1} once at every date; rerun value with this config")
    return ValueSurface(dates=tuple(want), values=value[order].reshape(len(want), n).T.copy())


def cmd_risk(cfg: RunConfig) -> int:
    plan = cfg.european_plan()
    out = cfg.require_out()
    name = plan.estimator_kind
    surface = _load_surface(out / f"value_surface_{name}.csv", plan.eval_dates, plan.n_test)
    x_test, y_test = _read_samples(out, "test_driver", "test_payoff")
    samples = _samples_meta(plan)
    _check_meta(out / "samples_meta.json", samples, "simulate")
    meta = out / f"value_surface_{name}.meta.json"
    _check_meta(meta, asdict(plan.estimator), "value", key="config")
    _check_meta(meta, samples, "value", key="samples")
    v0, _ = oracle_v0(y_test)
    v1, _ = _date1_truth(plan, x_test[:, :, 0])
    risk_stage(plan, surface, v0, v1, y_test, out)
    print(f"risk tables written to {out}")
    return EXIT_OK


def cmd_bermudan(cfg: RunConfig) -> int:
    plan = cfg.bermudan_plan()
    out = cfg.require_out(fresh=True)
    report = run_bermudan(plan, out)
    mass_T = report.stopping[-1]
    print(f"bermudan value0={report.value0:.6f} (truth {report.true_value0:.6f}), "
          f"stopping mass at T: {mass_T:.5f} -> {out}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    plan = cfg.european_plan()
    # build the Bermudan plan first so a bad section fails before any fit
    bermudan = cfg.bermudan_plan() if cfg.has_bermudan else None
    out = cfg.require_out(fresh=True)
    report = run_experiment(plan, out)
    if bermudan is not None:
        run_bermudan(bermudan, out / "bermudan")
    digest = bundle_hash(out)
    with open(out / "bundle.hash", "w") as fh:
        fh.write(digest + "\n")
    print(f"report bundle at {out} (hash {digest[:16]}...)")
    print(f"  {plan.estimator_kind}: " +
          ", ".join(f"t={t}: {e:.3f}%" for t, e in report.l2_rows))
    if report.underfit:
        print("  underfit: the date-1 error exceeds the date-T error")
    return EXIT_OK


# -------------------------------------------------------------- entry point


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="YAML configuration file")
    p.add_argument("--seed", type=int, default=None, help="override experiment.seed")
    p.add_argument("--scale", choices=_SCALES, default=None,
                   help="plan-size preset (default from config, else desk)")
    p.add_argument("--threads", type=int, default=None,
                   help="cap worker threads (default: available cores)")
    p.add_argument("--out", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treeval",
                                 description="Tree-ensemble payoff learning with "
                                             "closed-form dynamic valuation")
    sub = ap.add_subparsers(dest="command", required=True)
    specs = [("simulate", cmd_simulate, "draw driver/price samples and payoffs"),
             ("train", cmd_train, "fit the configured estimator and flatten it"),
             ("value", cmd_value, "evaluate the value surface on the test sample"),
             ("risk", cmd_risk, "compute risk tables and Q-Q data from the surface"),
             ("bermudan", cmd_bermudan, "run the early-exercise pipeline"),
             ("report", cmd_report, "run the full pipeline and write the report bundle")]
    for name, run, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(run=run)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {args.threads}")
            set_threads(args.threads)
        return args.run(load_config(args))
    except ConfigError as e:
        print(f"CONFIG_ERROR: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ArtifactError as e:
        print(f"MISSING_ARTIFACT: {e}", file=sys.stderr)
        return EXIT_ARTIFACT
    except Exception as e:  # noqa: BLE001 - single-line error contract
        print(f"RUNTIME_ERROR: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

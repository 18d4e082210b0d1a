"""Command-line front end: config parsing, subcommands, report emission.

Subcommands: simulate, train, value, risk, bermudan, report.  Every
command takes ``--config PATH`` (YAML) plus optional ``--seed``,
``--scale {desk,paper}``, ``--threads``, ``--out DIR`` overrides.  Exit
codes: 0 success, 2 config error, 3 missing upstream artifact, 4
runtime failure; errors print one machine-parsable line
``<ERROR_CLASS>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .bench import (DESK_ESTIMATORS, BermudanPlan, ExperimentPlan, bundle_hash,
                    desk_plan, oracle_v0, oracle_v1, paper_bermudan_plan, paper_plan,
                    risk_stage, run_bermudan, run_experiment, sample_streams,
                    standard_model, write_snapshot)
from .ensemble import fit
from .flat import flatten_model, load_flat, save_flat, write_flat_text
from .measure import CopulaMeasure, ProductMeasure
from .parallel import set_threads
from .paths import BlackScholesModel, Payoff
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


def _type_name(v) -> str:
    return type(v).__name__


def _section(doc: dict, name: str, allowed: set, required: bool = False) -> dict:
    node = doc.get(name)
    if node is None:
        if required:
            raise ConfigError(f"missing required section '{name}'")
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"section '{name}' must be a mapping, got {_type_name(node)}")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{name}.{key}' "
                              f"(allowed: {', '.join(sorted(allowed))})")
    return node


def _get(node: dict, path: str, key: str, kind, default=None, enum=None, nullable=False):
    if key not in node:
        return default
    val = node[key]
    if val is None and nullable:
        return None
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if kind is not None and not isinstance(val, kind) or isinstance(val, bool) and kind is int:
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {_type_name(val)}")
    if enum is not None and val not in enum:
        raise ConfigError(f"{path}.{key}: unknown value {val!r} "
                          f"(expected one of: {', '.join(map(str, sorted(enum)))})")
    return val


def _present(node: dict, path: str, kinds: dict) -> dict:
    """Type-checked values of the keys of node that kinds lists; absent keys are left out."""
    return {key: _get(node, path, key, kinds[key], enum=_ENUMS.get(key),
                      nullable=key in _NULLABLE)
            for key in node if key in kinds}


def _build_payoff(doc: dict) -> Payoff:
    node = _section(doc, "payoff", {"kind", "strike", "barrier", "coupon", "face"},
                    required=True)
    kind = _get(node, "payoff", "kind", str, enum={"min_put", "max_call", "brc"})
    if kind is None:
        raise ConfigError("payoff.kind is required")
    try:
        return Payoff(kind=kind, strike=_get(node, "payoff", "strike", float, 1.0),
                      barrier=_get(node, "payoff", "barrier", float, 0.6),
                      coupon=_get(node, "payoff", "coupon", float, 0.0),
                      face=_get(node, "payoff", "face", float, 1.0))
    except ValueError as e:
        raise ConfigError(f"payoff: {e}") from None


def _build_model(doc: dict, payoff_kind: str) -> BlackScholesModel:
    """The payoff's standard model with the keys the config sets replaced."""
    node = _section(doc, "model", {"kind", "d", "rate", "vol", "initial_price", "steps"})
    _get(node, "model", "kind", str, "black_scholes", enum={"black_scholes"})
    try:
        model = standard_model(payoff_kind, **_present(node, "model", {"d": int, "rate": float}))
        d = model.n_assets
        changes = {}
        if "vol" in node:
            vol = node["vol"]
            changes["vols"] = vol * np.eye(d) if isinstance(vol, (int, float)) else vol
        if "initial_price" in node:
            price = node["initial_price"]
            changes["initial_prices"] = np.full(d, float(price)) \
                if isinstance(price, (int, float)) else price
        if "steps" in node:
            changes["steps"] = node["steps"]
        return replace(model, **changes)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"model: {e}") from None


def _build_measure(doc: dict, d: int, T: int):
    node = _section(doc, "measure", {"kind", "theta"})
    kind = _get(node, "measure", "kind", str, "product_normal",
                enum={"product_normal", "clayton"})
    try:
        if kind == "clayton":
            theta = _get(node, "measure", "theta", float)
            if theta is None:
                raise ConfigError("measure.theta is required for the clayton measure")
            return CopulaMeasure.clayton(theta, d, T)
        return ProductMeasure.standard_normal(d, T)
    except ValueError as e:
        raise ConfigError(f"measure: {e}") from None


# settable keys and their types per estimator kind ("features", an int or "all",
# is checked by TreeConfig)
_EST_KEYS = {
    "boost": {"rounds": int, "learning_rate": float, "nodesize": int, "max_depth": int,
              "patience": int, "seed": int},
    "forest": {"n_trees": int, "nodesize": int, "features": None, "sampling": str,
               "n_resample": int, "max_depth": int, "seed": int},
    "tree": {"nodesize": int, "max_depth": int, "features": None, "seed": int},
}
_BERMUDAN_KEYS = {"z0": float, "sigma": float, "strike": float, "n_dates": int,
                  "horizon": float, "n_train": int, "n_test": int, "mode": str}
_ENUMS = {"sampling": {"bootstrap", "subsample_with", "subsample_without"},
          "mode": {"later", "now", "both"}}
# optional estimator fields, which a YAML null sets to None; every other key rejects null
_NULLABLE = {"max_depth", "patience", "n_resample"}


def _build_estimator(node: dict, path: str):
    """The kind's desk default config with the keys the config sets replaced."""
    if not isinstance(node, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    kind = _get(node, path, "kind", str, enum=set(_EST_KEYS))
    if kind is None:
        raise ConfigError(f"{path}.kind is required")
    for key in node:
        if key != "kind" and key not in _EST_KEYS[kind]:
            raise ConfigError(f"unknown key '{path}.{key}' for kind '{kind}'")
    try:
        return replace(DESK_ESTIMATORS[kind], **_present(node, path, _EST_KEYS[kind]))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _build_bermudan(doc: dict, base: BermudanPlan) -> BermudanPlan:
    node = _section(doc, "bermudan", set(_BERMUDAN_KEYS) | {"estimator"}, required=True)
    fields = _present(node, "bermudan", _BERMUDAN_KEYS)
    if node.get("estimator") is not None:
        fields["estimator"] = _build_estimator(node["estimator"], "bermudan.estimator")
    try:
        return replace(base, **fields)
    except ValueError as e:
        raise ConfigError(f"bermudan: {e}") from None


class RunConfig:
    """Parsed and validated configuration document."""

    def __init__(self, doc: dict, args):
        if not isinstance(doc, dict):
            raise ConfigError("top-level config must be a mapping")
        known = {"experiment", "model", "payoff", "measure", "plan", "estimator", "bermudan"}
        for key in doc:
            if key not in known:
                raise ConfigError(f"unknown section '{key}' "
                                  f"(allowed: {', '.join(sorted(known))})")
        exp = _section(doc, "experiment", {"name", "seed", "scale", "out"})
        self.name = _get(exp, "experiment", "name", str, "run")
        self.seed = args.seed if args.seed is not None else \
            _get(exp, "experiment", "seed", int, 0)
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        self.scale = args.scale if args.scale is not None else \
            _get(exp, "experiment", "scale", str, "desk", enum=set(_SCALES))
        out = args.out if args.out is not None else _get(exp, "experiment", "out", str)
        self.out = Path(out) if out is not None else None
        self.doc = doc
        self.has_bermudan = "bermudan" in doc

    def european_plan(self) -> ExperimentPlan:
        payoff = _build_payoff(self.doc)
        model = _build_model(self.doc, payoff.kind)
        measure = _build_measure(self.doc, model.n_assets, model.n_periods)
        node = _section(self.doc, "plan",
                        {"n_train", "n_valid", "n_test", "n_inner", "dates"})
        base = (paper_plan if self.scale == "paper" else desk_plan)(payoff.kind)
        fields = _present(node, "plan", {"n_train": int, "n_valid": int, "n_test": int,
                                         "n_inner": int})
        # an unset n_valid keeps the scale's size, not a share of the configured n_train
        fields.setdefault("n_valid", base.valid_size)
        dates = node.get("dates")
        if dates is not None:
            if not isinstance(dates, list) or not all(isinstance(t, int) for t in dates):
                raise ConfigError("plan.dates must be a list of integers")
            dates = _check_dates(dates, model.n_periods, "plan.dates")
            if not {0, 1} <= set(dates):
                raise ConfigError(f"plan.dates must include 0 and 1 (risk reads V_0 - V_1), "
                                  f"got {list(dates)}")
        if self.doc.get("estimator") is not None:
            fields["estimator"] = _build_estimator(self.doc["estimator"], "estimator")
        try:
            return replace(base, name=self.name, payoff=payoff, model=model, dates=dates,
                           seed=self.seed, measure=measure, **fields)
        except ValueError as e:
            raise ConfigError(f"plan: {e}") from None

    def bermudan_plan(self) -> BermudanPlan:
        base = paper_bermudan_plan(self.seed) if self.scale == "paper" else \
            BermudanPlan(seed=self.seed)
        return _build_bermudan(self.doc, base)

    def require_out(self) -> Path:
        if self.out is None:
            raise ConfigError("an output directory is required "
                              "(experiment.out or --out)")
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out


def _check_dates(dates, T: int, what: str) -> tuple:
    if any(not 0 <= t <= T for t in dates):
        raise ConfigError(f"{what}: dates must lie in 0..{T}, got {list(dates)}")
    if len(set(dates)) != len(dates):
        raise ConfigError(f"{what}: dates must be distinct, got {list(dates)}")
    return tuple(dates)


def load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
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
    meta = {"seed": plan.seed, "name": plan.name}
    for tag, s in streams.items():
        arrays[f"{tag}_driver"] = s.driver.data
        arrays[f"{tag}_prices"] = s.prices
        arrays[f"{tag}_payoff"] = s.payoffs
        meta[f"n_{tag}"] = s.payoffs.size
    np.savez_compressed(out / "samples.npz", **arrays)
    meta["dims"] = [plan.model.n_assets, plan.model.n_periods]
    write_snapshot(out / "config.snapshot", plan)
    with open(out / "samples_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote samples for {sum(s.payoffs.size for s in streams.values())} paths "
          f"to {out}")
    return EXIT_OK


def _samples_path(out: Path) -> Path:
    path = out / "samples.npz"
    if not path.exists():
        raise ArtifactError(f"missing samples.npz in {out} (run the simulate stage first)")
    return path


def _read_arrays(path: Path, *names: str) -> tuple:
    """The named arrays of an npz archive, each inflated once; the archive is closed."""
    with np.load(path) as data:
        return tuple(data[name] for name in names)


def cmd_train(cfg: RunConfig) -> int:
    plan = cfg.european_plan()
    out = cfg.require_out()
    x_train, y_train, x_valid, y_valid = _read_arrays(
        _samples_path(out), "train_driver", "train_payoff", "valid_driver", "valid_payoff")
    name = plan.estimator_kind
    fitted = fit(plan.estimator, x_train, y_train, (x_valid, y_valid))
    fe = flatten_model(fitted)
    save_flat(fe, out / f"flat_{name}.npz")
    write_flat_text(fe, out / f"flat_{name}.txt")
    with open(out / "training.json", "w") as fh:
        info = {"estimator": name, "n_cells": int(fe.n_cells), "seed": plan.seed}
        if hasattr(fitted, "n_rounds"):
            info["rounds"] = int(fitted.n_rounds)
        json.dump(info, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"fitted {name}: {fe.n_cells} cells -> {out / f'flat_{name}.npz'}")
    return EXIT_OK


def cmd_value(cfg: RunConfig, dates_arg=None) -> int:
    plan = cfg.european_plan()
    T = plan.model.n_periods
    dates = plan.eval_dates
    if dates_arg:
        try:
            dates = [T if tok.upper() == "T" else int(tok) for tok in dates_arg]
        except ValueError:
            raise ConfigError(f"--t: expected integers or T, got {' '.join(dates_arg)}") from None
        dates = _check_dates(dates, T, "--t")
    out = cfg.require_out()
    samples = _samples_path(out)
    name = plan.estimator_kind
    flat_path = out / f"flat_{name}.npz"
    if not flat_path.exists():
        raise ArtifactError(f"missing {flat_path.name} in {out} (run the train stage first)")
    fe = load_flat(flat_path)
    x_test, = _read_arrays(samples, "test_driver")
    drivers = tuple(x_test.shape[1:])
    dims = (plan.model.n_assets, T)
    if not fe.dims == drivers == dims:
        raise ArtifactError(f"{flat_path.name} has dims (d, T) = {fe.dims} and samples.npz "
                            f"test drivers have {drivers}, but the config gives "
                            f"{dims}; rerun simulate and train with this config")
    measure = plan.measure
    surface = value_surface(fe, measure, dates, x_test,
                            meta={"estimator": name, "seed": plan.seed})
    del x_test  # the CSV write is the stage's memory peak
    surface.to_csv(out / f"value_surface_{name}.csv")
    surface.write_meta(out / f"value_surface_{name}.meta.json")
    print(f"valued {surface.values.shape[0]} scenarios at dates {list(dates)} "
          f"-> {out / f'value_surface_{name}.csv'}")
    return EXIT_OK


def _load_surface(path: Path) -> ValueSurface:
    """Read a ``ValueSurface.to_csv`` file; rows may come in any order."""
    if not path.exists():
        raise ArtifactError(f"missing {path.name} in {path.parent} "
                            "(run the value stage first)")
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as e:  # ragged rows or a field that is not a number
        raise ArtifactError(f"{path.name}: unreadable value surface ({e}); "
                            "rerun the value stage") from e
    if rows.shape[0] == 0 or rows.shape[1] != 3:
        raise ArtifactError(f"{path.name}: expected rows of scenario_id,t,value "
                            "(rerun the value stage)")
    ids, t, value = rows.T
    dates = np.unique(t)
    k = ids.size // dates.size
    order = np.lexsort((ids, t))  # date-major, then scenario id
    if ids.size != dates.size * k or \
            not (ids[order].reshape(dates.size, k) == np.arange(k)).all():
        raise ArtifactError(f"{path.name}: every date must carry exactly the scenario "
                            "ids 0..k-1 once (rerun the value stage)")
    return ValueSurface(dates=tuple(int(d) for d in dates),
                        values=value[order].reshape(dates.size, k).T.copy())


def cmd_risk(cfg: RunConfig) -> int:
    plan = cfg.european_plan()
    out = cfg.require_out()
    samples = _samples_path(out)
    name = plan.estimator_kind
    surface = _load_surface(out / f"value_surface_{name}.csv")
    x_test, y_test = _read_arrays(samples, "test_driver", "test_payoff")
    n_test = x_test.shape[0]
    if surface.values.shape[0] != n_test:
        raise ArtifactError(f"value_surface_{name}.csv holds {surface.values.shape[0]} "
                            f"scenarios but samples.npz holds {n_test} test scenarios; "
                            "rerun the value stage")
    for t in (0, 1):
        if t not in surface.dates:
            raise ArtifactError(f"value surface lacks date {t}; rerun value with "
                                "--t including 0 and 1")
    v0, _ = oracle_v0(y_test)
    v1, _ = oracle_v1(plan.payoff, plan.model, x_test[:, :, 0],
                      plan.n_inner, plan.seed)
    risk_stage(plan, surface, v0, v1, y_test, out)
    print(f"risk tables written to {out}")
    return EXIT_OK


def cmd_bermudan(cfg: RunConfig) -> int:
    plan = cfg.bermudan_plan()
    out = cfg.require_out()
    report = run_bermudan(plan, out)
    mass_T = report.stopping[-1]
    print(f"bermudan value0={report.value0:.6f} (truth {report.true_value0:.6f}), "
          f"stopping mass at T: {mass_T:.5f} -> {out}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    plan = cfg.european_plan()
    # build the Bermudan plan first so a bad section fails before any fit
    bermudan = cfg.bermudan_plan() if cfg.has_bermudan else None
    out = cfg.require_out()
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
    specs = [("simulate", "draw driver/price samples and payoffs"),
             ("train", "fit the configured estimator and flatten it"),
             ("value", "evaluate the value surface on the test sample"),
             ("risk", "compute risk tables and Q-Q data from the surface"),
             ("bermudan", "run the early-exercise pipeline"),
             ("report", "run the full pipeline and write the report bundle")]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "value":
            p.add_argument("--t", nargs="+", default=None, metavar="DATE",
                           help='dates to evaluate (integers, or "T")')
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {args.threads}")
            set_threads(args.threads)
        cfg = load_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "value":
            return cmd_value(cfg, args.t)
        if args.command == "risk":
            return cmd_risk(cfg)
        if args.command == "bermudan":
            return cmd_bermudan(cfg)
        return cmd_report(cfg)
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

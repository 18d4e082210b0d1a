"""Seed-independent output checks and accuracy figures for one pass.

Every check is attributed to the stage whose output it reads, so a
failed check fails that stage call.  Checks run after the stages, with
the tracer already removed, so an ``evaluate_flat`` reference never
counts as membership time.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# files that differ between identical runs by design (as in bench.bundle_hash)
NONDETERMINISTIC = {"timings.csv", "bundle.hash"}
EXACT_TOL = 1e-12
SUBSET = 200


def file_digests(out_dir: Path) -> dict:
    """SHA-256 of every deterministic output file, keyed by relative path."""
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name not in NONDETERMINISTIC}


def digest_mismatches(reference: dict, other: dict) -> list:
    """Relative paths whose bytes differ between two passes, or exist in one only."""
    return sorted(k for k in set(reference) | set(other) if reference.get(k) != other.get(k))


def read_surface(path: Path):
    """Parse a long-format value surface CSV into (dates, values (k, n_dates))."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ids = rows[:, 0].astype(np.int64)
    ts = rows[:, 1].astype(np.int64)
    dates = np.unique(ts)
    k = int(ids.max()) + 1
    if rows.shape[0] != k * dates.size:
        raise ValueError(f"{rows.shape[0]} rows for {k} scenarios x {dates.size} dates")
    values = np.full((k, dates.size), np.nan)
    values[ids, np.searchsorted(dates, ts)] = rows[:, 2]
    return tuple(int(t) for t in dates), values


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Checker:
    """Collects check failures per stage."""

    def __init__(self):
        self.failures = {}

    def check(self, stage: str, what: str, fn):
        """Run fn; a False result or an exception fails ``stage``."""
        try:
            ok = fn()
        except Exception as e:  # noqa: BLE001 - a broken output is a failed check
            ok = False
            what = f"{what} ({type(e).__name__}: {e})"
        if not ok:
            self.failures.setdefault(stage, []).append(what)
        return ok


def check_european(out: Path, config: dict, treeval) -> tuple:
    """Checks for simulate/train/value/risk outputs; returns (failures, accuracy)."""
    c = Checker()
    name = config.get("estimator", {}).get("kind", "boost")
    acc = {}
    samples = {}

    def load_samples():
        with np.load(out / "samples.npz") as z:
            samples.update({k: z[k] for k in ("test_driver", "test_payoff")})
        return bool(np.isfinite(samples["test_payoff"]).all()
                    and samples["test_driver"].shape[0] == samples["test_payoff"].size)
    c.check("simulate", "samples.npz loads with finite test payoffs", load_samples)

    fe = {}

    def load_model():
        fe["fe"] = treeval.flat.load_flat(out / f"flat_{name}.npz")
        info = json.loads((out / "training.json").read_text())
        return info["n_cells"] == fe["fe"].n_cells
    c.check("train", f"flat_{name}.npz loads and matches training.json", load_model)

    surf = {}

    def load_surface():
        surf["dates"], surf["values"] = read_surface(out / f"value_surface_{name}.csv")
        return True
    if c.check("value", "value surface parses into a full grid", load_surface):
        dates, values = surf["dates"], surf["values"]
        c.check("value", "all surface values finite", lambda: bool(np.isfinite(values).all()))
        if 0 in dates:
            col0 = values[:, dates.index(0)]
            c.check("value", "date-0 column constant", lambda: bool((col0 == col0[0]).all()))
        T = max(dates)
        if "fe" in fe and "test_driver" in samples and T == fe["fe"].dims[1]:
            def terminal_matches_model():
                x = samples["test_driver"]
                idx = np.unique(np.linspace(0, x.shape[0] - 1, SUBSET).astype(np.int64))
                ref = treeval.flat.evaluate_flat(fe["fe"], x[idx])
                return float(np.max(np.abs(values[idx, dates.index(T)] - ref))) <= EXACT_TOL
            c.check("value", "date-T column equals evaluate_flat on a fixed subset",
                    terminal_matches_model)
            if 0 in dates:
                ref = float(samples["test_payoff"].mean())
                v0 = float(values[0, dates.index(0)])
                err = values[:, dates.index(T)] - samples["test_payoff"]
                acc["v0_err_pct"] = 100.0 * abs(v0 - ref) / abs(ref)
                acc["l2_T_pct"] = 100.0 * float(np.sqrt(np.mean(err * err))) / abs(ref)

    def risk_table():
        rows = _csv_rows(out / "risk.csv")
        es = [r for r in rows if r["measure"] == "es" and r["position"] == "long"
              and float(r["alpha"]) == 0.99]
        vals = np.array([float(r[k]) for r in rows for k in ("estimate", "oracle")])
        if len(es) != 1 or not np.isfinite(vals).all():
            return False
        acc["es_err_pct"] = abs(float(es[0]["relative_error_pct"]))
        return (out / "qq_t1.csv").is_file()
    c.check("risk", "risk.csv holds finite VaR/ES rows incl. long ES(0.99)", risk_table)
    return c.failures, acc


def check_bermudan(out: Path, config: dict, treeval) -> tuple:
    """Checks for the bermudan stage outputs; returns (failures, accuracy)."""
    c = Checker()
    acc = {}
    files = ["stopping.csv"] + (["stopping_now.csv"]
                                if config["bermudan"].get("mode") == "both" else [])
    for fname in files:
        def sums_to_one(fname=fname):
            p = np.array([float(r["probability"]) for r in _csv_rows(out / fname)])
            return bool((p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9)
        c.check("bermudan", f"{fname} is a distribution summing to 1", sums_to_one)

    def l2_table():
        rows = _csv_rows(out / "bermudan_l2.csv")
        errs = {int(r["t"]): float(r["l2_error_pct"]) for r in rows}
        if sorted(errs) != list(range(config["bermudan"]["n_dates"])):
            return False
        if not np.isfinite(list(errs.values())).all():
            return False
        # at t = 0 every path sits at z0, so the row is |V_0 - Black put| / Black put
        acc["v0_err_pct"] = errs[0]
        acc["l2_max_pct"] = max(errs.values())
        return True
    c.check("bermudan", "bermudan_l2.csv has one finite row per exercise date", l2_table)
    return c.failures, acc


CHECKS = {"european": check_european, "bermudan": check_bermudan}

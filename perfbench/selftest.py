"""Self-tests of the benchmark on a tiny plan.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Run from the root of a treeval checkout.  Checks that the span wrappers
leave output bytes unchanged, that a corrupted output counts as a failed
stage call, that a removed public name reads as absent, that spans from
thread_map workers keep their parent, that metric names are valid and
that every per-layer metric has a prediction for every workload.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import onepass  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
treeval = common.import_treeval(ROOT)

TINY = {
    "european": {
        "experiment": {"name": "tiny"},
        "payoff": {"kind": "min_put", "strike": 1.0},
        "model": {"d": 2},
        "estimator": {"kind": "boost", "rounds": 4, "nodesize": 20, "max_depth": 4},
        "plan": {"n_train": 200, "n_valid": 100, "n_test": 300, "n_inner": 8},
    },
    "bermudan": {
        "experiment": {"name": "tiny"},
        "bermudan": {"n_dates": 3, "mode": "both", "n_train": 300, "n_test": 300,
                     "estimator": {"kind": "forest", "n_trees": 3, "nodesize": 20,
                                   "features": 1, "seed": 11}},
    },
}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _pipeline(kind: str, workdir: Path, traced: bool):
    """Run the tiny pipeline's stages; returns (out dir, stage records, tracer)."""
    import yaml
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "config.yaml"
    config.write_text(yaml.safe_dump(TINY[kind]))
    out = workdir / "out"
    out.mkdir()
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install(treeval)
    try:
        setup, timed = common.STAGES[kind]
        stages = [dict(onepass.run_stage(treeval.cli, s, config, 5, out), timed=s in timed)
                  for s in setup + timed]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out, stages, tracer


def test_wrappers_are_transparent():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for kind in ("european", "bermudan"):
            plain, stages, _ = _pipeline(kind, Path(tmp) / f"{kind}-plain", False)
            traced, _, tracer = _pipeline(kind, Path(tmp) / f"{kind}-traced", True)
            assert all(s["rc"] == 0 for s in stages), stages
            a, b = checks.file_digests(plain), checks.file_digests(traced)
            assert a and checks.digest_mismatches(a, b) == [], checks.digest_mismatches(a, b)
            values, absent = spans.layer_metrics(tracer)
            assert absent == [], absent
            assert {m[0] for m in spans.LAYER_METRICS} == set(values)
            if kind == "european":
                assert values["cart.best_split.calls"][0] > 0
                assert values["flat.weighted_membership.tT.busy_s"][0] > 0
                assert values["bench.inner_paths"][0] == 300 * 8
            else:
                assert values["bermudan.gaussian_cell_sum.calls"][0] > 0
                assert values["flat.weighted_membership.busy_s"][0] == 0
    # uninstall restored every binding
    assert treeval.valuation.weighted_membership is treeval.flat.weighted_membership
    assert not hasattr(treeval.cli.main, "__wrapped__")


def test_corrupted_output_is_a_failed_stage_call():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out, stages, _ = _pipeline("european", Path(tmp) / "run", False)
        failures, _ = checks.check_european(out, TINY["european"], treeval)
        assert failures == {}, failures
        reference = {"stages": stages, "failures": {}, "digests": checks.file_digests(out)}

        surface = out / "value_surface_boost.csv"
        lines = surface.read_text().splitlines()
        sid, t, _ = lines[-1].split(",")
        lines[-1] = f"{sid},{t},12345.0"
        surface.write_text("\n".join(lines) + "\n")
        failures, _ = checks.check_european(out, TINY["european"], treeval)
        assert list(failures) == ["value"], failures
        assert any("evaluate_flat" in f for f in failures["value"]), failures

        other = dict(reference, digests=checks.file_digests(out))
        got = run.stage_failures(other, reference, ["simulate", "train", "value", "risk"])
        assert list(got) == ["value"], got


def test_absent_public_name_reads_absent():
    tracer = spans.Tracer()
    tracer.install(treeval)
    tracer.uninstall()
    tracer.installed.discard("bench.oracle_v1")
    values, absent = spans.layer_metrics(tracer)
    assert set(absent) == {"bench.oracle_v1.busy_s", "bench.inner_paths",
                           "bench.inner_paths_per_s"}, absent
    assert values["bench.inner_paths"][0] == 0.0


def test_worker_spans_keep_their_parent():
    tracer = spans.Tracer()
    interval = sys.getswitchinterval()
    threads = treeval.parallel.get_threads()
    tracer.install(treeval)
    try:
        sys.setswitchinterval(1e-6)
        treeval.parallel.set_threads(8)
        n = 400
        out = treeval.parallel.thread_map(lambda i: treeval.paths.stream_rng(1, i).integers(9),
                                          range(n))
    finally:
        tracer.uninstall()
        treeval.parallel.set_threads(threads)
        sys.setswitchinterval(interval)
    assert len(out) == n
    ix = spans.SpanIndex(tracer.spans)
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    (tm,) = ix.by_name["parallel.thread_map"]
    items = ix.by_name["parallel.thread_map.item"]
    rngs = ix.by_name["paths.stream_rng"]
    assert len(items) == n and len(rngs) == n
    assert all(s.parent == tm.id for s in items)
    assert {s.parent for s in rngs} == {s.id for s in items}
    assert tm.info == {"items": n, "workers": 8}
    assert len({s.thread for s in items}) > 1


def test_metric_names_are_valid():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]
    bad = [n for n in metrics + workloads if not NAME_RE.fullmatch(n)]
    assert not bad, bad
    assert len(set(metrics)) == len(metrics)
    assert workloads == list(common.load_workloads())
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    # every per-layer metric has exactly one prediction, for every workload
    predictions = json.loads((common.HERE / "workloads.json").read_text())["predictions"]
    predicted = [m for p in predictions for m in p["metrics"]]
    assert sorted(predicted) == sorted(run.per_layer_names()), predicted
    assert all(set(p["moves"]) == set(workloads) for p in predictions), predictions


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

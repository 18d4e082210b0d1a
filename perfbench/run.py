"""treeval benchmark: staged CLI pipelines timed from outside, with a layer trace.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a treeval checkout.  Workloads are defined in
``perfbench/workloads.json``; metric names and units in ``BENCHMARK.json``.

A run repeats passes of one workload, each in its own process
(``onepass.py``), until ``--seconds`` are used; every pass uses the same
seed.  With ``--trace 0`` all passes are untraced and the run reports the
end-to-end metrics as medians over passes.  With ``--trace 1`` untraced
and traced passes alternate; the run reports the per-layer metrics of the
traced passes and the tracing overhead.

``setup_s`` and ``pipeline_s`` are scaled to a reference host speed: each
pass times a fixed probe job that runs no treeval code after its imports
and after every stage, and its seconds are multiplied by
``common.PROBE_REF_S`` / (mean probe seconds of the pass).  Probe time is
never inside a timed window.  The raw seconds are printed and recorded
next to them.  Every stage call is one
operation: it fails on an exception, a nonzero exit, a failed output
check, or output bytes that differ from the run's first untraced pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A record of the run (revision,
thread settings, versions, per-pass timings and host steal ticks) is
written under ``.perfbench_runs/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
import spans
from checks import digest_mismatches

PASS_TIMEOUT_S = 150.0   # a run must end within 180 s
MIN_CYCLES = 2           # untraced runs: two passes so outputs can be compared
RUNS_DIR = ".perfbench_runs"
STAGE_NAMES = ("simulate", "train", "value", "risk", "bermudan")
ACCURACY = ("v0_err_pct", "l2_T_pct", "l2_max_pct", "es_err_pct")


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports; BENCHMARK.json lists the same."""
    return ([m[0] for m in spans.LAYER_METRICS]
            + [f"cli.{s}.bytes_written" for s in STAGE_NAMES]
            + ["trace.overhead_s", "trace.spans"]
            + [f"accuracy.{k}" for k in ACCURACY])


def read_steal_ticks():
    """Host steal ticks summed over all CPUs, or None where /proc/stat is missing."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return res.stdout.strip() if res.returncode == 0 else "unavailable"


def run_pass(root: Path, workload: str, seed: int, pass_dir: Path, traced: bool,
             timeout: float) -> dict:
    """Run onepass.py in a child process and return its record (or a failure record)."""
    env = dict(os.environ, **{k: common.BLAS_THREADS for k in common.BLAS_ENV})
    cmd = [sys.executable, str(common.HERE / "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(pass_dir), "--trace", str(int(traced))]
    steal0 = read_steal_ticks()
    spawned = time.monotonic()
    try:
        res = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                             timeout=timeout)
        lines = res.stdout.strip().splitlines()
        rec = json.loads(lines[-1]) if res.returncode == 0 and lines else None
        error = None if rec else f"exit {res.returncode}: {res.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        rec, error = None, f"pass exceeded {timeout:.0f} s"
    except json.JSONDecodeError as e:
        rec, error = None, f"unreadable pass record: {e}"
    ended = time.monotonic()
    steal1 = read_steal_ticks()
    rec = rec or {"error": error, "stages": [], "failures": {}, "digests": {}}
    rec["traced"] = traced
    rec["wall_s"] = ended - spawned
    rec["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    if "first_timed_start" in rec:
        rec["setup_raw_s"] = rec["first_timed_start"] - spawned - rec["setup_probe_s"]
        rec["pipeline_raw_s"] = sum(s["seconds"] for s in rec["stages"] if s["timed"])
        scale = common.PROBE_REF_S / rec["host_probe_s"]
        rec["setup_s"] = rec["setup_raw_s"] * scale
        rec["pipeline_s"] = rec["pipeline_raw_s"] * scale
    return rec


def stage_failures(rec: dict, reference: dict, stage_names: list) -> dict:
    """Failure reasons per stage call of one pass, byte comparison included."""
    if "error" in rec:
        return {s: [rec["error"]] for s in stage_names}
    out = {s: list(v) for s, v in rec["failures"].items()}
    owner = {f: s["stage"] for s in rec["stages"] for f in s["files"]}
    for s in rec["stages"]:
        if s["rc"] != 0:
            out.setdefault(s["stage"], []).append(f"exit {s['rc']}: {s['log'][-300:]}")
    if reference is not None and reference is not rec:
        for f in digest_mismatches(reference["digests"], rec["digests"]):
            stage = owner.get(f) or next((s["stage"] for s in reference["stages"]
                                          if f in s["files"]), stage_names[-1])
            out.setdefault(stage, []).append(f"{f} differs from the first untraced pass")
    return out


def median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize(workload: str, spec: dict, passes: list, bench: dict) -> dict:
    """Aggregate a run's passes into metrics, counts and check results."""
    setup, timed = common.STAGES[spec["kind"]]
    stage_names = setup + timed
    untraced = [p for p in passes if not p["traced"] and "error" not in p]
    traced = [p for p in passes if p["traced"] and "error" not in p]
    reference = untraced[0] if untraced else None
    failures = [stage_failures(p, reference, stage_names) for p in passes]
    attempted = len(passes) * len(stage_names)
    failed = sum(len(f) for f in failures)
    acc = reference["accuracy"] if reference else {}

    def stage_s(p, name):
        return next(s["seconds"] for s in p["stages"] if s["stage"] == name)

    samples = {
        "setup_s": [p["setup_s"] for p in untraced],
        "pipeline_s": [p["pipeline_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "ok_rate": [1.0 - failed / attempted],
        "setup_raw_s": [p["setup_raw_s"] for p in untraced],
        "pipeline_raw_s": [p["pipeline_raw_s"] for p in untraced],
    }
    for name in timed:
        samples[f"{name}_s"] = [stage_s(p, name) for p in untraced]
    samples["host_probe_s"] = [p["host_probe_s"] for p in untraced]
    samples["fail_rate"] = [failed / attempted]
    for k, v in acc.items():
        samples[k] = [v]

    layers, absent = {}, sorted({a for p in traced for a in p["absent"]})
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = median([p["layers"][name][0] for p in traced])
        for name in STAGE_NAMES:
            layers[f"cli.{name}.bytes_written"] = median(
                [next((s["bytes"] for s in p["stages"] if s["stage"] == name), 0)
                 for p in traced])
        # in reference-host seconds, like pipeline_s, so host speed drift cancels
        layers["trace.overhead_s"] = (median([p["pipeline_s"] for p in traced])
                                      - median(samples["pipeline_s"]))
        layers["trace.spans"] = median([p["spans"] for p in traced])
        for k in ACCURACY:
            layers[f"accuracy.{k}"] = traced[0]["accuracy"].get(k, 0.0)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    first = untraced[0] if untraced else {}
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "layers": layers,
        "absent": absent,
        "units": units,
        "failures": [{"pass": i, "traced": p["traced"], "stages": f}
                     for i, (p, f) in enumerate(zip(passes, failures)) if f],
        "passes": [{k: p.get(k) for k in ("traced", "wall_s", "setup_s", "pipeline_s",
                                           "setup_raw_s", "pipeline_raw_s", "peak_rss_mb",
                                           "steal_ticks", "host_probe_s", "host_probes",
                                           "probe_threads", "annotation_errors", "error")}
                   | {"stages": {s["stage"]: s["seconds"] for s in p["stages"]}}
                   for p in passes],
        "treeval_threads": first.get("treeval_threads"),
        "blas_threads": first.get("blas_threads"),
        "versions": first.get("versions"),
    }


def run_workload(root: Path, workload: str, spec: dict, seed: int, seconds: float,
                 trace: bool, bench: dict) -> dict:
    run_dir = root / RUNS_DIR / f"{workload}-seed{seed}-{int(time.time())}-{os.getpid()}"
    records = root / RUNS_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    cycle = (False, True) if trace else (False,)
    passes = []
    started = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - started
            for traced in cycle:
                pass_dir = run_dir / f"pass{len(passes)}"
                passes.append(run_pass(root, workload, seed, pass_dir, traced,
                                       max(10.0, PASS_TIMEOUT_S - elapsed)))
                elapsed = time.monotonic() - started
            cycles = len(passes) // len(cycle)
            if "error" in passes[-1] or elapsed >= PASS_TIMEOUT_S:
                break
            if cycles >= (1 if trace else MIN_CYCLES) and elapsed * (cycles + 1) / cycles > seconds:
                break
        spans_file = run_dir / f"pass{len(passes) - 1}" / "spans.jsonl"
        summary = summarize(workload, spec, passes, bench)
        if spans_file.is_file():
            shutil.copyfile(spans_file, records / f"{run_dir.name}.spans.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    summary.update(seed=seed, seconds=seconds, trace=trace, elapsed_s=time.monotonic() - started,
                   git_revision=git_revision(root), source_sha256=source_digest(root),
                   nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)))
    with open(records / f"{run_dir.name}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    summary["record"] = str((records / f"{run_dir.name}.json").relative_to(root))
    return summary


def report(s: dict) -> None:
    """Human-readable table of one workload's run."""
    print(f"== {s['workload']}  seed {s['seed']}  passes {len(s['passes'])}  "
          f"treeval threads {s['treeval_threads']}  BLAS {s['blas_threads']}  "
          f"nproc {s['nproc']}  rev {s['git_revision'][:12]}")
    print(f"   {'metric':<38}{'median':>14}  {'unit':<7}{'n':>3}")
    for name, xs in s["samples"].items():
        print(f"   {name:<38}{median(xs):>14.6g}  {s['units'].get(name, _unit(name)):<7}"
              f"{len(xs):>3}")
    for name, v in s["layers"].items():
        mark = "  absent" if name in s["absent"] else ""
        print(f"   {name:<38}{v:>14.6g}  {s['units'].get(name, ''):<7}{mark}")
    print(f"   steal ticks per pass: {[p['steal_ticks'] for p in s['passes']]}")
    print(f"   host probe s per pass: {[round(p['host_probe_s'] or 0, 4) for p in s['passes']]}")
    print(f"   checks: {s['attempted'] - s['failed']}/{s['attempted']} stage calls ok")
    for f in s["failures"]:
        print(f"   FAILED pass {f['pass']}{' (traced)' if f['traced'] else ''}: {f['stages']}")
    print(f"   record: {s['record']}")


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "ratio"


def result_line(summaries: list, bench: dict, trace: bool) -> dict:
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for m in wanted:
            value = s["layers"].get(m["name"], 0.0) if trace else median(s["samples"][m["name"]])
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through Python on SIGTERM, so a running pass is killed and awaited
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "treeval" / "__init__.py").is_file():
        print("error: run from the root of a treeval checkout (no src/treeval here)",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = common.load_workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print(f"error: unknown workload {args.workload!r} (have: {', '.join(workloads)}, all)",
              file=sys.stderr)
        return 2
    summaries = []
    for name in names:
        s = run_workload(root, name, workloads[name], args.seed, args.seconds,
                         bool(args.trace), bench)
        report(s)
        summaries.append(s)
    print(json.dumps(result_line(summaries, bench, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

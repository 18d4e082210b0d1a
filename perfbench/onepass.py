"""One pass of a workload in its own process: setup, timed stages, checks.

    python3 perfbench/onepass.py --workload NAME --seed N --dir PASS_DIR --trace 0|1

Run from the root of a treeval checkout; the package is imported from
``src/``.  The stages run in-process through ``treeval.cli.main`` and are
timed from outside.  The last line of standard output is one JSON
object describing the pass; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy
import yaml

import checks
import common
import spans


def _snapshot(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in out.rglob("*") if p.is_file()}


def run_stage(cli, stage: str, config: Path, seed: int, out: Path) -> dict:
    """Call one CLI stage in-process and time it; never raises."""
    argv = [stage, "--config", str(config), "--seed", str(seed), "--out", str(out),
            "--threads", str(common.TREEVAL_THREADS)]
    before = _snapshot(out)
    sink = io.StringIO()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except (Exception, SystemExit) as e:  # noqa: BLE001 - a raising stage is a failed call
        rc = f"{type(e).__name__}: {e}"
    end = time.monotonic()
    after = _snapshot(out)
    files = sorted(k for k, v in after.items() if before.get(k) != v)
    return {"stage": stage, "start": start, "seconds": end - start, "rc": rc,
            "log": sink.getvalue()[-2000:], "files": files,
            "bytes": sum(after[k][0] for k in files)}


def host_probe_s() -> float:
    """Seconds for a fixed pure-Python and numpy job that runs no treeval code.

    It tracks the host's speed at one moment of the pass; the fastest of
    three repeats drops interruptions but follows the host's slow and fast
    spells.
    """
    x = numpy.random.default_rng(0).random(100_000)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(3):
            numpy.sort(x)
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = common.load_workloads()[args.workload]
    treeval = common.import_treeval(Path.cwd())

    pass_dir = Path(args.dir)
    out = pass_dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    config = pass_dir / "config.yaml"
    config.write_text(yaml.safe_dump(spec["config"], sort_keys=True))

    # The host probe runs after the imports and after every stage, never
    # inside a stage: host speed drifts within a pass, and the mean over the
    # pass follows it better than one probe after the stages.  A thread the
    # program left running would slow the probes, so the thread count is kept.
    probes, threads = [], []

    def probe() -> float:
        threads.append(threading.active_count())
        start = time.monotonic()
        probes.append(host_probe_s())
        return time.monotonic() - start

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(treeval)
    setup, timed = common.STAGES[spec["kind"]]
    stages = []
    setup_probe_s = probe()
    try:
        for s in setup + timed:
            stages.append(dict(run_stage(treeval.cli, s, config, args.seed, out),
                               timed=s in timed))
            seconds = probe()
            if s in setup:
                setup_probe_s += seconds
    finally:
        if tracer is not None:
            tracer.uninstall()
    first_timed = next(s["start"] for s in stages if s["timed"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers, absent = ({}, [])
    if tracer is not None:
        layers, absent = spans.layer_metrics(tracer)
        with open(pass_dir / "spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s._asdict(), default=str) + "\n")

    failures, accuracy = checks.CHECKS[spec["kind"]](out, spec["config"], treeval)
    record = {
        "first_timed_start": first_timed,
        "stages": stages,
        "peak_rss_mb": peak_rss_mb,
        "host_probe_s": statistics.mean(probes),
        "host_probes": probes,
        "setup_probe_s": setup_probe_s,
        "probe_threads": max(threads),
        "failures": failures,
        "accuracy": accuracy,
        "digests": checks.file_digests(out),
        "layers": layers,
        "absent": absent,
        "spans": len(tracer.spans) if tracer is not None else 0,
        "annotation_errors": tracer.annotation_errors if tracer is not None else 0,
        "treeval_threads": treeval.get_threads(),
        "blas_threads": {k: os.environ.get(k) for k in common.BLAS_ENV},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

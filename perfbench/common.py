"""Settings and helpers shared by the benchmark's runner and pass processes."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Both thread settings are fixed so that parent and change run alike.  One
# BLAS thread keeps repeated value_surface timings within about 5 percent
# (about 15 percent with the default), and treeval's own pool gets two
# workers, the core count the workloads were sized on.
TREEVAL_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# Host probe seconds on the 2-vCPU host the workloads were sized on.  The
# end-to-end times are scaled by PROBE_REF_S / (the pass's mean probe
# seconds): that host's speed swings by a third and more within seconds
# and over minutes, mostly without steal ticks, and the scaling removes
# most of that swing while a slower treeval still shows.
PROBE_REF_S = 0.024

# per workload kind: (set-up stages, timed stages); simulate draws the inputs
STAGES = {"european": (["simulate"], ["train", "value", "risk"]),
          "bermudan": ([], ["bermudan"])}

# treeval modules whose public functions the traced pass wraps
LAYERS = ("cart", "ensemble", "flat", "measure", "valuation", "bermudan",
          "bench", "paths", "parallel", "risk", "cli")


def load_workloads() -> dict:
    with open(HERE / "workloads.json") as fh:
        doc = json.load(fh)
    return {k: v for k, v in doc.items() if isinstance(v, dict) and "config" in v}


def import_treeval(root: Path):
    """Import treeval from ``root/src`` only, never from an installed copy."""
    src = (root / "src").resolve()
    if not (src / "treeval" / "__init__.py").is_file():
        raise SystemExit(f"no treeval sources under {src}; run from a treeval checkout")
    sys.path.insert(0, str(src))
    import treeval
    if Path(treeval.__file__).resolve().parent != src / "treeval":
        raise SystemExit(f"imported treeval from {treeval.__file__}, expected {src}")
    for name in LAYERS:
        try:
            importlib.import_module(f"treeval.{name}")
        except ModuleNotFoundError:
            pass  # a module removed by a refactor: its layer metrics read absent
    return treeval

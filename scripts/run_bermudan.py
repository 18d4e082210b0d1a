#!/usr/bin/env python3
"""Price a Bermudan put with regress-later tree ensembles.

Runs the single-asset early-exercise study: at each exercise date a
tree ensemble is fitted to the next-date value realized on simulated
paths, the fit is flattened into hyperrectangle form, and its one-step
conditional expectation under the Gaussian transition kernel gives the
continuation value in closed form. The backward recursion yields the
time-0 price, an exercise rule, and the full value process on test
paths, which the script scores against the exact put values (zero
rate, so the early-exercise premium vanishes and the European formula
is the truth).

Modes: "later" (default) regresses next-date values realized one step
ahead, "now" regresses them on the current state directly, and "both"
runs the two side by side to expose the regress-now bias in the
stopping rule.

Examples:
    python scripts/run_bermudan.py
    python scripts/run_bermudan.py --estimator boost --mode both
    python scripts/run_bermudan.py --n-dates 12 --out runs/bermudan
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treeval import BermudanPlan, BoostConfig, run_bermudan

ESTIMATORS = {
    "forest": BermudanPlan().estimator,
    "boost": BoostConfig(rounds=100, learning_rate=0.3, nodesize=2,
                         max_depth=6, seed=11),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--estimator", choices=sorted(ESTIMATORS), default="forest",
                        help="per-date continuation-value estimator")
    parser.add_argument("--mode", choices=("later", "now", "both"), default="later",
                        help="regression timing for the continuation values")
    parser.add_argument("--n-dates", type=int, default=7,
                        help="number of exercise dates on (0, horizon]")
    parser.add_argument("--sigma", type=float, default=0.2, help="volatility")
    parser.add_argument("--strike", type=float, default=1.0, help="put strike")
    parser.add_argument("--n-train", type=int, default=5000,
                        help="training paths per exercise date")
    parser.add_argument("--n-test", type=int, default=20000, help="test paths")
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the report bundle (created if missing)")
    return parser.parse_args(argv)


def print_report(report, elapsed):
    plan = report.plan
    print(f"=== bermudan put  (seed {plan.seed}, {elapsed:.1f}s) ===")
    print(f"{plan.n_dates} exercise dates, sigma {plan.sigma}, strike {plan.strike}, "
          f"{plan.n_train} train / {plan.n_test} test paths")
    gap = 100.0 * (report.value0 - report.true_value0) / report.true_value0
    print(f"time-0 value {report.value0:.6f} vs exact {report.true_value0:.6f} "
          f"({gap:+.3f}%)")
    if report.value0_now is not None:
        gap_now = 100.0 * (report.value0_now - report.true_value0) / report.true_value0
        print(f"regress-now value {report.value0_now:.6f} ({gap_now:+.3f}%)")

    print("\nstopping distribution over exercise dates:")
    dates = range(len(report.stopping))
    print("  t:    " + "".join(f"{t:>9}" for t in dates))
    print("  mass: " + "".join(f"{m:>9.4f}" for m in report.stopping))
    if report.stopping_now is not None:
        print("  now:  " + "".join(f"{m:>9.4f}" for m in report.stopping_now))
    print(f"  terminal mass {report.stopping[-1]:.4f}" +
          (f" (regress-now {report.stopping_now[-1]:.4f})"
           if report.stopping_now is not None else ""))

    print("\nnormalized L2 value errors vs exact put values "
          "(percent of time-0 value):")
    for t, err in report.l2_rows:
        print(f"  t={t:<3} {err:8.4f}%")

    if report.out_dir is not None:
        print(f"\nbundle written to {report.out_dir}")
        print(f"config digest {report.config_hash}")


def main(argv=None):
    args = parse_args(argv)
    plan = BermudanPlan(sigma=args.sigma, strike=args.strike,
                        n_dates=args.n_dates, n_train=args.n_train,
                        n_test=args.n_test, seed=args.seed,
                        estimator=ESTIMATORS[args.estimator], mode=args.mode)
    start = time.perf_counter()
    report = run_bermudan(plan, out_dir=args.out)
    print_report(report, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())

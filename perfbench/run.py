"""Run a benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own process (``child.py``).  With ``--trace 0``
the end-to-end metrics come from one timed run with tracing off, plus
set-up-only processes so that ``setup_s`` is a median.  With ``--trace 1``
the per-layer metrics come from a traced run; a second traced run on the
same seed must reproduce every count exactly.  ``--workload all`` runs every
workload both ways.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats
import tracing
from child import PROBE_REF_S

PROBE_REF_MS = PROBE_REF_S * 1e3
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "files", "fair")
SETUPS = 3            # set-ups per timed run; setup_s is their median
TIME_LIMIT_S = 170.0  # one workload, both set-ups and the run, must fit this

END_TO_END = {        # name -> unit
    "solves_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [f"{layer}.{m}" for layer in tracing.LAYERS
             for m in ("calls", "busy_s", "self_s")]
    names += [f"{name}.busy_s" for name in tracing.BUSY_NAMES]
    names += list(tracing.COUNT_KEYS) + ["trace.overhead_ratio"]
    return {name: ("s" if name.endswith("_s") else
                   "bytes" if ".bytes_" in name else
                   "ratio" if name.endswith("_ratio") else "count")
            for name in names}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float,
          *extra: str) -> dict:
    """Run one ``child.py`` process to completion and return its report."""
    env = dict(os.environ)
    env.pop("WATERLINE_SEED", None)   # the CLI would let it override --seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"                # one client, no extra threads
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode}: no result within the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """End-to-end metrics of one workload, tracing off."""
    setups = [run_child(workload, seed, seconds, "setup", deadline)
              for _ in range(SETUPS - 1)]
    main = run_child(workload, seed, seconds, "measure", deadline)
    tally = stats.Tally()
    for report in setups + [main]:
        tally.merge(report["tally"]["attempted"], report["tally"]["causes"])
    samples = main["samples_ms"]
    timed_s = sum(samples) / 1e3
    setup_values = [r["setup_s"] for r in setups + [main]]
    values = {
        "solves_per_s": main["solves"] / timed_s,
        "op_ms_p50": stats.percentile(samples, 0.5),
        "op_ms_p90": stats.percentile(samples, 0.9),
        "setup_s": statistics.median(setup_values),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    n = len(samples)
    raw = main["raw_ms"]
    notes = {
        "solves_per_s": f"{main['solves']} verified solves in {timed_s:.2f} s "
                        f"of {main['rounds']} rounds; raw {main['solves'] / sum(raw) * 1e3:.4f}",
        "op_ms_p50": f"n={n}, {stats.beyond(n, 0.5)} beyond; raw {stats.percentile(raw, 0.5):.4f}",
        "op_ms_p90": f"n={n}, {stats.beyond(n, 0.9)} beyond"
                     + ("" if stats.beyond(n, 0.9) >= 10 else ", fewer than 10: not resolved")
                     + f"; raw {stats.percentile(raw, 0.9):.4f}",
        "setup_s": "median of " + ", ".join(f"{v:.3f}" for v in setup_values)
                   + "; raw " + ", ".join(f"{r['setup_raw_s']:.3f}" for r in setups + [main]),
        "peak_rss_mb": "ru_maxrss of the timed process",
    }
    shares = {}
    for kind, ms in zip(main["kinds"], samples):
        shares[kind] = shares.get(kind, 0.0) + ms
    total = sum(shares.values())
    lines = [f"== {workload} seed {seed}: timed run, tracing off; CPU times at the "
             f"reference speed (speed probe median {main['probe_ms']:.4f} ms, "
             f"reference {PROBE_REF_MS:.3f} ms)",
             "env: " + json.dumps(main["env"])]
    lines += [f"  {name:<14} {values[name]:>14.4f} {unit:<4} ({notes[name]})"
              for name, unit in END_TO_END.items()]
    lines.append(f"  {'failed_ratio':<14} {tally.failed_ratio:>14.4f}      "
                 f"({tally.failed}/{tally.attempted} ops; by cause {dict(tally.causes)})")
    lines.append("  op time share by class: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in sorted(shares.items())))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, tally, lines, True


def trace(workload: str, seed: int, seconds: float, deadline: float):
    """Per-layer metrics from a traced run, and a second one to compare counts."""
    spans = os.path.join(ROOT, ".bench_work", f"spans-{workload}-seed{seed}.json")
    first = run_child(workload, seed, seconds, "trace", deadline,
                  "--untraced-pass", "--spans-out", spans)
    second = run_child(workload, seed, seconds, "trace", deadline)
    tally = stats.Tally()
    for report in (first, second):
        tally.merge(report["tally"]["attempted"], report["tally"]["causes"])
    differ = sorted(k for k in first["counts"]
                    if first["counts"][k] != second["counts"].get(k))
    units = per_layer_units()
    metrics = {name: {"value": first["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    lines = [f"== {workload} seed {seed}: traced run ({first['rounds']} rounds, "
             f"{first['spans']} spans written to {os.path.relpath(spans, ROOT)})",
             "env: " + json.dumps(first["env"])]
    lines += [f"  {name:<30} {m['value']:>18.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append("  counts repeat between two traced runs: "
                 + ("yes" if not differ else "NO, differ in " + ", ".join(differ)))
    lines.append(f"  failed: {tally.failed}/{tally.attempted} ops; "
                 f"by cause {dict(tally.causes)}")
    return metrics, tally, lines, not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a waterline benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.workload == "all":
        plan = [(w, fn) for w in WORKLOADS for fn in (measure, trace)]
    else:
        plan = [(args.workload, trace if args.trace else measure)]
    metrics, tally, correct = {}, stats.Tally(), True
    for workload, fn in plan:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            got, got_tally, lines, ok = fn(workload, args.seed, args.seconds, deadline)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        tally.merge(got_tally.attempted, got_tally.causes)
        correct = correct and ok
    print(json.dumps({"correct": correct and tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

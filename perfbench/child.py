"""One benchmark workload in one process; ``run.py`` starts it.

Modes:

* ``setup``   -- import ``waterline.cli``, generate the first round's inputs
  and run one warm-up op; report how long that took.
* ``measure`` -- the same set-up, then whole rounds of timed ops until about
  ``--seconds`` of op time has passed.  Tracing is off.
* ``trace``   -- the same set-up, then a fixed number of rounds with the
  layer wrappers installed (after an untraced pass over the same inputs
  when ``--untraced-pass`` is given, for the tracing overhead).

Every op's output is checked outside the timed region.  The last line of
standard output is one JSON document for ``run.py``.

Clock.  Times are the process's CPU time (``time.process_time``).  The ops
are single-threaded and compute-bound, so on an unshared machine CPU time
equals wall time; on a shared virtual machine wall time also counts the
time the host runs other guests.  CPU time still stretches when another
guest contends for the same core, by up to 1.8x within a minute on the
machine the bounds were set on.  So in ``setup`` and ``measure`` mode a
speed probe runs a fixed stretch of interpreted code every 0.1 s of wall
time, and right before and after each op.  Each op's CPU time, less the
probe's own, is scaled by ``PROBE_REF_S`` over the probe's median time
around that op: it reads as the time at the reference speed.  The raw
times are reported next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback

CLOCK = time.process_time
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

# Rounds in a traced run.  Fixed, so counts compare across runs and commits.
TRACE_ROUNDS = {"sweep": 1, "files": 3, "fair": 1}
# A timed run has at least two rounds, so a percentile never rests on the
# single sample of an op class in one round.
MIN_ROUNDS = 2
# The probe's CPU time at the reference speed: its typical time on the
# quiet 2-core Xeon machine the bounds were set on.
PROBE_REF_S = 2.6e-4


def environment(numpy_version: str) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "cpu": cpu}


class _Channel:
    """Scalar code shaped like an objective's ``demand``."""

    __slots__ = ("w", "a", "b")

    def __init__(self, w, a, b):
        self.w, self.a, self.b = w, a, b

    def demand(self, mu):
        return self.w / mu - self.b / self.a


_CHANNELS = [_Channel(1.0 + i / 64, 0.5 + i / 32, 1.0) for i in range(64)]


class SpeedProbe:
    """Samples the CPU time of a fixed stretch of interpreted code.

    ``start`` makes a wall-clock timer take a sample every ``interval``
    seconds from a signal handler, so long ops are sampled while they run.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = CLOCK()
        total = 0.0
        for r in range(40):
            mu = 0.5 + r / 40
            total += sum(ch.demand(mu) for ch in _CHANNELS)
        took = CLOCK() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def scale(self, first: int = 0) -> float:
        """Reference over measured speed, from the samples since ``first``."""
        return PROBE_REF_S / statistics.median(self.samples[first:])


class Runner:
    """Runs ops, times them, checks them and counts failures by cause."""

    def __init__(self, workload, tally, probe: SpeedProbe | None = None):
        self.wl = workload
        self.tally = tally
        self.probe = probe
        self.rec = None
        self.ops_run = 0
        self._reported: set[str] = set()

    def _report(self, cause: str) -> None:
        if cause not in self._reported:
            self._reported.add(cause)
            traceback.print_exc(file=sys.stderr)

    def execute(self, op) -> tuple[float, float, str | None]:
        """Time one op, then check it.

        Returns the op's CPU seconds (less the probe's), the probe's scale
        factor around the op (1 without a probe) and the failure cause.
        """
        rec, probe = self.rec, self.probe
        if rec is not None:
            rec.op = self.ops_run
            rec.on = True
        self.ops_run += 1
        if probe is not None:
            probe.sample()
            first, spent = len(probe.samples) - 1, probe.spent
        cause = None
        start = CLOCK()
        try:
            output = self.wl.run(op)
        except Exception as exc:  # a failed op is counted, the loop goes on
            cause = type(exc).__name__
            self._report(cause)
        elapsed = CLOCK() - start
        scale = 1.0
        if probe is not None:
            elapsed -= probe.spent - spent
            probe.sample()
            scale = probe.scale(first)
        if rec is not None:
            rec.on = False
        if cause is None:
            try:
                cause = self.wl.check(op, output)
            except Exception as exc:
                cause = type(exc).__name__
                self._report(cause)
        self.tally.add(cause)
        return elapsed, scale, cause


def fixed_pass(runner, rounds: int) -> float:
    """Run rounds ``0..rounds-1``; return their total op time."""
    total = 0.0
    for r in range(rounds):
        for op in runner.wl.ops(r):
            total += runner.execute(op)[0]
        runner.wl.done(r)
    return total


def timed_rounds(runner, first_ops, seconds: float) -> dict:
    """Whole rounds until the op time is nearest ``seconds``."""
    wl = runner.wl
    raw, scaled, kinds, solves, timed, r = [], [], [], 0, 0.0, 0
    ops = first_ops
    while True:
        for op in ops:
            elapsed, scale, cause = runner.execute(op)
            raw.append(elapsed * 1e3)
            scaled.append(elapsed * scale * 1e3)
            kinds.append(op.kind)
            timed += elapsed
            solves += op.solves if cause is None else 0
        wl.done(r)
        r += 1
        if r >= MIN_ROUNDS and timed + 0.5 * timed / r >= seconds:
            break
        ops = wl.ops(r)
    return dict(samples_ms=scaled, raw_ms=raw, kinds=kinds, solves=solves, rounds=r)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--untraced-pass", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    probe = None if args.mode == "trace" else SpeedProbe()
    if probe is not None:
        probe.start()
    t0 = CLOCK()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import waterline.cli  # noqa: F401  (its import time is part of set-up)
    import numpy

    import stats
    import tracing
    import workloads

    os.makedirs(WORK, exist_ok=True)
    tally = stats.Tally()
    out = {"env": environment(numpy.__version__)}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        runner = Runner(wl, tally, probe)
        warm = wl.ops(0, warm=True)
        first = wl.ops(0)
        setup_s = CLOCK() - t0 - (probe.spent if probe else 0.0)
        for op in warm:
            setup_s += runner.execute(op)[0]
        wl.done(0, warm=True)
        out["setup_raw_s"] = setup_s
        out["setup_s"] = setup_s * (probe.scale() if probe else 1.0)

        if args.mode == "measure":
            out.update(timed_rounds(runner, first, args.seconds))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif args.mode == "trace":
            rounds = TRACE_ROUNDS[args.workload]
            untraced = fixed_pass(runner, rounds) if args.untraced_pass else None
            rec = tracing.Recorder()
            installed = tracing.install(rec)
            try:
                runner.rec = rec
                traced = fixed_pass(runner, rounds)
            finally:
                installed.restore()
            metrics = tracing.layer_metrics(rec)
            if untraced is not None:
                metrics["trace.overhead_ratio"] = traced / untraced
            out.update(metrics=metrics, rounds=rounds, spans=len(rec.spans),
                       counts={k: v for k, v in metrics.items()
                               if k.endswith(".calls") or k in tracing.COUNT_KEYS})
            if args.spans_out:
                rec.dump(args.spans_out, dict(workload=args.workload, seed=args.seed,
                                              env=out["env"]))
    if probe is not None:
        probe.stop()
        out["probe_ms"] = statistics.median(probe.samples) * 1e3
    out["tally"] = tally.to_dict()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: inputs, ops and output checks.

Every input comes from the benchmark seed through the public API
(``ScenarioSpec``/``generate``, ``save_instance`` and the families in
``waterline.objectives``); the program receives only those inputs.  Each
workload is a closed loop with one client: the next op starts when the
previous one and its check have finished.  Ops come in rounds, a fixed mix
of op classes, and a run always measures whole rounds so the mix is the
same in every run.

Library functions are looked up as module attributes at call time
(``waterline.fair.solve_fair``, not a name bound at import), so the traced
run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import waterline
import waterline.box
import waterline.cli
import waterline.fair
import waterline.io
import waterline.nested
import waterline.objectives
import waterline.oracle
import waterline.scenario

POWER_TOL = 1e-6        # cross-strategy agreement, as in acceptance criterion 2
OBJECTIVE_TOL = 1e-8
CHECK_TOL = 1e-8        # optimality-condition residual tolerance
STRATEGIES = ("set_a", "set_b", "bisect")   # files skips "order" on purpose


@dataclass
class Op:
    kind: str                 # op class, for the per-class time shares
    solves: int               # solves one successful op completes
    args: dict = field(default_factory=dict)


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def stratified_exponential(rng, shape) -> np.ndarray:
    """Unit-mean exponential (Rayleigh-fading power) gains, one per stratum.

    Each row takes one draw from each of ``shape[-1]`` equal-probability
    strata, in random order, so every instance has nearly the same gain
    spectrum and solver cost varies little from seed to seed.
    """
    k = shape[-1]
    strata = np.argsort(rng.random(shape), axis=-1)
    u = (strata + rng.random(shape)) / k
    return 1e-3 - np.log1p(-u)


def agree(problem, powers, reference) -> str | None:
    """``None`` when powers match a reference allocation, else ``disagree``."""
    if len(powers) != len(reference.powers):
        return "disagree"
    linf = max(abs(p - q) for p, q in zip(powers, reference.powers))
    value = sum(obj.eval(p) for obj, p in zip(problem.objectives, powers))
    if linf > POWER_TOL or abs(value - reference.objective_value) > OBJECTIVE_TOL:
        return "disagree"
    return None


def other_strategy(strategy: str) -> str:
    return "set_a" if strategy == "set_b" else "set_b"


class Cli:
    """In-process ``waterline`` commands with their stdout kept aside."""

    def __init__(self):
        self.sink = io.StringIO()

    def __call__(self, args: list[str]) -> int:
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            try:
                waterline.cli.main.main(args=args, prog_name="waterline",
                                        standalone_mode=True)
            except SystemExit as exc:
                return 0 if exc.code is None else exc.code
        return 0


class Workload:
    """One round of ops at a time; inputs for round ``r`` depend on (seed, r)."""

    name = ""

    def __init__(self, seed: int, workdir: str, params: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.params = dict(self.DEFAULTS, **(params or {}))
        self.cli = Cli()

    def round_dir(self, key: str) -> str:
        path = os.path.join(self.workdir, key)
        os.makedirs(path, exist_ok=True)
        return path

    def ops(self, r: int, warm: bool = False) -> list[Op]:
        """Generate round ``r`` (or the warm-up round) and return its ops."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        raise NotImplementedError

    def done(self, r: int, warm: bool = False) -> None:
        shutil.rmtree(os.path.join(self.workdir, self._key(r, warm)),
                      ignore_errors=True)

    @staticmethod
    def _key(r: int, warm: bool) -> str:
        return "warm" if warm else f"r{r}"


class Sweep(Workload):
    """Paper-scale ``waterline sweep`` with the default ``order`` strategy."""

    name = "sweep"
    DEFAULTS = dict(antennas=4, taps=7, subcarriers=256, snrs=(0, 5, 10, 15, 20),
                    gamma=0.4, tau=1.6, realizations=4)

    def ops(self, r, warm=False):
        p = self.params
        d = self.round_dir(self._key(r, warm))
        return [Op("sweep", p["realizations"] * len(p["snrs"]), dict(
            seed=derive_seed(self.seed, int(warm), r),
            csv=os.path.join(d, "sweep.csv"), dump=os.path.join(d, "dump.json")))]

    def run(self, op):
        p = self.params
        return self.cli([
            "sweep", "--antennas", str(p["antennas"]), "--taps", str(p["taps"]),
            "--subcarriers", str(p["subcarriers"]),
            "--snr-list", ",".join(str(s) for s in p["snrs"]),
            "--gamma", str(p["gamma"]), "--tau", str(p["tau"]),
            "--realizations", str(p["realizations"]), "--seed", str(op.args["seed"]),
            "--out", op.args["csv"], "--dump", op.args["dump"]])

    def check(self, op, code):
        p = self.params
        if code != 0:
            return "SystemExit"
        with open(op.args["csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [float(row["snr_db"]) for row in rows] != [float(s) for s in p["snrs"]]:
            return "check_failed"
        if any(int(row["solved"]) != p["realizations"] or int(row["errors"]) != 0
               for row in rows):
            return "check_failed"
        mse = [float(row["mean_mse"]) for row in rows]
        if any(later >= earlier for earlier, later in zip(mse, mse[1:])):
            return "check_failed"
        with open(op.args["dump"], encoding="utf-8") as fh:
            dump = json.load(fh)
        if dump["snr_db"] != float(p["snrs"][-1]):
            return "check_failed"
        spec = waterline.ScenarioSpec(
            antennas=p["antennas"], taps=p["taps"], subcarriers=p["subcarriers"],
            snr_db=dump["snr_db"], gamma=p["gamma"], tau=p["tau"],
            seed=op.args["seed"])
        problem = waterline.scenario.build_instance(spec, 0)
        if not waterline.oracle.check_conditions(problem, dump["powers"], CHECK_TOL).passed:
            return "check_failed"
        reference = waterline.box.solve_box(
            problem, waterline.SolverConfig(box_strategy="set_a"))
        return agree(problem, dump["powers"], reference)


class Files(Workload):
    """``waterline solve`` to a result file, then ``waterline verify`` of it."""

    name = "files"
    # Op classes in round order; op i uses STRATEGIES[i % 3], so the three
    # box ops cover set_a, set_b and bisect once each.  The weights keep
    # every class under half of the op time at the commit that set them.
    DEFAULTS = dict(antennas=4, subcarriers=256, taps=7, snr_db=10.0, gamma=0.4,
                    tau=1.6, p1_k=256, asc_k=64,
                    schedule=("box", "asc", "p1", "asc", "box", "asc", "p1",
                              "asc", "box"))

    def _p1(self, rng) -> waterline.SimplexProblem:
        """Mixed closed-form and numeric-inverse families under one budget."""
        k = self.params["p1_k"]
        objs = []
        for i in range(k):
            w, a, b = (float(x) for x in rng.uniform(0.5, 2.0, 3))
            family = i % 5
            if family == 0:
                objs.append(waterline.objectives.LogCapacity(w, a, b))
            elif family == 1:
                objs.append(waterline.objectives.InverseMse(w, a, b))
            elif family == 2:
                objs.append(waterline.objectives.AfRelay(w, float(rng.uniform(0.1, 0.9)), b))
            else:
                cls = waterline.objectives.SumLog if family == 3 \
                    else waterline.objectives.SumInverseMse
                terms = [[float(x) for x in rng.uniform(0.5, 2.0, 3)] for _ in range(3)]
                objs.append(cls(terms[0], a, b, terms[1], terms[2]))
        return waterline.SimplexProblem(objs, k * float(rng.uniform(1.0, 2.0)))

    def _ascending(self, rng) -> waterline.AscendingProblem:
        """Prefix caps tighter than the unconstrained split, so it splits often."""
        k = self.params["asc_k"]
        objs = []
        for i in range(k):
            w, a = float(rng.uniform(0.5, 2.0)), 1e-3 + float(rng.exponential(1.0))
            cls = waterline.objectives.LogCapacity if i % 2 == 0 \
                else waterline.objectives.InverseMse
            objs.append(cls(w, a, 1.0))
        prefix = np.cumsum(rng.uniform(0.5, 1.5, k))
        upper = rng.uniform(1.5, 4.0, k)
        return waterline.AscendingProblem(objs, [float(x) for x in prefix],
                                          None, [float(x) for x in upper])

    def ops(self, r, warm=False):
        p = self.params
        d = self.round_dir(self._key(r, warm))
        schedule = p["schedule"][:1] if warm else p["schedule"]
        spec = waterline.ScenarioSpec(
            antennas=p["antennas"], taps=p["taps"], subcarriers=p["subcarriers"],
            snr_db=p["snr_db"], gamma=p["gamma"], tau=p["tau"],
            realizations=schedule.count("box"), seed=derive_seed(self.seed, int(warm), r))
        boxes = iter(waterline.scenario.generate(spec))
        rng = np.random.default_rng([self.seed, int(warm), r])
        ops = []
        for i, kind in enumerate(schedule):
            problem = next(boxes) if kind == "box" else \
                self._p1(rng) if kind == "p1" else self._ascending(rng)
            inst = os.path.join(d, f"op{i}.json")
            waterline.io.save_instance(problem, inst)
            ops.append(Op(kind, 1, dict(problem=problem, instance=inst,
                                        result=os.path.join(d, f"op{i}.result.json"),
                                        strategy=STRATEGIES[i % len(STRATEGIES)])))
        return ops

    def run(self, op):
        a = op.args
        solved = self.cli(["solve", a["instance"], "--strategy", a["strategy"],
                           "--out", a["result"]])
        if solved != 0:
            return solved, None
        return solved, self.cli(["verify", a["instance"], a["result"]])

    def check(self, op, output):
        solved, verified = output
        if solved != 0:
            return "SystemExit"
        if verified != 0:
            return "check_failed"
        with open(op.args["result"], encoding="utf-8") as fh:
            powers = json.load(fh)["powers"]
        problem = op.args["problem"]
        cfg = waterline.SolverConfig(box_strategy=other_strategy(op.args["strategy"]))
        if op.kind == "asc":
            reference = waterline.nested.solve_ascending(problem, cfg)
        else:
            if op.kind == "p1":
                problem = waterline.BoxProblem(problem.objectives, problem.budget,
                                               problem.lower_bounds)
            reference = waterline.box.solve_box(problem, cfg)
        return agree(problem, powers, reference)


class Fair(Workload):
    """``solve_fair`` then ``check_conditions`` on 4 groups of 64 channels."""

    name = "fair"
    # Every mode in each round; the max-min modes twice, so that over two
    # rounds the nearest-rank p50 falls among the boxed-maxmin ops and p90
    # among the cluster_maxmin ops, not on the edge between two modes.
    DEFAULTS = dict(groups=4, channels=64,
                    schedule=("maxmin", "maxmin_boxed", "cluster_maxmin",
                              "maxmin", "maxmin_boxed", "cluster"),
                    sigma_e2=0.05, upper_share=2.0)

    def _problem(self, rng, mode: str) -> waterline.FairProblem:
        p = self.params
        n_g, k = p["groups"], p["channels"]
        budget = float(n_g * k)          # a uniform share of one per channel
        gains = stratified_exponential(rng, (n_g, k))
        if mode.startswith("cluster"):
            groups = [[waterline.objectives.ClusterLogCapacity(
                1.0, float(a), p["sigma_e2"], 1.0) for a in row] for row in gains]
            return waterline.FairProblem(groups, budget, mode=mode)
        groups = [[waterline.objectives.LogCapacity(1.0, float(a), 1.0) for a in row]
                  for row in gains]
        upper = [[p["upper_share"]] * k for _ in range(n_g)] \
            if mode == "maxmin_boxed" else None
        return waterline.FairProblem(groups, budget, mode="maxmin", upper_bounds=upper)

    def ops(self, r, warm=False):
        schedule = self.params["schedule"]
        rng = np.random.default_rng([self.seed, int(warm), r])
        return [Op(mode, 1, dict(problem=self._problem(rng, mode)))
                for mode in (schedule[:1] if warm else schedule)]

    def run(self, op):
        problem = op.args["problem"]
        solution = waterline.fair.solve_fair(problem)
        return waterline.oracle.check_conditions(problem, solution, CHECK_TOL)

    def check(self, op, report):
        return None if report.passed else "check_failed"


WORKLOADS = {cls.name: cls for cls in (Sweep, Files, Fair)}

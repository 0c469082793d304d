"""The four benchmark workloads, their timed phases and their correctness checks.

Every workload is a closed loop in one single-threaded process: each call
starts when the previous one returns.  The workload seed becomes the config's
master seed, which derives the data-noise, sketch, eigensolver and design-batch
seeds, so the program only ever sees generated inputs.

A workload has three phases:

- ``setup()``: timed as ``setup_s``.  Returns the state the work runs on.
- ``work(state)``: timed as ``design_s`` and/or ``analysis_s``; fills the
  per-call evaluation records.
- ``finish()``: untimed.  Builds the exact reference and runs the
  correctness checks and accuracy metrics on what the work recorded.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from oed_dopt import cli, inverse, oed, optimize
from oed_dopt import problem as problem_mod
from oed_dopt.accounting import solve_counter
from oed_dopt.config import ExperimentConfig
from oed_dopt.sketch import SketchConfig, SpectrumSplit, error_bounds

from exact import ExactReference, rel_err

ROOT = Path(__file__).resolve().parent.parent
GAMMA = 0.6  # the desk config's penalty, also the reference gamma of the ladder
FROZEN_LADDER = (0.4, 0.6, 0.8, 1.0, 1.2)
SKETCH = dict(k=40, p=5, q=1)
EIG_K = 40
FROZEN_K = 45
# active sensors of the optimized binary design at GAMMA: 16 of 35 on desk for
# seeds 1-10 and on mesh-rand for seeds 1-5 (see README.md, "Workloads")
EIG_DESIGN_CARDINALITY = 16
ACCEPT_TOL = 1e-8  # acceptance tolerance of the dense-oracle equivalence
EIG_RTOL = 1e-8  # residual tolerance of sketch.exact_eigs


def desk_config() -> dict:
    """The config that scripts/desk_pipeline.py writes, as a fresh dict."""
    spec = importlib.util.spec_from_file_location("desk_pipeline", ROOT / "scripts" / "desk_pipeline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return json.loads(json.dumps(module.DESK_CONFIG))


class Run:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        row = self.checks.setdefault(name, {"passed": 0, "failed": 0, "first_failure": None})
        if ok:
            row["passed"] += 1
        else:
            row["failed"] += 1
            self.failed += 1
            if row["first_failure"] is None:
                row["first_failure"] = detail
        return ok


class TimedEstimator:
    """The estimator handed to the optimizer; times each (J, grad) call.

    It keeps the latency and the solves spent of every call and, with
    ``keep``, the (w, J, grad) records, so the checks and the accuracy metrics
    run later, outside the timed region.
    """

    def __init__(self, estimator, keep: bool = False):
        self._estimator = estimator
        self.keep = keep
        self.latency: list = []
        self.spent: list = []
        self.records: list = []

    def __getattr__(self, name):
        return getattr(self._estimator, name)

    def evaluate(self, w):
        before = solve_counter.snapshot()
        t0 = time.perf_counter()
        J, grad = self._estimator.evaluate(w)
        self.latency.append(time.perf_counter() - t0)
        self.spent.append(solve_counter.snapshot() - before)
        if self.keep:
            self.records.append((np.array(w), J, np.array(grad)))
        return J, grad


def lu_fill(problem) -> dict:
    """Stored nonzeros of the sparse LU factor each operator holds (read only)."""

    def nnz(lu):
        return int(lu.L.nnz + lu.U.nnz)

    return {"transport": nnz(problem.forward._lu), "prior": nnz(problem.prior._lu)}


class Workload:
    name = ""
    fresh_state = False  # True: every session needs its own set-up
    min_sessions = 1  # sessions per run, however short --seconds is
    setups = 25  # set-ups per run, spread over it; setup_s is their median
    block_cols = 1  # widest transport block, for the working-set record

    def __init__(self, seed: int, smoke: bool, run: Run, scratch: Path):
        self.seed = seed
        self.smoke = smoke
        self.run = run
        self.scratch = scratch
        self.latency: list = []  # estimator (J, grad) latencies, all sessions
        self.accuracy: dict = {}
        self.problem = None  # a problem of this workload, for the layer records

    @contextmanager
    def probes(self):
        """Light untraced probes held for the whole run (none by default)."""
        yield

    def working_set_mib(self) -> float:
        """LU factors (value + index) plus one n x l block of doubles."""
        fill = lu_fill(self.problem)
        n = self.problem.G.n
        return (12 * (fill["transport"] + fill["prior"]) + 8 * n * self.block_cols) / 2**20


# -- desk: the four CLI commands ----------------------------------------------


class Desk(Workload):
    name = "desk"
    fresh_state = True
    min_sessions = 2  # one session is ~13 s; two halve the weight of a slow phase
    setups = 300  # synthesize takes ~10 ms
    block_cols = SKETCH["k"] + SKETCH["p"]

    def __init__(self, seed, smoke, run, scratch):
        super().__init__(seed, smoke, run, scratch)
        self.config = desk_config()
        self.n_designs = 10 if smoke else 200
        self.estimators: list = []  # TimedEstimator per oed command
        self.z_log: list = []  # per session: (cache existed, solves) per precompute_z call
        self.sessions: list = []  # output directory per session

    @contextmanager
    def probes(self):
        estimator, precompute_z = cli._estimator, oed.precompute_z

        def timed_estimator(problem, config):
            est = TimedEstimator(estimator(problem, config))
            self.estimators.append(est)
            return est

        def logged_z(G, noise, n_t, cache_path=None, config_hash=None):
            existed = cache_path is not None and os.path.exists(cache_path)
            before = solve_counter.snapshot()
            out = precompute_z(G, noise, n_t, cache_path, config_hash)
            self.z_log[-1].append((existed, solve_counter.snapshot() - before))
            return out

        cli._estimator, oed.precompute_z = timed_estimator, logged_z
        try:
            yield
        finally:
            cli._estimator, oed.precompute_z = estimator, precompute_z

    def _cli(self, *argv):
        self.run.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv) + ["--seed", str(self.seed)])
        except Exception as exc:  # a traceback breaks the CLI contract; count it
            rc = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        self.run.check("desk_cli_exit_0", rc == 0, f"{argv[0]} returned {rc}")
        return seconds, solve_counter.snapshot().total  # main() resets the tally on entry

    def setup(self):
        out = tempfile.mkdtemp(prefix="desk-", dir=self.scratch)
        cfg_path = os.path.join(out, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(self.config, f)
        seconds, solves = self._cli("synthesize", "--config", cfg_path, "--out", out)
        return out, seconds, solves

    def work(self, out):
        cfg_path = os.path.join(out, "config.json")
        weights = os.path.join(out, "weights.csv")
        self.z_log.append([])
        self.sessions.append(out)
        first_estimator = len(self.estimators)
        design_s, s_oed = self._cli("oed", "--config", cfg_path, "--out", out)
        t_eval, s_eval = self._cli("evaluate", "--config", cfg_path, "--weights", weights, "--out", out)
        t_cmp, s_cmp = self._cli(
            "compare-random", "--config", cfg_path, "--weights", weights,
            "--n-designs", str(self.n_designs), "--out", out,
        )
        for est in self.estimators[first_estimator:]:
            self.latency.extend(est.latency)
            self.run.attempted += len(est.latency)
        return {"design_s": design_s, "analysis_s": t_eval + t_cmp, "solves": s_oed + s_eval + s_cmp}

    def finish(self):
        run = self.run
        cfg = ExperimentConfig.from_dict(self.config).with_master_seed(self.seed)
        problem = problem_mod.build_problem(cfg)
        self.problem = problem
        design = problem.design
        n_y = design.G.n_y
        sk = SketchConfig(**SKETCH)
        run.check(
            "desk_sizes",
            (design.G.n, n_y, cfg.sketch.k) == (121, 105, SKETCH["k"]),
            f"n={design.G.n}, n_y={n_y}, k={cfg.sketch.k}",
        )

        check_rand_solves(run, sk, self.estimators)
        for session in self.z_log:
            expected = [(False, (0, n_y))] + [(True, (0, 0))] * (len(session) - 1)
            got = [(existed, (s.forward, s.adjoint)) for existed, s in session]
            run.check("desk_z_cache", len(session) == 3 and got == expected, f"z calls {got}")

        # every session did the same work; read the first one's artifacts
        out = self.sessions[0]
        with open(os.path.join(out, "metrics.json")) as f:
            metrics = json.load(f)
        with open(os.path.join(out, "weights.csv")) as f:
            rows = list(csv.DictReader(f))
        w_opt = np.array([float(r["weight"]) for r in rows])
        active = np.array([float(r["active"]) for r in rows])
        with open(os.path.join(out, "cloud.csv")) as f:
            neg_J = np.array([float(r["neg_J"]) for r in csv.DictReader(f)])
        with open(os.path.join(out, "iterations.csv")) as f:
            grad_errs = [float(r["grad_error_vs_dense"]) for r in csv.DictReader(f)]

        ref = ExactReference(design.G, design.noise.sigma, design.n_t)
        dense = design.dense_reference()
        for label, w in (("w_opt", w_opt), ("binary", active), ("ones", np.ones(design.n_s))):
            J_ref, g_ref = ref.evaluate(w)
            J_dense, g_dense, _ = dense.evaluate(w)
            e_J, e_g = rel_err(J_ref, J_dense), rel_err(g_ref, g_dense)
            run.check(
                "exact_ref_vs_dense", max(e_J, e_g) <= ACCEPT_TOL, f"{label}: J {e_J:.2e}, grad {e_g:.2e}"
            )

        logdet = ref.evaluate(active)[0]
        run.check(
            "desk_beats_random",
            neg_J[0] < neg_J[1:].min() and abs(neg_J[0] + logdet) <= ACCEPT_TOL * abs(logdet),
            f"optimized -J {neg_J[0]:.6g}, best random {neg_J[1:].min():.6g}, exact {-logdet:.6g}",
        )
        errs = metrics["errors_vs_dense"]
        eig_err = errs["eig_rel_err"] * abs(errs["dense_J"])
        check_eig_tail(run, ref.spectrum(w_opt), min(sk.k, design.rank_bound), eig_err)
        self.accuracy = {
            "J_rel_err": errs["rand_rel_err"],
            "grad_rel_err": float(np.median(grad_errs)),
            "design_logdet": logdet,
        }


def check_rand_solves(run: Run, sk: SketchConfig, estimators) -> None:
    expected = (sk.l * (sk.q + 2), sk.l * (sk.q + 1))
    for est in estimators:
        for spent in est.spent:
            run.check("rand_eval_solves", (spent.forward, spent.adjoint) == expected, f"spent {spent}")


def check_eig_tail(run: Run, lam: np.ndarray, k: int, err: float) -> None:
    """Eig-k J error is the discarded spectrum's log-det, up to eigensolver error."""
    bound = error_bounds(SpectrumSplit.from_spectrum(lam, k), None, "frozen")
    # each of the k eigenvalues may be off by up to rtol * lam_max
    tol = k * EIG_RTOL * lam[0] + 1e-12 * float(np.sum(np.log1p(lam)))
    run.check("eig_tail_bound", err <= bound + tol, f"error {err:.3e} > bound {bound:.3e} + {tol:.1e}")


# -- mesh workloads: the same physics and sensors on finer meshes ---------------


class MeshWorkload(Workload):
    nx = 32

    def __init__(self, seed, smoke, run, scratch):
        super().__init__(seed, smoke, run, scratch)
        config = desk_config()
        config["mesh"]["nx"] = 10 if smoke else self.nx
        self.config = ExperimentConfig.from_dict(config).with_master_seed(seed)
        self.seeds = self.config.derived_seeds()
        self.sketch = SketchConfig(seed=self.seeds["sketch"], **SKETCH)

    def build(self, problem):
        """Extra set-up after build_problem and ensure_z; returns the state."""
        return problem

    def setup(self):
        before = solve_counter.snapshot()
        t0 = time.perf_counter()
        problem = problem_mod.build_problem(self.config)
        problem.design.ensure_z()
        state = self.build(problem)
        seconds = time.perf_counter() - t0
        self.problem = problem
        return state, seconds, (solve_counter.snapshot() - before).total

    def reference(self) -> ExactReference:
        design = self.problem.design
        return ExactReference(design.G, design.noise.sigma, design.n_t)

    def record_accuracy(self, ref, records):
        """Median relative J and gradient errors over the evaluated designs."""
        errs = []
        for w, J, grad in records:
            J_x, grad_x = ref.evaluate(w)
            errs.append((rel_err(J, J_x), rel_err(grad, grad_x)))
        self.accuracy["J_rel_err"], self.accuracy["grad_rel_err"] = np.median(errs, axis=0).tolist()


class MeshRand(MeshWorkload):
    name = "mesh-rand"
    block_cols = SKETCH["k"] + SKETCH["p"]

    def __init__(self, seed, smoke, run, scratch):
        super().__init__(seed, smoke, run, scratch)
        self.estimators: list = []  # TimedEstimator per session
        self.binary = None

    def work(self, problem):
        est = TimedEstimator(problem.design.estimator("rand", cfg=self.sketch), keep=not self.estimators)
        before = solve_counter.snapshot()
        t0 = time.perf_counter()
        self.run.attempted += 1
        result = optimize.solve_l1(est, GAMMA, w0=np.full(problem.design.n_s, 0.5))
        design_s = time.perf_counter() - t0
        self.run.attempted += len(est.latency)
        self.latency.extend(est.latency)
        self.estimators.append(est)
        self.binary = result.binary
        return {"design_s": design_s, "analysis_s": None, "solves": (solve_counter.snapshot() - before).total}

    def finish(self):
        sk = self.sketch
        check_rand_solves(self.run, sk, self.estimators)
        ref = self.reference()
        self.record_accuracy(ref, self.estimators[0].records)
        self.accuracy["design_logdet"] = ref.evaluate(self.binary)[0]


class MeshFrozen(MeshWorkload):
    name = "mesh-frozen"
    nx = 64
    setups = 3  # each set-up takes ~5 s
    block_cols = FROZEN_K + 10  # build_frozen's default oversampling

    def __init__(self, seed, smoke, run, scratch):
        super().__init__(seed, smoke, run, scratch)
        self.first = None  # (evaluation records, reference-gamma binary) of the first session

    def build(self, problem):
        return problem, problem.design.build_frozen(FROZEN_K, seed=self.seeds["sketch"])

    def work(self, state):
        problem, frozen = state
        design = problem.design
        est = TimedEstimator(design.estimator("frozen", frozen=frozen), keep=self.first is None)
        before = solve_counter.snapshot()
        t0 = time.perf_counter()
        binary = None
        for gamma in FROZEN_LADDER:
            self.run.attempted += 2
            l1 = optimize.solve_l1(est, gamma)
            optimize.solve_continuation(est, gamma)
            if gamma == GAMMA:
                binary = l1.binary
        design_s = time.perf_counter() - t0
        spent = solve_counter.snapshot() - before
        self.run.check("frozen_design_zero_solves", spent.total == 0, f"design phase spent {spent}")
        self.run.attempted += len(est.latency)
        self.latency.extend(est.latency)
        if self.first is None:
            self.first = (est.records, binary)
        return {"design_s": design_s, "analysis_s": None, "solves": spent.total}

    def finish(self):
        records, binary = self.first
        ref = self.reference()
        self.record_accuracy(ref, records)
        self.accuracy["design_logdet"] = ref.evaluate(binary)[0]


class MeshEig(MeshWorkload):
    name = "mesh-eig"
    block_cols = EIG_K

    def __init__(self, seed, smoke, run, scratch):
        super().__init__(seed, smoke, run, scratch)
        self.records = None  # (w, J, grad) per design of the first session
        rng = np.random.default_rng(self.seeds["designs"])
        n_s = len(self.config.sensor_coordinates())
        self.designs = []
        for _ in range(2 if smoke else 12):
            w = np.zeros(n_s)
            w[rng.choice(n_s, size=EIG_DESIGN_CARDINALITY, replace=False)] = 1.0
            self.designs.append(w)

    def work(self, problem):
        design = problem.design
        eig_seed = self.seeds["eigs"]
        before = solve_counter.snapshot()
        t0 = time.perf_counter()
        y_obs, _ = problem.synthesize()
        records = []
        for w in self.designs:
            self.run.attempted += 3  # evaluation, MAP solve, design
            t_eval = time.perf_counter()
            J, grad = design.objective_grad_eig(w, EIG_K, seed=eig_seed)
            self.latency.append(time.perf_counter() - t_eval)
            report = inverse.map_estimate(design, w, y_obs)
            design.kl_estimate(w, y_obs, method="eig", k=EIG_K, theta_post=report.theta_post, seed=eig_seed)
            records.append((w, J, grad))
        analysis_s = time.perf_counter() - t0
        if self.records is None:
            self.records = records
        return {"design_s": None, "analysis_s": analysis_s, "solves": (solve_counter.snapshot() - before).total}

    def finish(self):
        ref = self.reference()
        self.record_accuracy(ref, self.records)
        for w, J, _ in self.records:
            check_eig_tail(self.run, ref.spectrum(w), EIG_K, abs(ref.evaluate(w)[0] - J))
        self.accuracy["design_logdet"] = None


WORKLOADS = {cls.name: cls for cls in (Desk, MeshRand, MeshFrozen, MeshEig)}

"""Package names the benchmark harness in perfbench/ looks up.

perfbench wraps these at run time or calls them directly, and it may not
change with the package; a renamed or removed name would otherwise show only
in its slow suite (python3 -m pytest perfbench).  These checks run in well
under a second.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_config
from oed_dopt import cli, oed, optimize
from oed_dopt.problem import build_problem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402

TINY = {
    "mesh": {"nx": 4},
    "pde": {"kappa": 0.05, "T": 1.0, "n_steps": 5},
    "sensors": {"grid": [2, 2], "margin": [0.25, 0.25]},
    "obs": {"times": [0.4, 1.0]},
    "sketch": {"k": 3, "p": 2},
}


def test_trace_patch_points_resolve():
    """Every traced attribute exists where the tracer reads it (``__dict__``)."""
    points = tracing.Tracer([]).patch_points()
    assert len(points) > 40
    assert all(callable(wrapper) for _, _, wrapper in points)


def test_benchmark_call_forms_bind():
    """The call forms perfbench/workloads.py uses still bind."""
    DP = oed.DesignProblem
    forms = [
        (oed.precompute_z, ("G", "noise", 3, None, None), {}),
        (cli._estimator, ("problem", "config"), {}),
        (DP.build_frozen, ("self", 45), {"seed": 0}),
        (DP.objective_grad_eig, ("self", "w", 10), {"seed": 0}),
        (DP.kl_estimate, ("self", "w", "y"), {"method": "eig", "k": 10, "theta_post": None, "seed": 0}),
        (DP.estimator, ("self", "rand"), {"cfg": None}),
        (DP.estimator, ("self", "frozen"), {"frozen": None}),
        (optimize.solve_l1, ("est", 0.5), {"w0": None}),
        (optimize.solve_continuation, ("est", 0.5), {}),
        # the tracer calls minimize_box(fun, w0, *args, on_accept=..., **kwargs) and
        # forwards on_accept(it, w, f, g, step)
        (optimize.minimize_box, ("fun", "w0"), {"on_accept": None}),
    ]
    for fn, args, kwargs in forms:
        inspect.signature(fn).bind(*args, **kwargs)
    assert optimize.DEFAULT_SCHEDULE


class CountingEstimator:
    """Forwards to an estimator and counts its evaluations."""

    def __init__(self, est):
        self.est, self.calls = est, 0
        self.name, self.n_s = est.name, est.n_s

    def evaluate(self, w):
        self.calls += 1
        return self.est.evaluate(w)


@pytest.mark.parametrize("solve", ["solve_l1", "solve_continuation"])
def test_traced_optimizer_counts_match_solves(solve):
    """Under perfbench's tracer, optimize.evals equals the estimator's evaluate calls and
    optimize.accepted equals the accepted iterates: the history less one start per stage."""
    design = build_problem(make_config(**TINY)).design
    est = CountingEstimator(design.estimator("dense"))
    tracer = tracing.Tracer([])
    with tracer.installed():
        result = getattr(optimize, solve)(est, 10.0)  # takes line-search trials on TINY
    stages = max(len(result.stages), 1)
    assert tracer.counts["optimize.evals"] == est.calls
    assert tracer.counts["optimize.accepted"] == len(result.history) - stages > 0


@pytest.mark.parametrize("first", ["ensure_z", "dense_reference"])
def test_z_step_goes_through_desk_z_log(tmp_path, first):
    """ensure_z calls oed.precompute_z in the five-argument form the desk workload's
    logging wrapper takes, also when the dense reference is the design's first reader."""
    desk = workloads.Desk(0, True, None, tmp_path)
    desk.z_log.append([])
    design = build_problem(make_config(**TINY)).design
    with desk.probes():
        getattr(design, first)()
        design.ensure_z()
    assert [existed for existed, _ in desk.z_log[-1]] == [False]


@pytest.mark.parametrize("method", ["eig", "rand", "frozen", "dense"])
def test_cli_estimator_evaluate_returns_J_and_grad(method):
    """perfbench's timed wrapper unpacks exactly (J, grad) from each evaluation."""
    config = make_config(**TINY, opt={"method": method})
    problem = build_problem(config)
    est = cli._estimator(problem, config)
    J, grad = est.evaluate(np.ones(problem.design.n_s))
    assert est.name == method
    assert np.isfinite(J) and grad.shape == (problem.design.n_s,)

"""Outside-in span tracing of the oed_dopt layers.

Spans are recorded only from the benchmark: the public functions and methods
of each module are wrapped at run time and restored afterwards.  A name
imported into another module (``from .sketch import exact_eigs``) is patched
where it is looked up, so every call site is seen exactly once.

Each span is ``[name, start, end, parent, count]``; ``count`` is a per-call
quantity such as the columns of a transport call or the CG iterations of a
MAP solve.  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its direct children.

The process is single-threaded with no queues, so no layer ever waits on
another: the per-layer table has busy times and counts, and no wait times.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

DEFICIENT = "sketch subspace is numerically rank deficient"


def _columns(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[1])


def _arg_columns(args, kwargs, out, token):
    return _columns(args[1])  # args[0] is self


def _cg_iterations(args, kwargs, out, token):
    return int(out.iterations)


class Tracer:
    """Span recorder for one traced session."""

    def __init__(self, caught_warnings: list):
        self.spans: list = []
        self.counts = defaultdict(int)
        self._stack: list = []
        self._caught = caught_warnings
        self.t0 = time.perf_counter()

    def wrap(self, name, fn, count=None, enter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            token = enter() if enter is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, out, token)
            return out

        traced.__wrapped__ = fn
        return traced

    def _deficient_since(self, args, kwargs, out, mark):
        return sum(DEFICIENT in str(w.message) for w in self._caught[mark:])

    def _minimize(self, fn):
        counts = self.counts

        def run(fun, w0, *args, on_accept=None, **kwargs):
            def counted(w):
                counts["optimize.evals"] += 1
                return fun(w)

            def accepted(it, *rest):
                if it > 0:
                    counts["optimize.accepted"] += 1
                if on_accept is not None:
                    on_accept(it, *rest)

            return fn(counted, w0, *args, on_accept=accepted, **kwargs)

        return run

    def patch_points(self):
        """(owner, attribute, wrapper) for every traced lookup site."""
        from oed_dopt import bench, cli, inverse, oed, optimize, problem
        from oed_dopt.config import ExperimentConfig
        from oed_dopt.prior import PriorOperator, WhitenedForwardMap
        from oed_dopt.transport import ForwardMap

        def w(owner, attr, name, count=None, enter=None, adapt=None):
            fn = owner.__dict__[attr]
            if adapt is not None:
                fn = adapt(fn)
            return owner, attr, self.wrap(name, fn, count, enter)

        subspace = dict(count=self._deficient_since, enter=lambda: len(self._caught))
        points = [
            # problem assembly and factorizations
            w(problem, "build_problem", "problem.build"),
            w(cli, "build_problem", "problem.build"),
            w(bench, "build_problem", "problem.build"),
            w(problem, "assemble", "fem.assemble"),
            w(ForwardMap, "__init__", "transport.factorize"),
            w(PriorOperator, "__init__", "prior.factorize"),
            # transport and prior solves
            w(ForwardMap, "apply", "transport.forward", _arg_columns),
            w(ForwardMap, "apply_transpose", "transport.adjoint", _arg_columns),
            w(ForwardMap, "solve_with_trajectory", "transport.forward", lambda *_: 1),
            w(PriorOperator, "solve_L", "prior.solve", _arg_columns),
            w(PriorOperator, "solve_Lt", "prior.solve", _arg_columns),
            w(WhitenedForwardMap, "apply", "prior.whiten"),
            w(WhitenedForwardMap, "apply_transpose", "prior.whiten"),
            w(WhitenedForwardMap, "field_from_whitened", "prior.whiten"),
            # sketch algebra, looked up by name in oed and bench
            w(oed, "subspace_iteration", "sketch.subspace", **subspace),
            w(oed, "low_rank_eig", "sketch.eigh"),
            w(oed, "sketched_logdet", "sketch.eigh"),
            w(oed, "exact_eigs", "sketch.exact_eigs"),
            w(bench, "exact_eigs", "sketch.exact_eigs"),
            # estimators, z constants, frozen build, dense reference, KL
            w(oed.DesignProblem, "objective_grad_eig", "oed.eval"),
            w(oed.DesignProblem, "objective_grad_rand", "oed.eval"),
            w(oed.DesignProblem, "objective_grad_frozen", "oed.eval"),
            w(oed.DesignProblem, "objective_eig", "oed.eval"),
            w(oed.DesignProblem, "objective_rand", "oed.eval"),
            w(oed, "precompute_z", "oed.z"),
            w(oed.DesignProblem, "build_frozen", "oed.frozen_build"),
            w(oed.DenseReference, "__init__", "oed.dense_ref"),
            w(oed.DenseReference, "evaluate", "oed.dense_ref"),
            w(oed.DesignProblem, "kl_estimate", "oed.kl"),
            # MAP point; oed.kl_estimate imports it from inverse at call time
            w(inverse, "map_estimate", "inverse.map", _cg_iterations),
            w(cli, "map_estimate", "inverse.map", _cg_iterations),
            # optimizer
            w(optimize, "solve_l1", "optimize.solve"),
            w(optimize, "solve_continuation", "optimize.solve"),
            w(cli, "solve_l1", "optimize.solve"),
            w(cli, "solve_continuation", "optimize.solve"),
            w(optimize, "minimize_box", "optimize.minimize", adapt=self._minimize),
            # command layer and its file I/O
            w(cli, "cmd_synthesize", "cli.synthesize"),
            w(cli, "cmd_oed", "cli.oed"),
            w(cli, "cmd_evaluate", "cli.evaluate"),
            w(cli, "cmd_compare_random", "cli.compare_random"),
            w(cli, "_load_config", "cli.io"),
            w(cli, "_read_weights", "cli.io"),
            w(cli, "write_csv", "cli.io"),
            w(cli, "write_json", "cli.io"),
            w(cli, "export_mesh_csv", "cli.io"),
            w(ExperimentConfig, "save_resolved", "cli.io"),
        ]
        return points

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, wrapper in self.patch_points():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def table(self, since: float = -np.inf) -> dict:
        """name -> {"calls", "total_s", "self_s", "count"} over the spans begun at ``since`` or later."""
        child_time = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        for i, (name, start, end, parent, count) in enumerate(self.spans):
            if start < since:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["count"] += count
        return dict(out)

    def _ancestors(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def descendant_counts(self, ancestor: str, descendant: str) -> dict:
        """Span index of each ``ancestor`` span -> number of ``descendant`` spans under it."""
        found = {i: 0 for i, rec in enumerate(self.spans) if rec[0] == ancestor}
        for i, rec in enumerate(self.spans):
            if rec[0] == descendant:
                for a in self._ancestors(i):
                    if a in found:
                        found[a] += 1
        return found

    def top_level_time(self, start: float, end: float) -> float:
        """Summed duration of root spans that began inside [start, end]."""
        return float(
            sum(e - s for _, s, e, parent, _ in self.spans if parent < 0 and start <= s <= end)
        )

    def dump(self) -> list:
        return [[n, s - self.t0, e - self.t0, p, c] for n, s, e, p, c in self.spans]


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(tracer: Tracer, timing: dict, lu_nnz: dict, overhead_frac: float) -> dict:
    """The per-layer metric values of one traced session.

    ``timing`` holds the traced session's phase times (setup_s, design_s,
    analysis_s, setup_start, setup_end); ``lu_nnz`` the factor fill of the
    transport and prior operators.  ``trace.solve_share`` counts only the
    solves after set-up, against ``design_s + analysis_s``.
    """
    t = tracer.table()

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    fwd_calls, fwd_cols = get("transport.forward", "calls"), get("transport.forward", "count")
    adj_calls, adj_cols = get("transport.adjoint", "calls"), get("transport.adjoint", "count")
    fwd_self, adj_self = get("transport.forward", "self_s"), get("transport.adjoint", "self_s")
    z_spans = tracer.descendant_counts("oed.z", "transport.adjoint")
    eig_applies = tracer.descendant_counts("sketch.exact_eigs", "transport.forward")
    evals, accepted = tracer.counts["optimize.evals"], tracer.counts["optimize.accepted"]
    after_setup = (timing["design_s"] or 0.0) + (timing["analysis_s"] or 0.0)
    late = tracer.table(since=timing["setup_end"])
    solve_self = sum(late.get(name, {}).get("self_s", 0.0)
                     for name in ("transport.forward", "transport.adjoint", "prior.solve"))
    m = {
        "problem.build_s": get("problem.build", "total_s"),
        "fem.assemble_s": get("fem.assemble", "total_s"),
        "transport.factorize_s": get("transport.factorize", "total_s"),
        "prior.factorize_s": get("prior.factorize", "total_s"),
        "transport.lu_nnz": lu_nnz["transport"],
        "prior.lu_nnz": lu_nnz["prior"],
        "transport.forward_calls": fwd_calls,
        "transport.forward_cols": fwd_cols,
        "transport.forward_self_s": fwd_self,
        "transport.forward_s_per_col": _ratio(fwd_self, fwd_cols),
        "transport.adjoint_calls": adj_calls,
        "transport.adjoint_cols": adj_cols,
        "transport.adjoint_self_s": adj_self,
        "transport.adjoint_s_per_col": _ratio(adj_self, adj_cols),
        "transport.cols_per_call": _ratio(fwd_cols + adj_cols, fwd_calls + adj_calls),
        "prior.solve_cols": get("prior.solve", "count"),
        "prior.solve_self_s": get("prior.solve", "self_s"),
        "prior.whiten_self_s": get("prior.whiten", "self_s"),
        "sketch.subspace_calls": get("sketch.subspace", "calls"),
        "sketch.subspace_self_s": get("sketch.subspace", "self_s"),
        "sketch.eigh_self_s": get("sketch.eigh", "self_s"),
        "sketch.deficient_frac": _ratio(get("sketch.subspace", "count"), get("sketch.subspace", "calls")),
        "sketch.exact_eigs_calls": get("sketch.exact_eigs", "calls"),
        "sketch.exact_eigs_applies": _ratio(sum(eig_applies.values()), len(eig_applies)),
        "sketch.exact_eigs_self_s": get("sketch.exact_eigs", "self_s"),
        "oed.eval_calls": get("oed.eval", "calls"),
        "oed.eval_self_s": get("oed.eval", "self_s"),
        "oed.z_s": get("oed.z", "total_s"),
        "oed.z_hit_frac": _ratio(sum(n == 0 for n in z_spans.values()), len(z_spans)),
        "oed.frozen_build_s": get("oed.frozen_build", "total_s"),
        "oed.frozen_build_self_s": get("oed.frozen_build", "self_s"),
        "oed.dense_ref_s": get("oed.dense_ref", "total_s"),
        "oed.kl_self_s": get("oed.kl", "self_s"),
        "inverse.map_calls": get("inverse.map", "calls"),
        "inverse.cg_iters": get("inverse.map", "count"),
        "inverse.map_self_s": get("inverse.map", "self_s"),
        "optimize.evals": evals,
        "optimize.accepted": accepted,
        "optimize.accept_frac": _ratio(accepted, evals),
        "optimize.self_s": get("optimize.solve", "self_s") + get("optimize.minimize", "self_s"),
        "cli.synthesize_s": get("cli.synthesize", "total_s"),
        "cli.oed_s": get("cli.oed", "total_s"),
        "cli.evaluate_s": get("cli.evaluate", "total_s"),
        "cli.compare_random_s": get("cli.compare_random", "total_s"),
        "cli.io_self_s": get("cli.io", "self_s"),
        "trace.overhead_frac": overhead_frac,
        "trace.solve_share": _ratio(solve_self, after_setup),
        "trace.setup_coverage": _ratio(
            tracer.top_level_time(timing["setup_start"], timing["setup_end"]), timing["setup_s"]
        ),
    }
    return {k: float(v) for k, v in m.items()}

"""Configuration handling and the command-line drivers."""

import csv
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oed_dopt import cli, oed
from oed_dopt.accounting import count_solves, solve_counter
from oed_dopt.cli import _sketch_config, main
from oed_dopt.config import ExperimentConfig
from oed_dopt.errors import ConfigError
from oed_dopt.optimize import random_binary_designs
from oed_dopt.problem import build_problem

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))
from desk_pipeline import DESK_CONFIG  # noqa: E402  (scripts/ is not a package)

SMALL = {
    "mesh": {"nx": 6},
    "pde": {"kappa": 0.03, "T": 2.0, "n_steps": 20},
    "sensors": {"grid": [3, 3], "margin": [0.25, 0.25]},
    "obs": {"times": [0.5, 1.0, 2.0]},
    "noise": {"pct": 0.3},
    "sketch": {"k": 12, "p": 5},
    "opt": {"method": "rand", "penalty": "l1", "gamma": 0.5},
}


def write_config(tmp_path, payload=None, name="cfg.json"):
    path = tmp_path / name
    with open(path, "w") as f:
        json.dump(payload if payload is not None else SMALL, f)
    return str(path)


# -- configuration ------------------------------------------------------------


def test_defaults_resolved(tmp_path):
    path = tmp_path / "resolved_config.json"
    ExperimentConfig().save_resolved(path)
    resolved = json.loads(path.read_text())
    assert resolved["prior"]["alpha"] == 2e-3
    assert resolved["prior"]["beta"] == 0.1
    assert resolved["pde"]["kappa"] == 0.001
    assert resolved["pde"]["T"] == 5.0
    assert resolved["noise"]["pct"] == 0.02
    assert resolved["sketch"]["p"] == 5
    assert resolved["sketch"]["q"] == 1
    assert resolved["opt"]["threshold"] == 0.03
    assert resolved["obs"]["times"] == [1.0, 2.0, 3.5]
    assert len(resolved["content_hash"]) == 64


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="sections"):
        ExperimentConfig.from_dict({"grid": {}})
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict({"mesh": {"nx": 4, "ny": 4}})


def test_content_hash_is_stable_and_sensitive():
    a = ExperimentConfig.from_dict(SMALL)
    b = ExperimentConfig.from_dict(json.loads(json.dumps(SMALL)))
    assert a.content_hash() == b.content_hash()
    c = ExperimentConfig.from_dict({**SMALL, "noise": {"pct": 0.31}})
    assert c.content_hash() != a.content_hash()


def test_seed_override_changes_derived_seeds():
    cfg = ExperimentConfig.from_dict(SMALL)
    s1 = cfg.derived_seeds()
    s2 = cfg.with_master_seed(99).derived_seeds()
    assert s1 != s2
    assert cfg.with_master_seed(99).derived_seeds() == s2


def test_sketch_seed_override():
    cfg = ExperimentConfig.from_dict({**SMALL, "sketch": {"k": 12, "seed": 7}})
    assert cfg.derived_seeds()["sketch"] == 7


def test_sensor_grid_and_coords():
    cfg = ExperimentConfig.from_dict(SMALL)
    coords = cfg.sensor_coordinates()
    assert coords.shape == (9, 2)
    cfg2 = ExperimentConfig.from_dict({**SMALL, "sensors": {"coords": [[0.5, 0.5], [0.25, 0.75]]}})
    assert cfg2.sensor_coordinates().shape == (2, 2)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**SMALL, "sensors": {"grid": [0, 3]}}).sensor_coordinates()
    with pytest.raises(ConfigError, match="integers"):
        ExperimentConfig.from_dict({**SMALL, "sensors": {"grid": [2.5, 3]}}).sensor_coordinates()
    assert ExperimentConfig.from_dict({**SMALL, "sensors": {"grid": [3.0, 2]}}).sensor_coordinates().shape == (6, 2)


def test_design_noise_scale_override():
    from oed_dopt.problem import build_problem

    cfg = ExperimentConfig.from_dict({**SMALL, "noise": {"pct": 0.3, "sigma_rel": 4.0}})
    p = build_problem(cfg)
    peak = float(np.max(np.abs(p.forward.apply(p.theta_true))))
    assert np.allclose(p.sigma, 4.0 * peak)
    y_obs, sigma_data = p.synthesize()
    assert np.allclose(sigma_data, 0.3 * peak)  # synthesis noise still uses pct


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)


# -- CLI drivers ---------------------------------------------------------------


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def drop_column(path, column):
    with open(path) as f:
        rows = list(csv.reader(f))
    idx = rows[0].index(column)
    return [tuple(v for i, v in enumerate(row) if i != idx) for row in rows]


def write_weights(out, weight):
    """A weights.csv for the 9-sensor SMALL config with every sensor at ``weight``."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "weights.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sensor_id", "x", "y", "weight", "active"])
        for j in range(9):
            w.writerow([j, 0.0, 0.0, weight, int(weight > 0)])
    return path


#: SHA-256 of the tables ``synthesize`` writes for SMALL.
SYNTHESIZE_SHA256 = {
    "mesh_nodes.csv": "c5b1c7299db1d5a3515c26a83a8bd685aff02fdb74317d3be2222d3a59b34d60",
    "mesh_triangles.csv": "c2337b95d22f66d8701456393a245b83b67867e73271593598e30fa02b51cc8d",
    "theta_true.csv": "0c6233137933b5315f2ec1b88690b4ec558d44203b8b197c297200d756a5f0fd",
}


def test_cli_pipeline_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")

    assert main(["synthesize", "--config", cfg_path, "--out", out1]) == 0
    assert main(["synthesize", "--config", cfg_path, "--out", out2]) == 0
    for name in ("y_obs.csv", "sigma.csv", "theta_true.csv", "resolved_config.json"):
        assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(out2, name))
    with open(os.path.join(out1, "mesh_nodes.csv")) as f:
        assert len(list(csv.DictReader(f))) == 49  # (6+1)^2 nodes
    with open(os.path.join(out1, "mesh_triangles.csv")) as f:
        assert len(list(csv.DictReader(f))) == 72  # 2 * 6^2 triangles
    # the mesh and field tables, byte for byte
    for name, digest in SYNTHESIZE_SHA256.items():
        assert hashlib.sha256(read_bytes(os.path.join(out1, name))).hexdigest() == digest, name

    assert main(["oed", "--config", cfg_path, "--out", out1]) == 0
    assert main(["oed", "--config", cfg_path, "--out", out2]) == 0
    assert read_bytes(os.path.join(out1, "weights.csv")) == read_bytes(os.path.join(out2, "weights.csv"))
    assert read_bytes(os.path.join(out1, "z_cache.bin")) == read_bytes(os.path.join(out2, "z_cache.bin"))
    assert read_bytes(os.path.join(out1, "result.json")) == read_bytes(os.path.join(out2, "result.json"))
    with open(os.path.join(out1, "result.json")) as f:
        assert json.load(f) == {"converged": True, "reached_binary": True}
    # iteration logs are identical apart from wall-clock timing
    assert drop_column(os.path.join(out1, "iterations.csv"), "wall_time") == drop_column(
        os.path.join(out2, "iterations.csv"), "wall_time"
    )
    with open(os.path.join(out1, "iterations.csv")) as f:
        n_evals = [int(r["n_evals"]) for r in csv.DictReader(f)]
    assert n_evals[0] == 1 and all(b > a for a, b in zip(n_evals, n_evals[1:]))

    weights = os.path.join(out1, "weights.csv")
    assert main(["evaluate", "--config", cfg_path, "--weights", weights, "--out", out1]) == 0
    with open(os.path.join(out1, "metrics.json")) as f:
        metrics = json.load(f)
    assert metrics["info_gain"] == pytest.approx(0.5 * metrics["J"], rel=1e-12)
    assert "errors_vs_dense" in metrics

    assert main(
        ["compare-random", "--config", cfg_path, "--weights", weights, "--n-designs", "12", "--out", out1]
    ) == 0
    with open(os.path.join(out1, "cloud.csv")) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 13
    assert rows[0]["design_id"] == "0"


def test_cli_oed_records_an_unconverged_solve(tmp_path):
    """On the 4-sensor TINY rand config (sketch k 3, p 2) the truncated sketch's gradient
    at w0 is no descent direction, so the first line search fails: oed still exits 0 and
    writes weights.csv, and result.json says the solve did not converge."""
    payload = {
        "mesh": {"nx": 4},
        "pde": {"kappa": 0.05, "T": 1.0, "n_steps": 5},
        "sensors": {"grid": [2, 2], "margin": [0.25, 0.25]},
        "obs": {"times": [0.4, 1.0]},
        "noise": {"pct": 0.1},
        "sketch": {"k": 3, "p": 2},
        "opt": {"method": "rand", "penalty": "l1"},
    }
    out = str(tmp_path / "tiny")
    assert main(["oed", "--config", write_config(tmp_path, payload, name="tiny.json"), "--out", out]) == 0
    with open(os.path.join(out, "result.json")) as f:
        assert json.load(f) == {"converged": False, "reached_binary": True}
    with open(os.path.join(out, "weights.csv")) as f:
        assert [float(r["weight"]) for r in csv.DictReader(f)] == [0.5] * 4  # w0, never moved


def test_cli_seed_override_changes_noise(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["synthesize", "--config", cfg_path, "--out", out1, "--seed", "1"]) == 0
    assert main(["synthesize", "--config", cfg_path, "--out", out2, "--seed", "2"]) == 0
    assert read_bytes(os.path.join(out1, "y_obs.csv")) != read_bytes(os.path.join(out2, "y_obs.csv"))


def test_cli_validation_exit_codes(tmp_path):
    bad = write_config(tmp_path, {"mesh": {"nx": 1}}, name="bad.json")
    assert main(["synthesize", "--config", bad, "--out", str(tmp_path / "x")]) == 2

    unknown = write_config(tmp_path, {"nonsense": {}}, name="unk.json")
    assert main(["synthesize", "--config", unknown, "--out", str(tmp_path / "x")]) == 2

    empty_grid = write_config(tmp_path, {**SMALL, "sensors": {"grid": [0, 0]}}, name="empty.json")
    assert main(["oed", "--config", empty_grid, "--out", str(tmp_path / "x")]) == 2

    missing = str(tmp_path / "does_not_exist.json")
    assert main(["synthesize", "--config", missing, "--out", str(tmp_path / "x")]) == 2

    cfg_path = write_config(tmp_path)
    assert main(["synthesize", "--config", cfg_path, "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
    assert solve_counter.snapshot().total == 0  # main() resets the tally on entry
    assert (
        main(
            [
                "evaluate",
                "--config",
                cfg_path,
                "--weights",
                str(tmp_path / "missing.csv"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        == 2
    )


def test_cli_continuation_writes_stage_log(tmp_path):
    payload = {**SMALL, "opt": {"method": "dense", "penalty": "cont", "gamma": 0.9, "cont_stages": 3}}
    cfg_path = write_config(tmp_path, payload, name="cont.json")
    out = str(tmp_path / "cont")
    assert main(["oed", "--config", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "stages.csv")) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    dists = [float(r["max_distance_to_binary"]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))


def test_cli_bench_outputs(tmp_path):
    payload = {**SMALL, "sketch": {"k": 8, "p": 5}}
    cfg_path = write_config(tmp_path, payload, name="bench.json")
    out = str(tmp_path / "bench")
    assert main(["bench", "--config", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "rank_sweep.csv")) as f:
        rows = list(csv.DictReader(f))
    ks = sorted({int(r["k"]) for r in rows})
    assert ks[-1] == 27  # full rank for this instance
    full_rank_rows = [r for r in rows if int(r["k"]) == 27]
    assert all(float(r["err_kl"]) <= 1e-8 for r in full_rank_rows)
    with open(os.path.join(out, "mesh_sweep.csv")) as f:
        mesh_rows = list(csv.DictReader(f))
    assert [int(r["nx"]) for r in mesh_rows] == [6, 12, 24]
    errs = [float(r["mean_rel_err_J"]) for r in mesh_rows]
    # structural sanity here; the quantitative <2x stability claim is checked
    # on a resolved-mesh instance in the acceptance suite
    assert all(np.isfinite(e) and e >= 0 for e in errs)
    assert errs[-1] <= 10 * errs[0]


def test_cli_evaluate_zero_design(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "zero")
    weights = write_weights(out, 0.0)
    assert main(["evaluate", "--config", cfg_path, "--weights", weights, "--out", out]) == 0
    with open(os.path.join(out, "metrics.json")) as f:
        metrics = json.load(f)
    assert metrics["J"] == 0.0
    assert metrics["info_gain"] == 0.0
    assert metrics["D_KL"] == pytest.approx(0.0, abs=1e-12)


def test_cli_truncated_z_cache_is_recomputed(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "z")
    cache = os.path.join(out, "z_cache.bin")
    assert main(["oed", "--config", cfg_path, "--out", out]) == 0
    with open(cache, "r+b") as f:
        f.truncate(50)  # cut inside C

    # main() resets the global tally on entry, so count around the z step itself
    z_steps = []
    precompute_z = oed.precompute_z

    def counted_z(*args, **kwargs):
        with count_solves() as c:
            constants = precompute_z(*args, **kwargs)
        z_steps.append((c.delta.forward, c.delta.adjoint))
        return constants

    monkeypatch.setattr(oed, "precompute_z", counted_z)
    with pytest.warns(UserWarning, match="malformed"):
        assert main(["oed", "--config", cfg_path, "--out", out]) == 0
    assert main(["oed", "--config", cfg_path, "--out", out]) == 0
    n_y = 9 * 3
    assert z_steps == [(0, n_y), (0, 0)]  # the warned miss, then a hit


#: The z cache key's sections, in the order that keys every existing z_cache.bin.
Z_SECTIONS = ("mesh", "mass", "pde", "velocity", "prior", "sensors", "obs", "noise", "theta_true")
#: One valid change to each configuration section.
SECTION_CHANGES = {
    "mesh": {"nx": 11},
    "mass": {"mode": "cholesky"},
    "pde": {"kappa": 0.06},
    "velocity": {"amplitude": 0.5},
    "prior": {"alpha": 3e-3},
    "sensors": {"margin": [0.25, 0.3]},
    "obs": {"times": [0.5, 1.0, 1.5]},
    "noise": {"sigma_rel": 3.0},
    "theta_true": {"bumps": [{"center": [0.5, 0.5], "width": 0.1, "amplitude": 1.0}]},
    "sketch": {"k": 30},
    "opt": {"gamma": 0.7},
    "seeds": {"master": 5},
}


def test_z_cache_key_is_the_nine_section_digest(tmp_path):
    """On the desk config the key is the digest of the nine-section list, so a z_cache.bin written
    under that list's key is a hit at 0 solves.  A change to any one of the nine sections changes
    the key; a change to sketch, opt or seeds does not."""
    assert set(SECTION_CHANGES) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg = ExperimentConfig.from_dict(DESK_CONFIG)
    problem = build_problem(cfg)
    sections = (
        json.dumps(dataclasses.asdict(getattr(cfg, name)), sort_keys=True, separators=(",", ":")) for name in Z_SECTIONS
    )
    listed = hashlib.sha256("|".join(sections).encode()).digest()
    assert problem.z_config_hash() == listed
    # the desk config's key, pinned so z_cache.bin files written under it keep hitting
    assert listed.hex() == "d7e609e74bea16b302bd472fa33fb97701da3958580535f7215c990b7e0931b4"

    cache = tmp_path / "z_cache.bin"
    written = oed.precompute_z(problem.G, problem.design.noise, problem.obs.n_t, cache, listed)
    design = oed.DesignProblem(problem.G, problem.design.noise)
    with count_solves() as c:
        read = design.ensure_z(cache, problem.z_config_hash())
    assert c.delta.total == 0
    assert np.array_equal(read, written)

    for name, change in SECTION_CHANGES.items():
        data = json.loads(json.dumps(DESK_CONFIG))
        data.setdefault(name, {}).update(change)
        variant = dataclasses.replace(problem, config=ExperimentConfig.from_dict(data))
        assert (variant.z_config_hash() != listed) == (name in Z_SECTIONS), name


@pytest.mark.parametrize("method", ["frozen", "rand", "eig", "dense"])
def test_cli_evaluate_labels_kl_method(tmp_path, method):
    cfg_path = write_config(tmp_path, {**SMALL, "opt": {**SMALL["opt"], "method": method}})
    out = str(tmp_path / method)
    weights = write_weights(out, 1.0)
    assert main(["evaluate", "--config", cfg_path, "--weights", weights, "--out", out]) == 0
    with open(os.path.join(out, "metrics.json")) as f:
        metrics = json.load(f)
    assert metrics["method"] == method
    # KL has no frozen form; the frozen method reports the randomized sketch's KL
    assert metrics["kl_method"] == ("rand" if method == "frozen" else method)


def test_cli_unknown_method_exits_2(tmp_path):
    """oed and evaluate refuse an unknown opt.method alike, and write no metrics."""
    cfg_path = write_config(tmp_path, {**SMALL, "opt": {**SMALL["opt"], "method": "bogus"}})
    out = str(tmp_path / "bogus")
    weights = write_weights(out, 1.0)
    assert main(["oed", "--config", cfg_path, "--out", out]) == 2
    assert main(["evaluate", "--config", cfg_path, "--weights", weights, "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "metrics.json"))


def test_cli_evaluate_rand_sketches_once(tmp_path, monkeypatch):
    """J, D_KL and rand_rel_err of a randomized evaluate come from one sketch."""
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "once")
    weights = write_weights(out, 1.0)
    sketches = []
    subspace_iteration = oed.subspace_iteration

    def counted(op, cfg):
        sketches.append(cfg)
        return subspace_iteration(op, cfg)

    monkeypatch.setattr(oed, "subspace_iteration", counted)
    assert main(["evaluate", "--config", cfg_path, "--weights", weights, "--out", out]) == 0
    with open(os.path.join(out, "metrics.json")) as f:
        metrics = json.load(f)
    assert metrics["method"] == metrics["kl_method"] == "rand"
    assert "rand_rel_err" in metrics["errors_vs_dense"]
    assert len(sketches) == 1


def test_cli_evaluate_frozen_runs_one_eigh_of_C(tmp_path, monkeypatch):
    """With opt.method = "frozen", the estimator's factor and frozen_rel_err's, both at
    k_f = k + p = 17, come from one eigh of C: build_frozen keeps the last k_f's factor."""
    cfg_path = write_config(tmp_path, {**SMALL, "opt": {**SMALL["opt"], "method": "frozen"}})
    out = str(tmp_path / "frozen")
    weights = write_weights(out, 1.0)
    problems, eigh_args = [], []
    build_problem, eigh = cli.build_problem, np.linalg.eigh

    def built(config):
        problems.append(build_problem(config))
        return problems[-1]

    def counted(a, *args, **kwargs):
        eigh_args.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(cli, "build_problem", built)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main(["evaluate", "--config", cfg_path, "--weights", weights, "--out", out]) == 0
    with open(os.path.join(out, "metrics.json")) as f:
        assert "frozen_rel_err" in json.load(f)["errors_vs_dense"]
    (problem,) = problems
    assert sum(a is problem.design.C for a in eigh_args) == 1


@pytest.mark.parametrize("method", ["eig", "rand"])
def test_cli_evaluate_map_reads_the_eig_block(tmp_path, monkeypatch, method):
    """evaluate reads the MAP point after every eigensolve, so it comes from the held
    factor's SVD of an Eig-k run: 0 iterations and fewer solves than with no run held.
    The rand path runs Eig-k too, for the errors-vs-dense block's eig_rel_err."""
    cfg_path = write_config(tmp_path, {**SMALL, "opt": {**SMALL["opt"], "method": method, "eig_k": 27}})

    def run(name):
        out = str(tmp_path / name)
        assert main(["evaluate", "--config", cfg_path, "--weights", write_weights(out, 1.0), "--out", out]) == 0
        with open(os.path.join(out, "metrics.json")) as f:
            return solve_counter.snapshot().total, json.load(f)["map_cg_iterations"]

    solves, iterations = run("held")
    map_estimate = cli.map_estimate

    def cold_map(design, *args, **kwargs):
        design._op = None  # clear the held operator, and with it the Eig-k factor
        return map_estimate(design, *args, **kwargs)

    monkeypatch.setattr(cli, "map_estimate", cold_map)
    cold_solves, cold_iterations = run("cold")
    assert cold_iterations > 0
    assert iterations == 0 and solves < cold_solves


def test_cli_evaluate_all_sensor_eig_reads_one_factor(tmp_path):
    """The desk pipeline's config at seed 1 with Eig-k (k = 10) on all 35 sensors spends
    exactly 1 forward + 210 adjoint solves: 1 forward for the data, 105 adjoint for the
    z step and 105 adjoint for the factor's sensor sweep, which J, the spectrum, the
    k = 40 eig_rel_err and rand_rel_err's sketch (l = 45, q = 1) all read; that sketch
    cost 90 + 90 when it swept.  The MAP point comes from the held factor at 0 CG
    iterations."""
    payload = json.loads(json.dumps(DESK_CONFIG))
    payload["opt"].update(method="eig", eig_k=10)
    out = str(tmp_path / "desk")
    os.makedirs(out)
    weights = os.path.join(out, "weights.csv")
    with open(weights, "w", newline="") as f:
        csv.writer(f).writerows([["sensor_id", "x", "y", "weight", "active"]] + [[j, 0.0, 0.0, 1.0, 1] for j in range(35)])
    argv = ["evaluate", "--config", write_config(tmp_path, payload), "--weights", weights, "--out", out, "--seed", "1"]
    assert main(argv) == 0
    spent = solve_counter.snapshot()
    assert (spent.forward, spent.adjoint) == (1, 210)
    with open(os.path.join(out, "metrics.json")) as f:
        metrics = json.load(f)
    assert metrics["map_cg_iterations"] == 0
    assert metrics["J"] == pytest.approx(45.4742525828068, rel=1e-12)


@pytest.mark.parametrize("method", ["eig", "rand", "frozen", "dense"])
def test_cli_noise_scale_without_finite_inverse_square_exits_2(tmp_path, method):
    """sigma_rel = 1e-170 underflows sigma^2 to 0, so W = w / sigma^2 would be inf: oed
    exits 2 for every method, where frozen ended in a cho_factor traceback, dense wrote
    J = nan with exit 0, and eig and rand exited 1."""
    payload = {**SMALL, "noise": {"pct": 0.3, "sigma_rel": 1e-170}, "opt": {**SMALL["opt"], "method": method}}
    assert main(["oed", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("method", ["eig", "rand", "frozen", "dense"])
def test_cli_huge_noise_scale_weighs_every_sensor_zero_without_overflow(tmp_path, method):
    """sigma_rel = 1e200 overflows sigma^2 to inf, and w / inf = 0 exactly: oed exits 0 for
    every method with J = 0 on every iterate, and raises no RuntimeWarning on the way."""
    payload = {**SMALL, "noise": {"pct": 0.3, "sigma_rel": 1e200}, "opt": {**SMALL["opt"], "method": method}}
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["oed", "--config", write_config(tmp_path, payload), "--out", out]) == 0
    with open(os.path.join(out, "iterations.csv")) as f:
        assert {float(row["J"]) for row in csv.DictReader(f)} == {0.0}


def test_cli_eig_k_above_rank_bound_exits_2(tmp_path):
    """oed and evaluate refuse an Eig-k rank above min(n_y, n) = 27 alike."""
    payload = {**SMALL, "opt": {**SMALL["opt"], "method": "eig", "eig_k": 28}}
    cfg_path = write_config(tmp_path, payload)
    out = str(tmp_path / "eig")
    weights = write_weights(out, 1.0)
    assert main(["oed", "--config", cfg_path, "--out", out]) == 2
    assert main(["evaluate", "--config", cfg_path, "--weights", weights, "--out", out]) == 2


@pytest.mark.parametrize(
    "header, rows",
    [
        (["sensor_id", "x", "y", "weight", "active"], [["0", "0", "0", "1.0", "1.0"]]),
        (["sensor_id", "x", "y", "active"], [["0", "0", "0", "1"]]),
        (["sensor_id", "x", "y", "weight", "active"], [["x", "0", "0", "1.0", "1"]]),
        (["sensor_id", "x", "y", "weight", "active"], [["0", "0", "0", "1.0", "2"]]),
        (["sensor_id", "x", "y", "weight", "active"], [["0", "0", "0", "nan", "1"]]),
        (["sensor_id", "x", "y", "weight", "active"], [[str(j), "0", "0", "1.0", "1"] for j in (0, *range(9))]),
        (["sensor_id", "x", "y", "weight", "active"], [[str(j), "0", "0", "1.0", "1"] for j in range(8)]),
    ],
    ids=["active-float", "no-weight-column", "sensor-id-text", "active-2", "weight-nan", "duplicate-id", "missing-id"],
)
def test_cli_malformed_weights_exit_2(tmp_path, header, rows):
    """A malformed weights.csv is a configuration error for both readers, never a traceback;
    it must list each of the 9 sensor ids exactly once."""
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "bad")
    weights = write_weights(out, 1.0)
    with open(weights, "w") as f:
        f.write("".join(",".join(row) + "\n" for row in [header, *rows]))
    for command in ("evaluate", "compare-random"):
        assert main([command, "--config", cfg_path, "--weights", weights, "--out", out]) == 2, command


@pytest.mark.parametrize("command", ["evaluate", "compare-random", "oed"])
def test_cli_bad_input_refused_before_z_step(tmp_path, command):
    """An active flag of 1.0 in weights.csv, or opt.penalty = "l2", exits 2 at 0 solves
    and leaves no z cache in a fresh output directory."""
    if command == "oed":
        argv = ["oed", "--config", write_config(tmp_path, {**SMALL, "opt": {**SMALL["opt"], "penalty": "l2"}})]
    else:
        weights = tmp_path / "weights.csv"
        weights.write_text("sensor_id,x,y,weight,active\n0,0,0,1.0,1.0\n")
        argv = [command, "--config", write_config(tmp_path), "--weights", str(weights)]
    out = str(tmp_path / "fresh")
    assert main(argv + ["--out", out]) == 2
    assert solve_counter.snapshot().total == 0  # main() resets the tally on entry
    assert not os.path.exists(os.path.join(out, "z_cache.bin"))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
def test_cli_evaluate_bad_tol_exits_2_before_any_solve(tmp_path, tol):
    """evaluate refuses an opt.tol that is not a finite number > 0 at 0 solves; a NaN
    tol used to run the MAP CG into a ZeroDivisionError traceback."""
    cfg_path = write_config(tmp_path, {**SMALL, "opt": {**SMALL["opt"], "tol": tol}})
    out = str(tmp_path / "fresh")
    assert main(["evaluate", "--config", cfg_path, "--weights", write_weights(out, 1.0), "--out", out]) == 2
    assert solve_counter.snapshot().total == 0  # main() resets the tally on entry
    assert not os.path.exists(os.path.join(out, "z_cache.bin"))


@pytest.mark.parametrize(
    "override",
    [
        {"opt": {"gamma": -1.0}},
        {"opt": {"gamma": float("nan")}},
        {"opt": {"gamma": "abc"}},
        {"opt": {"penalty": "cont", "cont_stages": 0}},
        {"opt": {"tol": -1.0}},
        {"opt": {"tol": float("nan")}},
        {"opt": {"max_iters": 0}},
        {"opt": {"max_iters": -3}},
        {"opt": {"max_iters": 2.5}},
        {"opt": {"threshold": 2.0}},
        {"opt": {"threshold": float("nan")}},
        {"mesh": {"nx": "abc"}},
        {"mesh": {"nx": 3.5}},
        {"mesh": {"nx": 6, "holes": [[0.25, 0.25, "x", 0.75]]}},
        {"mesh": {"nx": 6, "holes": [[0.25, 0.25, 0.75]]}},
        {"pde": {"kappa": "x"}},
        {"sketch": {"k": "a"}},
        {"sketch": {"k": 2.5}},
        {"noise": {"pct": "x"}},
        {"noise": {"sigma_rel": -1.0}},
        {"obs": {"times": "abc"}},
        {"obs": {"times": [0.5, "1.0"]}},
        {"obs": {"times": [[0.5], [1.0]]}},
        {"sensors": {"grid": ["3", 3]}},
        {"sensors": {"grid": [3, 3], "margin": [0.25, None]}},
        {"sensors": {"coords": [[0.5, "a"]]}},
        {"sensors": {"coords": [[0.5, 0.5], [0.25]]}},
        {"sensors": {"grid": [2.5, 3]}},
        {"theta_true": {"bumps": [{"center": [0.5, 0.5], "width": "0.1", "amplitude": 1.0}]}},
        {"theta_true": {"bumps": [{"width": 0.1, "amplitude": 1.0}]}},
        {"theta_true": {"bumps": [{"center": [0.5], "width": 0.1, "amplitude": 1.0}]}},
        {"theta_true": {"bumps": [{"center": [0.5, 0.5], "width": 0.0, "amplitude": 1.0}]}},
        {"theta_true": {"bumps": [{"center": [0.5, 0.5], "width": 0.1}]}},
        {"theta_true": {"bumps": [0.3]}},
        {"theta_true": {"bumps": [{"center": [0.5, 0.5], "width": 0.1, "amplitude": 1.0, "widht": 0.2}]}},
        {"seeds": {"master": -5}},
        {"sketch": {"seed": -3}},
        {"obs": {"times": []}},
        {"pde": {"kappa": float("nan")}},
        {"velocity": {"amplitude": float("inf")}},
        {"prior": {"alpha": float("nan")}},
        {"noise": {"sigma_rel": float("inf")}},
        {"opt": {"eig_k": 0}},
        {"opt": {"eig_k": -3}},
        {"opt": {"frozen_k": 0}},
        {"opt": {"frozen_k": -3}},
        {"mesh": {"nx": 25}, "mass": {"mode": "cholesky"}},
        {"sensors": {"coords": [[0.5, 0.5], [1.5, 0.5]]}},
        {"sensors": {"coords": [[0.25, -0.01], [0.75, 0.75]]}},
        {
            "mesh": {"nx": 10, "holes": [[0.3, 0.3, 0.7, 0.7]]},
            "sensors": {"coords": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]},
        },
        {
            "mesh": {"nx": 10, "holes": [[0.3, 0.3, 0.5, 0.7], [0.5, 0.3, 0.7, 0.7]]},
            "sensors": {"coords": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]},
        },
        {"sketch": {"k": 0}},
        {"sketch": {"p": -1}},
        {"sketch": {"q": 0}},
        {"opt": {"method": "bogus"}},
        {"opt": {"penalty": "l1", "cont_stages": 0}},
        {"noise": {"pct": 1.5}},
        {"noise": {"pct": -0.5, "sigma_rel": 0.1}},
        {"mesh": {"nx": 10**9}},
        {"sensors": {"grid": [1e8, 1e8]}},
    ],
    ids=lambda o: json.dumps(o),
)
def test_cli_bad_config_value_refused_before_any_solve(tmp_path, override, capsys):
    """A wrong-typed or out-of-range config value makes oed, evaluate and compare-random exit 2
    at 0 solves, without a traceback, and leaves no z cache in a fresh output directory; the
    refusal is the config's, not the (valid) weights file's."""
    payload = json.loads(json.dumps(SMALL))
    for section, values in override.items():
        payload.setdefault(section, {}).update(values)
    cfg_path = write_config(tmp_path, payload)
    weights = write_weights(str(tmp_path / "weights"), 1.0)
    for command in ("oed", "evaluate", "compare-random"):
        out = str(tmp_path / command)
        argv = [command, "--config", cfg_path, "--out", out] + (["--weights", weights] if command != "oed" else [])
        assert main(argv) == 2, command
        assert solve_counter.snapshot().total == 0, command  # main() resets the tally on entry
        assert not os.path.exists(os.path.join(out, "z_cache.bin")), command
    assert "weights file" not in capsys.readouterr().err


@pytest.mark.parametrize("override", [{"mesh": {"nx": 10**9}}, {"sensors": {"grid": [1e8, 1e8]}}])
def test_cli_oversized_mesh_or_grid_exits_2_in_one_line(tmp_path, override, capsys):
    """A mesh whose step matrix SuperLU cannot index, or a sensor grid with more points than
    the mesh has nodes, is refused before it is allocated: synthesize exits 2 at 0 solves
    with one stderr line (it ended in a MemoryError traceback)."""
    cfg_path = write_config(tmp_path, {**SMALL, **override})
    assert main(["synthesize", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert solve_counter.snapshot().total == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err


def test_cli_out_of_memory_exits_1_in_one_line(tmp_path, monkeypatch, capsys):
    """A MemoryError is a failure of the run, not of its config: one stderr line, exit 1."""

    def out_of_memory(config):
        raise MemoryError("Unable to allocate 1.60 GiB")

    monkeypatch.setattr(cli, "build_problem", out_of_memory)
    assert main(["synthesize", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["out of memory: Unable to allocate 1.60 GiB"]


FIELDS = [
    (section, f.name, f.type)
    for section, cls in typing.get_type_hints(ExperimentConfig).items()
    for f in dataclasses.fields(cls)
]
_TEXT, _BOOL, _NONE = st.text(max_size=4), st.booleans(), st.none()
_LIST, _INT, _FLOAT = st.lists(st.integers(0, 3), max_size=2), st.integers(-3, 3), st.floats(-3, 3)
_WRONG = {
    "int": [_TEXT, _BOOL, _LIST, _FLOAT],
    "float": [_TEXT, _BOOL, _LIST],
    "str": [_BOOL, _LIST, _INT, _FLOAT],
    "list": [_TEXT, _BOOL, _INT, _FLOAT],
}


def wrong_typed(annotation: str):
    """Values of another JSON type than ``annotation`` ("int", "list | None", ...) allows."""
    base = annotation.removesuffix(" | None")
    return st.one_of(*_WRONG[base], *([] if base != annotation else [_NONE]))


@pytest.mark.parametrize("section, key, annotation", FIELDS, ids=[f"{s}.{k}" for s, k, _ in FIELDS])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_cli_wrong_typed_field_exits_2(section, key, annotation, data):
    """Any config field of the wrong JSON type makes oed exit 2 at 0 solves, raising nothing."""
    value = data.draw(wrong_typed(annotation), label=f"{section}.{key}")
    payload = json.loads(json.dumps(SMALL))
    payload.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(payload, f)
        assert main(["oed", "--config", path, "--out", os.path.join(tmp, "out")]) == 2
    assert solve_counter.snapshot().total == 0


_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]  # on the nx = 2 and 4 grids; 0.25 and 0.75 are off the nx = 6 one
_CONTRACT = {
    "mesh": st.fixed_dictionaries(
        {
            "nx": st.sampled_from([2, 4, 6]),
            "holes": st.lists(st.lists(st.sampled_from([-0.25, *_GRID, 1.25]), min_size=4, max_size=4), max_size=2),
        }
    ),
    "sensors": st.fixed_dictionaries(
        {"coords": st.lists(st.sampled_from([[x, y] for x in [-0.5, *_GRID, 1.5] for y in (0.25, 0.5)]), max_size=4)}
    ),
    "sketch": st.fixed_dictionaries({"k": st.sampled_from([1, 12, 26, 27, 28, 50, 200])}),
    "opt": st.fixed_dictionaries(
        {
            "method": st.sampled_from(["eig", "rand", "frozen", "dense"]),
            "eig_k": st.sampled_from([None, 1, 27, 200, 0, -3]),
            "frozen_k": st.sampled_from([None, 1, 27, 200, 0, -3]),
        }
    ),
    "noise": st.fixed_dictionaries({"sigma_rel": st.sampled_from([0.0, 0.3, 1e-170, 1e200])}),
    "obs": st.fixed_dictionaries({"times": st.lists(st.sampled_from([-1.0, 0.0, 0.04, 0.5, 2.0, 2.5]), max_size=3)}),
    "prior": st.fixed_dictionaries({"alpha": st.sampled_from([0.0, 2e-3])}),
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_contract_on_extreme_configs(data):
    """Bad holes, coincident or out-of-domain sensors, ranks above n_y, zero noise, times
    outside (0, T] and a zero prior alpha: synthesize, oed and evaluate (on the weights of
    an oed that exited 0) return 0, 1 or 2 and raise nothing.  The method is drawn from
    rand and eig unless the opt section is drawn, so the factored Eig-k path meets every
    family."""
    payload = json.loads(json.dumps(SMALL))
    payload["opt"]["method"] = data.draw(st.sampled_from(["rand", "eig"]), label="method")
    sections = data.draw(st.sets(st.sampled_from(list(_CONTRACT)), min_size=1, max_size=2), label="sections")
    for section in sorted(sections):
        payload.setdefault(section, {}).update(data.draw(_CONTRACT[section], label=section))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(payload, f)
        for command in ("synthesize", "oed"):
            rc = main([command, "--config", path, "--out", os.path.join(tmp, command)])
            assert rc in (0, 1, 2)
        if rc == 0:
            weights = os.path.join(tmp, "oed", "weights.csv")
            argv = ["evaluate", "--config", path, "--weights", weights, "--out", os.path.join(tmp, "evaluate")]
            assert main(argv) in (0, 1, 2)


def test_cli_prior_alpha_zero_warns_and_runs(tmp_path):
    """alpha = 0 leaves L^-1 M L^-1 without a trace-class limit in 2-D: oed warns and still exits 0."""
    cfg_path = write_config(tmp_path, {**SMALL, "prior": {"alpha": 0.0, "beta": 0.1}})
    with pytest.warns(UserWarning, match="trace-class in 2-D only for alpha > 0"):
        assert main(["oed", "--config", cfg_path, "--out", str(tmp_path / "alpha0")]) == 0


def test_cli_warm_cache_compare_random_spends_only_synthesis(tmp_path):
    """After oed has written the z cache (with C), compare-random's J and KL cost 0
    solves: it spends only the forward solves of the noise scale and the data."""
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "warm")
    assert main(["oed", "--config", cfg_path, "--out", out]) == 0
    weights = os.path.join(out, "weights.csv")
    with count_solves() as synth:
        problem = build_problem(ExperimentConfig.from_dict(SMALL))
        problem.design
        problem.synthesize()
    assert synth.delta.adjoint == 0 and synth.delta.forward > 0
    argv = ["compare-random", "--config", cfg_path, "--weights", weights, "--n-designs", "20", "--out", out]
    assert main(argv) == 0
    assert solve_counter.snapshot() == synth.delta  # main() resets the tally on entry


def test_cli_compare_random_above_guard_sketches(tmp_path, monkeypatch):
    """Above the n_y guard compare-random takes the sketch plus MAP CG, and each row
    equals the rand estimator's objective and kl_estimate(..., "rand")."""
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "above")
    assert main(["oed", "--config", cfg_path, "--out", out]) == 0
    weights = os.path.join(out, "weights.csv")
    monkeypatch.setattr(oed, "DENSE_GUARD", 9 * 3 - 1)
    argv = ["compare-random", "--config", cfg_path, "--weights", weights, "--n-designs", "3", "--out", out]
    assert main(argv) == 0
    spent = solve_counter.snapshot()
    with open(os.path.join(out, "cloud.csv")) as f:
        rows = [(float(r["neg_J"]), float(r["info_gain_from_data"])) for r in csv.DictReader(f)]

    config = ExperimentConfig.from_dict(SMALL)
    problem = build_problem(config)
    design = problem.design
    assert not design.dense_allowed
    design.ensure_z()
    y_obs, _ = problem.synthesize()
    sk = _sketch_config(config)
    with open(weights) as f:
        active = np.array([int(r["active"]) for r in csv.DictReader(f)])
    randoms = random_binary_designs(design.n_s, int(active.sum()), 3, seed=problem.seeds["designs"])
    est = design.estimator("rand", cfg=sk)
    expected = []
    for wb in [active] + list(randoms):
        w = wb.astype(float)
        expected.append((-est.objective(w), design.kl_estimate(w, y_obs, "rand", cfg=sk)))
    assert rows == pytest.approx(expected, rel=1e-12)
    # each design's sketch and MAP CG cost forward and adjoint solves
    assert spent.forward > 4 * sk.l * (sk.q + 1) and spent.adjoint > 4 * sk.l * (sk.q + 1)


def test_peclet_warning_fires_on_advection_dominated_config(tmp_path):
    from oed_dopt.problem import build_problem

    # kappa = 0 (pure advection) has an infinite mesh Peclet number
    for kappa in (0.0005, 0.0):
        cfg = ExperimentConfig.from_dict({**SMALL, "pde": {"kappa": kappa, "T": 2.0, "n_steps": 20}})
        with pytest.warns(UserWarning, match="Peclet"):
            build_problem(cfg)


def test_weights_file_round_trip(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "w")
    assert main(["oed", "--config", cfg_path, "--out", out]) == 0
    from oed_dopt.cli import _read_weights

    w, active = _read_weights(os.path.join(out, "weights.csv"), 9)
    assert w.shape == (9,)
    assert set(np.unique(active)).issubset({0, 1})

"""Assemble the full operator stack from an experiment configuration."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .config import ExperimentConfig, float_array
from .fem import MassFactor, assemble, build_mesh, warn_if_advection_dominated
from .oed import DesignProblem, NoiseModel
from .prior import PriorOperator, WhitenedForwardMap
from .transport import ForwardMap, VelocityField, make_observation_setup, synthesize_data


def gaussian_bumps(nodes: np.ndarray, bumps: list) -> np.ndarray:
    """Sum of isotropic Gaussian bumps evaluated at the mesh nodes."""
    field = np.zeros(nodes.shape[0])
    for bump in bumps:
        c = np.asarray(bump["center"], dtype=float)
        width = float(bump["width"])
        amp = float(bump["amplitude"])
        d2 = np.sum((nodes - c) ** 2, axis=1)
        field += amp * np.exp(-d2 / (2.0 * width**2))
    return field


@dataclass
class Problem:
    """Everything a command or test needs for one configuration.

    The assembled K, M and N are not kept: the forward map and the prior hold
    the sparse matrices and factors they solve with, and the mass factor M.
    """

    config: ExperimentConfig
    mesh: object
    mass: object
    obs: object
    forward: ForwardMap
    prior: PriorOperator
    G: WhitenedForwardMap
    theta_true: np.ndarray
    seeds: dict

    @cached_property
    def y_clean(self) -> np.ndarray:
        """Noise-free observations F theta_true: one forward solve per problem."""
        return self.forward.apply(self.theta_true)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Per-sensor noise std for the design model.

        noise.sigma_rel (default: noise.pct) times the peak clean
        measurement, identical for all sensors; 0 means noiseless.
        """
        rel = self.config.noise.sigma_rel
        if rel is None:
            rel = self.config.noise.pct
        peak = float(np.max(np.abs(self.y_clean)))
        if peak == 0.0 or rel == 0.0:
            # keep the noise model valid even for noiseless synthetic studies
            return np.full(self.obs.n_s, max(peak, 1.0) * 1e-12)
        return np.full(self.obs.n_s, rel * peak)

    @cached_property
    def design(self) -> DesignProblem:
        return DesignProblem(self.G, NoiseModel(self.sigma))

    def synthesize(self):
        """(y_obs, sigma) with the seeded noise generator."""
        return synthesize_data(self.y_clean, self.obs.n_s, self.config.noise.pct, self.seeds["noise"])

    def z_config_hash(self) -> bytes:
        """The z cache's 32-byte key: the SHA-256 of the canonical JSON of every configuration
        section, in field order and joined by "|", but those that leave the z step's C unchanged."""
        cfg = self.config
        sections = (asdict(getattr(cfg, f.name)) for f in fields(cfg) if f.name not in ("sketch", "opt", "seeds"))
        payload = "|".join(json.dumps(s, sort_keys=True, separators=(",", ":")) for s in sections)
        return hashlib.sha256(payload.encode()).digest()


def build_problem(config: ExperimentConfig) -> Problem:
    mesh = build_mesh(config.mesh.nx, float_array(config.mesh.holes, "mesh.holes", (None, 4)).tolist())
    ops = assemble(mesh, VelocityField(amplitude=config.velocity.amplitude))
    warn_if_advection_dominated(abs(config.velocity.amplitude), mesh.h, config.pde.kappa)
    mass = MassFactor(ops.M, config.mass.mode)
    obs = make_observation_setup(
        mesh,
        config.sensor_coordinates(),
        float_array(config.obs.times, "obs.times", (None,)),
        config.pde.T,
        config.pde.n_steps,
    )
    forward = ForwardMap(ops, mass, obs, config.pde.kappa)
    prior = PriorOperator(ops, mass, config.prior.alpha, config.prior.beta)
    G = WhitenedForwardMap(forward, prior)
    theta_true = gaussian_bumps(mesh.nodes, config.theta_true.bumps)
    return Problem(
        config=config,
        mesh=mesh,
        mass=mass,
        obs=obs,
        forward=forward,
        prior=prior,
        G=G,
        theta_true=theta_true,
        seeds=config.derived_seeds(),
    )

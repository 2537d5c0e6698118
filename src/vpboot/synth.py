"""Gaussian-niche community generator.

Each species responds to two environmental gradients through bell-shaped
response curves. Per site, the two noisy response factors are floored at
zero and multiplied, the products are normalised across species, and the
result is scaled to a fixed carrying capacity and rounded up to integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .rng import ROLE_NICHE, ROLE_SITE, _streams, stream
from .tables import CommunityTable, PredictorBlock

# Bound on per-site noise redraws when every species lands at zero.
_MAX_SITE_REDRAWS = 100


@dataclass(frozen=True)
class SpeciesNiche:
    """Optimum of one species' response surface on the two gradients."""

    x_opt: float
    y_opt: float

    def __post_init__(self):
        if not (math.isfinite(self.x_opt) and math.isfinite(self.y_opt)):
            raise ValidationError("niche optima must be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete parameterisation of one synthetic scenario.

    ``seed`` is mandatory: every draw in the pipeline is keyed off it, so a
    config fully determines its datasets.

    The default community has two species with distinct mid-range optima on
    the first gradient (0.25 and 0.75) and a separation of 0.5 on the
    second. Distinct first-gradient optima matter: with identical ones the
    per-site normalisation cancels the first gradient out of the table
    entirely, the second gradient's contribution saturates near 1, and the
    sweep studies lose their dynamic range.
    """

    seed: int
    n_sites: int = 100
    niches: tuple[SpeciesNiche, ...] = (
        SpeciesNiche(0.25, 0.0),
        SpeciesNiche(0.75, 0.5),
    )
    sigma_niche: float = 0.5
    sigma_noise: float = 0.01
    y_max: float = 1.0
    carrying_capacity: int = 10_000
    replicates: int = 200

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.n_sites < 3:
            raise ValidationError("need at least 3 sites")
        niches = tuple(self.niches)
        if len(niches) < 2:
            raise ValidationError("need at least 2 species")
        object.__setattr__(self, "niches", niches)
        if not (math.isfinite(self.sigma_niche) and self.sigma_niche > 0):
            raise ValidationError("sigma_niche must be positive")
        if not (math.isfinite(self.sigma_noise) and self.sigma_noise >= 0):
            raise ValidationError("sigma_noise must be non-negative")
        if not (0.0 < self.y_max <= 1.0):
            raise ValidationError("y_max must lie in (0, 1]")
        if self.carrying_capacity < 1:
            raise ValidationError("carrying_capacity must be at least 1")
        if self.replicates < 1:
            raise ValidationError("replicates must be at least 1")

    @property
    def n_species(self) -> int:
        return len(self.niches)


def _densities(values: np.ndarray, optima: np.ndarray,
               sigma: float) -> np.ndarray:
    """Normal density, mean ``optimum`` and standard deviation ``sigma``, of
    every site value against every optimum.

    The arithmetic is the scalar ``exp(-z*z/2) / (sigma * sqrt(2 pi))``
    (the tests' scalar oracle), operation for operation; the exponential
    stays ``math.exp``, because ``np.exp`` rounds a few percent of its
    results differently.
    """
    z = (values[:, np.newaxis] - optima) / sigma
    e = (-0.5 * z * z).ravel().tolist()
    return (np.fromiter(map(math.exp, e), float, count=len(e)).reshape(z.shape)
            / (sigma * math.sqrt(2.0 * math.pi)))


def _products(fx: np.ndarray, fy: np.ndarray, noise) -> tuple[np.ndarray, np.ndarray]:
    """Noisy product responses for whole rows, plus each row's ``math.fsum``.

    Each species' two response factors get their noise terms, are floored
    at zero and multiplied, so no value is negative. ``noise`` holds each
    row's 2 x S noise terms in draw order (fx of the first species, fy of
    the first, fx of the second, ...), each as ``0.0 + sigma_noise * z``
    like ``rng.normal(0.0, sigma_noise)``; or it is None.
    """
    if noise is not None:
        fx = fx + noise[:, 0::2]
        fy = fy + noise[:, 1::2]
    alphas = np.maximum(fx, 0.0) * np.maximum(fy, 0.0)
    return alphas, np.array([math.fsum(row) for row in alphas.tolist()])


def _generate_cell(config: ScenarioConfig,
                   replicates) -> tuple[np.ndarray, np.ndarray]:
    """Counts ``(R, n, S)`` and environment ``(R, n, 2)`` of ``R`` replicates.

    Entry ``k`` is ``generate_dataset(config, replicates[k])`` without its
    labels, bit for bit. The streams of every (replicate, site) pair come
    from one batched ``_streams`` pass; a dead site continues its own
    stream. The first failing site of the first failing replicate names the
    error, as a loop over ``generate_dataset`` would raise it.
    """
    replicates = np.asarray(replicates, dtype=np.int64)
    n, n_species = config.n_sites, config.n_species
    sites = n * len(replicates)
    sigma = config.sigma_noise
    u = np.empty((sites, 2))
    z = np.empty((sites, 2 * n_species)) if sigma > 0.0 else None
    grid = np.column_stack([np.repeat(replicates, n),
                            np.tile(np.arange(n), len(replicates))])
    for i, rng in enumerate(_streams(config.seed, ROLE_SITE, grid)):
        rng.random(out=u[i])
        if z is not None:
            rng.standard_normal(out=z[i])
    env = np.column_stack([u[:, 0], config.y_max * u[:, 1]])
    fx = _densities(env[:, 0], np.array([c.x_opt for c in config.niches]),
                    config.sigma_niche)
    fy = _densities(env[:, 1], np.array([c.y_opt for c in config.niches]),
                    config.sigma_niche)
    alphas, totals = _products(fx, fy, None if z is None else 0.0 + sigma * z)

    dead = np.flatnonzero(~(totals > 0.0))
    if dead.size and z is not None:
        # A dead site continues its own stream past its first draws.
        pending = [stream(config.seed, ROLE_SITE, *grid[i].tolist())
                   for i in dead]
        for rng in pending:
            rng.random(2)
            rng.standard_normal(2 * n_species)
        for _ in range(_MAX_SITE_REDRAWS - 1):
            noise = 0.0 + sigma * np.stack(
                [rng.standard_normal(2 * n_species) for rng in pending])
            alphas[dead], totals[dead] = _products(fx[dead], fy[dead], noise)
            live = totals[dead] > 0.0
            pending = [rng for rng, ok in zip(pending, live) if not ok]
            dead = dead[~live]
            if not dead.size:
                break
    # Sites are checked in order: the first failing site names the error.
    failed = ~np.isfinite(alphas).all(axis=1)
    failed[dead] = True
    first = int(np.argmax(failed))
    if failed[first] and first in dead:
        reason = ("no noise to redraw" if z is None else
                  f"noise redraw budget of {_MAX_SITE_REDRAWS} exhausted")
        raise DegenerateDataError(
            f"site {first % n}: every species response stayed zero ({reason})")
    if failed[first]:
        raise ValidationError("relative abundances must be finite and non-negative")
    counts = np.where(alphas > 0.0,
                      np.ceil(alphas / totals[:, np.newaxis]
                              * config.carrying_capacity), 0.0)
    return (counts.reshape(len(replicates), n, n_species),
            env.reshape(len(replicates), n, 2))


def generate_dataset(config: ScenarioConfig,
                     replicate: int = 0) -> tuple[CommunityTable, PredictorBlock]:
    """One community table plus its two-column environmental block.

    Each site draws from its own random stream keyed by
    ``(config.seed, replicate, site)``, so the same pair always produces the
    same dataset no matter what else has been generated. A site draws x,
    then y, then (with noise) two normal terms per species; a site whose
    responses all land at zero draws fresh noise from the same stream, up
    to ``_MAX_SITE_REDRAWS`` draws in all.
    """
    if replicate < 0:
        raise ValidationError("replicate index must be non-negative")
    counts, env = _generate_cell(config, [replicate])
    site_ids = tuple(f"site{i + 1}" for i in range(config.n_sites))
    species_ids = tuple(f"sp{j + 1}" for j in range(config.n_species))
    table = CommunityTable(site_ids, species_ids, counts[0])
    block = PredictorBlock("env", site_ids, env[0])
    return table, block


def _complex_config(n_sites: int, n_species: int, sigma_noise: float,
                    seed: int, sigma_niche: float) -> ScenarioConfig:
    """The scenario of ``generate_complex_dataset``: niche optima drawn once
    from ``stream(seed, ROLE_NICHE)``."""
    if n_sites < 5:
        raise ValidationError("need at least 5 sites")
    if n_species < 2:
        raise ValidationError("need at least 2 species")
    rng = stream(seed, ROLE_NICHE)
    niches = tuple(
        SpeciesNiche(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        for _ in range(n_species))
    return ScenarioConfig(
        seed=seed, n_sites=n_sites, niches=niches, sigma_niche=sigma_niche,
        sigma_noise=sigma_noise, y_max=1.0)


def generate_complex_dataset(n_sites: int, n_species: int = 5,
                             sigma_noise: float = 0.0, seed: int = 0,
                             replicate: int = 0,
                             sigma_niche: float = 0.5
                             ) -> tuple[CommunityTable, PredictorBlock]:
    """Dataset whose niche optima are drawn uniformly on the unit square.

    The optima depend on ``seed`` only, not on ``replicate``, so repeated
    replicates probe the same underlying community.
    """
    return generate_dataset(
        _complex_config(n_sites, n_species, sigma_noise, seed, sigma_niche),
        replicate=replicate)

"""Gaussian-niche community generator.

Each species responds to two environmental gradients through bell-shaped
response curves. Per site, the two noisy response factors are floored at
zero and multiplied, the products are normalised across species, and the
result is scaled to a fixed carrying capacity and rounded up to integers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .rng import (ROLE_NICHE, ROLE_SITE, _draws, _loaded, _seed_states,
                  stream)
from .tables import CommunityTable, PredictorBlock

# Bound on per-site noise redraws when every species lands at zero.
_MAX_SITE_REDRAWS = 100
# Values per slice of ``_densities``' Python-level exponentials.
_EXP_SLICE = 2 ** 10
#: Bytes ``generate_dataset`` may hold at its peak per value of its table
#: and gradients, ``n_sites x (n_species + 2)`` values, site labels
#: included; traced peaks grew by about 37 bytes a value from 20,000 to
#: 50,000 sites.
_DATASET_VALUE_BYTES = 48


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
        if not 3 <= self.n_sites < 2 ** 32:
            raise ValidationError("need at least 3 and fewer than 2**32 sites")
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
    results differently. It runs over ``_EXP_SLICE`` values at a time, so
    the Python floats it makes stay few.
    """
    z = (values[:, np.newaxis] - optima) / sigma
    e = -0.5 * z
    e *= z
    flat = e.reshape(-1)
    for start in range(0, flat.size, _EXP_SLICE):
        part = flat[start:start + _EXP_SLICE]
        part[:] = _map_float(math.exp, part)
    e /= sigma * math.sqrt(2.0 * math.pi)
    return e


def _map_float(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of every entry of ``values``, one Python call each."""
    return np.fromiter(map(fn, values.tolist()), float, count=values.size)


def _products(fx: np.ndarray, fy: np.ndarray, noise) -> tuple[np.ndarray, np.ndarray]:
    """Noisy product responses for whole rows, plus each row's ``_fsum``.

    Each species' two response factors get their noise terms, are floored
    at zero and multiplied, so no value is negative. ``noise`` holds each
    row's 2 x S noise terms in draw order (fx of the first species, fy of
    the first, fx of the second, ...), each as ``0.0 + sigma_noise * z``
    like ``rng.normal(0.0, sigma_noise)``; or it is None. The products
    are formed in ``fx``, and ``fy`` is overwritten.
    """
    if noise is not None:
        fx += noise[:, 0::2]
        fy += noise[:, 1::2]
    np.maximum(fx, 0.0, out=fx)
    fx *= np.maximum(fy, 0.0, out=fy)
    return fx, _row_sums(fx)


@np.errstate(over="ignore", invalid="ignore")
def _row_sums(rows: np.ndarray) -> np.ndarray:
    """``_fsum`` of every row of a matrix with no negative entries.

    A TwoSum cascade over the columns leaves each row's float sum ``s``
    and the exact rounding error of every addition; a second cascade sums
    those errors into ``e`` and keeps the exact rounding errors of that
    sum, whose magnitudes add up to ``m``. The exact row sum is then ``s +
    e`` up to at most ``m``. ``r = s + e`` is that sum correctly rounded
    when ``m`` is 0, or when ``|(s - r) + e|`` (the exact error of ``r``)
    plus ``2m`` stays below half the gap from ``r`` down to its neighbour.
    With two columns ``s`` is already the correctly rounded sum. Rows that
    are zero, not finite or not certified take ``_fsum``.
    """
    n, width = rows.shape
    s = rows[:, 0].copy() if width else np.zeros(n)
    if width <= 2:
        if width == 2:
            s += rows[:, 1]
        r, certified = s, np.isfinite(s) & (s > 0.0)
    else:
        e, m = np.zeros(n), np.zeros(n)
        t, d, b = np.empty(n), np.empty(n), np.empty(n)
        for k in range(1, width):
            _two_sum(s, rows[:, k], t, d, b)
            s, t = t, s
            _two_sum(e, d, t, d, b)
            e, t = t, e
            m += np.abs(d, out=d)
        r = s + e
        np.subtract(s, r, out=s)
        s += e                                     # the exact error of r
        np.abs(s, out=s)
        s += m
        s += m
        np.nextafter(r, 0.0, out=b)
        np.subtract(r, b, out=b)
        b *= 0.5
        certified = ((m == 0.0) | (s < b)) & np.isfinite(r) & (r > 0.0)
    for i in np.flatnonzero(~certified).tolist():
        r[i] = _fsum(rows[i].tolist())
    return r


def _two_sum(x, y, total, error, scratch) -> None:
    """Knuth's TwoSum into ``total`` and ``error``: ``x + y`` rounded, and
    its exact rounding error. ``error`` may be ``y``; ``scratch`` must be
    none of the others."""
    np.add(x, y, out=total)
    np.subtract(total, x, out=scratch)            # y as the sum saw it
    np.subtract(y, scratch, out=error)
    np.subtract(total, scratch, out=scratch)
    np.subtract(x, scratch, out=scratch)
    error += scratch                              # (y - b) + (x - (t - b))


def _fsum(row) -> float:
    """``math.fsum``, or inf where the exact sum overflows."""
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def _factors(config: ScenarioConfig, env: np.ndarray):
    """Noise-free response factors of every site (row of ``env``) to every
    species, on the first and on the second gradient."""
    return (_densities(env[:, 0], np.array([c.x_opt for c in config.niches]),
                       config.sigma_niche),
            _densities(env[:, 1], np.array([c.y_opt for c in config.niches]),
                       config.sigma_niche))


# Overflow ends in the finiteness check below, not in a warning.
@np.errstate(over="ignore", invalid="ignore")
def _generate_cell(config: ScenarioConfig,
                   replicates) -> tuple[np.ndarray, np.ndarray]:
    """Counts ``(R, n, S)`` and environment ``(R, n, 2)`` of ``R`` replicates.

    Entry ``k`` is ``generate_dataset(config, replicates[k])`` without its
    labels, bit for bit. The first draws of every (replicate, site) pair
    come from one batched ``rng._draws`` pass; a dead site loads its own
    stream again and continues it past them. The first failing site of the
    first failing replicate names the error, as a loop over
    ``generate_dataset`` would raise it.
    """
    replicates = np.asarray(replicates, dtype=np.int64)
    n, n_species = config.n_sites, config.n_species
    sigma = config.sigma_noise
    normals = 2 * n_species if sigma > 0.0 else 0
    grid = np.column_stack([np.repeat(replicates, n),
                            np.tile(np.arange(n), len(replicates))])
    states = _seed_states(config.seed, ROLE_SITE, grid)
    del grid
    u, z = _draws(states, 2, normals)
    del states
    env = np.column_stack([u[:, 0], config.y_max * u[:, 1]])
    del u
    if sigma > 0.0:
        z *= sigma
        z += 0.0  # 0.0 + sigma * z, as rng.normal(0.0, sigma) draws it
    alphas, totals = _products(*_factors(config, env),
                               z if sigma > 0.0 else None)
    del z

    dead = np.flatnonzero(~(totals > 0.0))
    if dead.size and sigma > 0.0:
        # A dead site continues its own stream past its first draws.
        paths = np.column_stack([replicates[dead // n], dead % n])
        fx, fy = _factors(config, env[dead])
        still = []
        streams = _loaded(_seed_states(config.seed, ROLE_SITE, paths))
        for k, (i, rng) in enumerate(zip(dead.tolist(), streams)):
            rng.random(2)
            rng.standard_normal(normals)
            for _ in range(_MAX_SITE_REDRAWS - 1):
                noise = 0.0 + sigma * rng.standard_normal((1, 2 * n_species))
                row, total = _products(fx[k:k + 1].copy(), fy[k:k + 1].copy(),
                                       noise)
                alphas[i], totals[i] = row[0], total[0]
                if total[0] > 0.0:
                    break
            else:
                still.append(i)
        dead = np.array(still, dtype=int)
    # Sites are checked in order: the first failing site names the error.
    failed = ~(np.isfinite(alphas).all(axis=1) & np.isfinite(totals))
    failed[dead] = True
    first = int(np.argmax(failed))
    if failed[first] and first in dead:
        reason = ("no noise to redraw" if sigma == 0.0 else
                  f"noise redraw budget of {_MAX_SITE_REDRAWS} exhausted")
        raise DegenerateDataError(
            f"site {first % n}: every species response stayed zero ({reason})")
    if failed[first]:
        raise ValidationError("relative abundances must be finite and non-negative")
    counts = alphas / totals[:, np.newaxis]
    counts *= config.carrying_capacity
    np.ceil(counts, out=counts)
    counts[~(alphas > 0.0)] = 0.0
    return (counts.reshape(len(replicates), n, n_species),
            env.reshape(len(replicates), n, 2))


def _physical_memory() -> int:
    """Bytes of physical memory of this host, or 0 if it cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return 0


def generate_dataset(config: ScenarioConfig,
                     replicate: int = 0) -> tuple[CommunityTable, PredictorBlock]:
    """One community table plus its two-column environmental block.

    Each site draws from its own random stream keyed by
    ``(config.seed, replicate, site)``, so the same pair always produces the
    same dataset no matter what else has been generated. A site draws x,
    then y, then (with noise) two normal terms per species; a site whose
    responses all land at zero draws fresh noise from the same stream, up
    to ``_MAX_SITE_REDRAWS`` draws in all. A dataset whose estimated peak
    (``_DATASET_VALUE_BYTES`` a value) exceeds the host's physical memory
    raises ``MemoryError`` before anything is allocated.
    """
    if not 0 <= replicate < 2 ** 32:
        raise ValidationError("replicate index must lie in [0, 2**32)")
    need = config.n_sites * (config.n_species + 2) * _DATASET_VALUE_BYTES
    memory = _physical_memory()
    if memory and need > memory:
        # Refused before allocating: an overcommitting host would let the
        # arrays grow until the OOM killer ends the process.
        raise MemoryError(f"{config.n_sites} sites need about {need:.3g} "
                          f"bytes; this host has {memory:.3g}")
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

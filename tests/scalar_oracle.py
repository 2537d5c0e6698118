"""Scalar reference generator: one site, one species, one draw at a time.

The package generates whole cells as arrays; these functions are the
per-value arithmetic those arrays must reproduce bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from vpboot.errors import DegenerateDataError, ValidationError
from vpboot.synth import SpeciesNiche


@dataclass(frozen=True)
class SiteEnvironment:
    """Position of one site on the two gradients."""

    x: float
    y: float


def gaussian_response(value: float, optimum: float, sigma: float) -> float:
    """Normal density with mean ``optimum`` and standard deviation ``sigma``."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValidationError("sigma must be positive")
    z = (value - optimum) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def relative_abundance(site: SiteEnvironment, niche: SpeciesNiche,
                       sigma_niche: float, sigma_noise: float,
                       rng: np.random.Generator) -> float:
    """Noisy product response of one species at one site.

    Gaussian noise is added to each gradient's response factor separately;
    each factor is floored at zero before the two are multiplied, so the
    result is never negative. With ``sigma_noise`` 0 no random numbers are
    consumed and the value is the exact product of the two densities.
    """
    fx = gaussian_response(site.x, niche.x_opt, sigma_niche)
    fy = gaussian_response(site.y, niche.y_opt, sigma_niche)
    if sigma_noise > 0.0:
        fx += rng.normal(0.0, sigma_noise)
        fy += rng.normal(0.0, sigma_noise)
    return max(fx, 0.0) * max(fy, 0.0)


def site_abundances(alphas, carrying_capacity: int) -> list[int]:
    """Integer abundances: each share of the total, scaled and rounded up.

    Zero shares stay exactly zero; every positive share yields at least one
    individual. The row total therefore lands in
    ``[carrying_capacity, carrying_capacity + n_species)``.
    """
    values = [float(a) for a in alphas]
    if any(not math.isfinite(v) or v < 0.0 for v in values):
        raise ValidationError("relative abundances must be finite and non-negative")
    total = math.fsum(values)
    if total <= 0.0:
        raise DegenerateDataError("all species have zero relative abundance")
    return [math.ceil(v / total * carrying_capacity) if v > 0.0 else 0
            for v in values]

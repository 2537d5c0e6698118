"""Independent reference implementation used to check the program's outputs.

Written against the documented contracts, not against vpboot's code: the
random-stream layout (one ``SeedSequence(seed, spawn_key=(role, *path))``
stream per site, per bootstrap attempt and per cell), the Gaussian-niche
generator, the adjusted-R2 (RDA) and chi-square (CCA) partitions and the
site bootstrap with its 5% redraw budget. Only numpy is imported, so a
change inside vpboot cannot change what the program is compared against.
"""

from __future__ import annotations

import math

import numpy as np

ROLE_SITE, ROLE_NICHE, ROLE_BOOTSTRAP = 0, 1, 2
TAG_SAMPLE_SIZE, TAG_VALIDATION_TABLE, TAG_CCA = 11, 14, 15
SV_RCOND = 1e-10
FAILURE_BUDGET = 0.05
MAX_SITE_REDRAWS = 100


class Degenerate(Exception):
    """A resample or dataset the method cannot fit; the bootstrap redraws it."""


def stream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def derive_seed(seed: int, *path: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


# --- Gaussian-niche generator -------------------------------------------

def _density(value: float, optimum: float, sigma: float) -> float:
    z = (value - optimum) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def generate(seed: int, replicate: int, n_sites: int, niches, sigma_niche: float,
             sigma_noise: float, y_max: float = 1.0, capacity: int = 10_000):
    """Counts ``(n_sites, n_species)`` and gradients ``(n_sites, 2)``."""
    counts = np.zeros((n_sites, len(niches)))
    env = np.zeros((n_sites, 2))
    for i in range(n_sites):
        rng = stream(seed, ROLE_SITE, replicate, i)
        x = rng.uniform(0.0, 1.0)
        y = rng.uniform(0.0, y_max)
        for _ in range(MAX_SITE_REDRAWS):
            alphas = []
            for x_opt, y_opt in niches:
                fx = _density(x, x_opt, sigma_niche)
                fy = _density(y, y_opt, sigma_niche)
                if sigma_noise > 0.0:
                    fx += rng.normal(0.0, sigma_noise)
                    fy += rng.normal(0.0, sigma_noise)
                alphas.append(max(fx, 0.0) * max(fy, 0.0))
            total = math.fsum(alphas)
            if total > 0.0 or sigma_noise == 0.0:
                break
        if total <= 0.0:
            raise Degenerate(f"site {i}: all responses zero")
        counts[i] = [math.ceil(a / total * capacity) if a > 0.0 else 0
                     for a in alphas]
        env[i] = (x, y)
    return counts, env


def random_niches(seed: int, n_species: int):
    rng = stream(seed, ROLE_NICHE)
    return [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            for _ in range(n_species)]


# --- fits ------------------------------------------------------------------

def _lstsq_fitted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape[1] == 0:
        return np.zeros_like(y)
    coef = np.linalg.lstsq(x, y, rcond=SV_RCOND)[0]
    return x @ coef


def _rank(x: np.ndarray) -> int:
    if x.size == 0:
        return 0
    s = np.linalg.svd(x, compute_uv=False)
    return int(np.count_nonzero(s > SV_RCOND * s[0])) if s[0] > 0 else 0


def rda_adjusted(y: np.ndarray, x: np.ndarray) -> float:
    """Adjusted R2 of ``y`` on ``x``, both centred, adjusted by ``rank(x)``."""
    n = y.shape[0]
    yc = y - y.mean(axis=0)
    xc = x - x.mean(axis=0)
    m = _rank(xc)
    if n - m - 1 < 1:
        raise Degenerate("no residual degrees of freedom")
    total = float(np.sum(yc * yc))
    r2 = 0.0
    if total > 0.0:
        fitted = _lstsq_fitted(xc, yc)
        r2 = min(max(float(np.sum(fitted * fitted)) / total, 0.0), 1.0)
    return 1.0 - (1.0 - r2) * (n - 1) / (n - m - 1)


def cca_share(y: np.ndarray, x: np.ndarray) -> float:
    """Share of chi-square inertia of ``y`` explained by ``x``."""
    total = y.sum()
    p = y / total
    r = y.sum(axis=1) / total
    c = y.sum(axis=0) / total
    expected = np.outer(r, c)
    qbar = (p - expected) / np.sqrt(expected)
    inertia = float(np.sum(qbar * qbar))
    if inertia == 0.0:
        return 0.0
    xw = np.sqrt(r)[:, None] * (x - r @ x)
    fitted = _lstsq_fitted(xw, qbar)
    return min(max(float(np.sum(fitted * fitted)), 0.0), inertia) / inertia


def _prune(y: np.ndarray, min_species: int):
    rows = y.sum(axis=1) > 0
    cols = y.sum(axis=0) > 0
    if rows.sum() < 3 or cols.sum() < min_species:
        raise Degenerate("too few non-empty sites or species")
    return rows, y[np.ix_(rows, cols)]


def rollup(y, x, w, method: str):
    """(pure x, w including shared, residual) of the two-block partition."""
    if method == "rda":
        r2_x, r2_w = rda_adjusted(y, x), rda_adjusted(y, w)
        r2_xw = rda_adjusted(y, np.hstack([x, w]))
    else:
        rows, ym = _prune(y, 1)
        ym = np.log1p(ym)
        xm, wm = x[rows], w[rows]
        r2_x, r2_w = cca_share(ym, xm), cca_share(ym, wm)
        r2_xw = cca_share(ym, np.hstack([xm, wm]))
    shared = r2_x + r2_w - r2_xw
    return (r2_xw - r2_w, shared + (r2_xw - r2_x), 1.0 - r2_xw)


def effect_r2(y: np.ndarray, env: np.ndarray) -> float:
    """Semipartial adjusted R2 of the second gradient."""
    return rda_adjusted(y, env) - rda_adjusted(y, env[:, :1])


def cca_proportion(y: np.ndarray, env: np.ndarray) -> float:
    rows, ym = _prune(y, 2)
    return cca_share(np.log1p(ym), env[rows])


def trend_surface(coords: np.ndarray) -> np.ndarray:
    a, b = coords[:, 0], coords[:, 1]
    return np.column_stack([a, b, a * a, a * b, b * b])


# --- bootstrap -------------------------------------------------------------

def bootstrap(arrays, statistic, m_replicates: int, seed: int):
    """Per-component (mean, sd, ci_low, ci_high) and the redraw count."""
    n = arrays[0].shape[0]
    rows, failures = [], 0
    for j in range(m_replicates):
        attempt = 0
        while True:
            idx = stream(seed, ROLE_BOOTSTRAP, j, attempt).integers(0, n, size=n)
            try:
                rows.append(np.atleast_1d(statistic(*(a[idx] for a in arrays))))
                break
            except Degenerate:
                failures += 1
                if failures > FAILURE_BUDGET * m_replicates:
                    raise
                attempt += 1
    arr = np.asarray(rows, dtype=float)
    lo, hi = np.percentile(arr, [2.5, 97.5], axis=0)
    return {"mean": arr.mean(axis=0).tolist(), "sd": arr.std(axis=0, ddof=1).tolist(),
            "ci95_low": lo.tolist(), "ci95_high": hi.tolist(),
            "redraws": failures}


def relative_error(sd: float, mean: float) -> float:
    if mean == 0.0:
        return math.nan if sd == 0.0 else math.inf
    return sd / abs(mean)

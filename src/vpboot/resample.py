"""Bootstrap resampling across sites."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .rng import ROLE_BOOTSTRAP, stream
from .tables import as_matrix, require_aligned

#: Fraction of replicates allowed to fail (and be redrawn) before aborting.
FAILURE_BUDGET = 0.05


@dataclass(frozen=True)
class BootstrapSummary:
    """Location and spread of one statistic over bootstrap replicates.

    ``relative_uncertainty`` is ``sd / mean`` with the mean's sign kept; it
    is infinite when the mean is zero but the spread is not, and NaN when
    both are zero. ``redraw_count`` says how many degenerate resamples were
    discarded and redrawn while producing the summary.
    """

    statistic_name: str
    replicate_count: int
    mean: float
    sd: float
    relative_uncertainty: float
    ci95_low: float
    ci95_high: float
    redraw_count: int = 0


def _as_row(value, width: int | None) -> tuple[float, ...]:
    if np.isscalar(value):
        row = (float(value),)
    else:
        row = tuple(float(v) for v in value)
    if not row:
        raise ValidationError("statistic returned no values")
    if width is not None and len(row) != width:
        raise ValidationError(
            f"statistic width changed between replicates ({width} vs {len(row)})")
    return row


def relative_spread(sd: float, mean: float) -> float:
    """``sd / mean`` with explicit conventions at a zero mean."""
    if mean == 0.0:
        return math.nan if sd == 0.0 else math.inf
    return sd / mean


def bootstrap_statistic(table, blocks, statistic, m_replicates: int,
                        seed: int, names=None) -> list[BootstrapSummary]:
    """Summaries of ``statistic`` over ``m_replicates`` site resamples.

    Replicate ``j`` draws ``n_sites`` row indices with replacement from
    ``stream(seed, ROLE_BOOTSTRAP, j, attempt)`` and applies them to the
    table and to every block, so a site's abundances never separate from
    its predictors. ``statistic`` is called as ``statistic(y, *blocks)`` on
    the resampled plain arrays and returns a float or a fixed-width
    sequence of floats; one summary per component comes back. A replicate
    whose statistic raises ``DegenerateDataError`` is redrawn from a fresh
    sub-stream; once more than ``FAILURE_BUDGET`` of ``m_replicates``
    replicates have failed, the whole run aborts. Confidence bounds are the
    2.5 and 97.5 percentiles with linear interpolation.
    """
    if m_replicates < 2:
        raise ValidationError("need at least 2 bootstrap replicates")
    blocks = list(blocks)
    require_aligned(table, *blocks)
    y = as_matrix(table)
    blocks = [as_matrix(b) for b in blocks]
    n = y.shape[0]
    rows: list[tuple[float, ...]] = []
    width: int | None = None
    failures = 0
    budget = FAILURE_BUDGET * m_replicates
    for j in range(m_replicates):
        attempt = 0
        while True:
            idx = stream(seed, ROLE_BOOTSTRAP, j, attempt).integers(0, n, size=n)
            try:
                value = statistic(y[idx], *(b[idx] for b in blocks))
            except DegenerateDataError as exc:
                failures += 1
                if failures > budget:
                    raise DegenerateDataError(
                        f"{failures} of {m_replicates} bootstrap replicates "
                        f"degenerate (budget {FAILURE_BUDGET:.0%}); "
                        f"last failure: {exc}") from exc
                attempt += 1
                continue
            rows.append(_as_row(value, width))
            width = len(rows[-1])
            break

    arr = np.asarray(rows, dtype=float)
    if names is None:
        names = ("stat",) if width == 1 else tuple(
            f"stat{k + 1}" for k in range(width))
    names = tuple(str(s) for s in names)
    if len(names) != width:
        raise ValidationError(
            f"{len(names)} names for a {width}-component statistic")

    summaries = []
    for k, statistic_name in enumerate(names):
        v = arr[:, k]
        mean = float(v.mean())
        sd = float(v.std(ddof=1))
        lo, hi = np.percentile(v, [2.5, 97.5])
        summaries.append(BootstrapSummary(
            statistic_name=statistic_name,
            replicate_count=m_replicates,
            mean=mean,
            sd=sd,
            relative_uncertainty=relative_spread(sd, mean),
            ci95_low=float(lo),
            ci95_high=float(hi),
            redraw_count=failures,
        ))
    return summaries

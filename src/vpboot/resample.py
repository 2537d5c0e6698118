"""Bootstrap resampling across sites."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DEGENERATE_REASONS, DegenerateDataError, ValidationError
from .ordination import _replicate_values
from .rng import ROLE_BOOTSTRAP, _bootstrap_rows, _count_row, stream
from .tables import as_matrix, require_aligned

#: Fraction of replicates allowed to fail (and be redrawn) before aborting.
FAILURE_BUDGET = 0.05

#: Float64 values (512 KB) a chunk's per-replicate arrays may hold, as the
#: fit kernel counts them per replicate (``ordination._replicate_values``).
#: At 100 sites that is 156 replicates for a 2-species RDA and 63 for a
#: 35-species CCA with 6 block columns; one ``analyze`` call's traced peak
#: is then 0.79 and 1.09 MB. Twice the budget ran the kernel about 10%
#: faster but kept 0.4-0.6 MB more resident in an analyze process.
_CHUNK_VALUES = 2 ** 16


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


def relative_spread(sd: float, mean: float) -> float:
    """``sd / mean`` with explicit conventions at a zero mean."""
    if mean == 0.0:
        return math.nan if sd == 0.0 else math.inf
    return sd / mean


def _check_bootstrap(m_replicates: int, seed: int) -> None:
    """Reject a replicate count or seed that ``bootstrap_statistic`` cannot
    use; callers check before any other work."""
    if m_replicates < 2:
        raise ValidationError("need at least 2 bootstrap replicates")
    if m_replicates >= 2 ** 32:
        raise ValidationError("need fewer than 2**32 bootstrap replicates")
    if seed < 0:
        raise ValidationError("seed must be non-negative")


def bootstrap_statistic(table, blocks, statistic, m_replicates: int,
                        seed: int, names=None) -> list[BootstrapSummary]:
    """Summaries of ``statistic`` over ``m_replicates`` site resamples.

    Replicate ``j`` draws ``n_sites`` row indices with replacement from
    ``stream(seed, ROLE_BOOTSTRAP, j, attempt)`` (the first attempts all
    come from batched ``rng._count_rows`` blocks with the same bits) and
    counts how often each site was drawn, so a site's abundances never
    separate from its predictors. Replicates are evaluated in chunks:
    ``statistic`` is called as ``statistic(counts, y, *blocks)`` with a
    ``(k, n_sites)`` count matrix and the original plain arrays, and
    returns ``(values, degenerate)``: a ``(k, width)`` array and ``(k,)``
    reason codes of ``errors.DEGENERATE_REASONS`` (0 for a usable
    replicate) or a boolean mask (True for a degenerate one). Chunks are
    sized for the package's fit kernel (``_CHUNK_VALUES``), whatever the
    statistic holds per replicate: a custom statistic that builds a
    ``(k, n_sites, width)`` stack is not bounded by it. One summary
    per column comes back. A degenerate replicate is redrawn alone, from
    the next sub-stream, in replicate order; once more than
    ``FAILURE_BUDGET`` of ``m_replicates`` replicates have failed, the whole
    run aborts, naming the reason of the last failure. Confidence bounds
    are the 2.5 and 97.5 percentiles with linear interpolation.
    """
    _check_bootstrap(m_replicates, seed)
    blocks = list(blocks)
    require_aligned(table, *blocks)
    y = as_matrix(table)
    blocks = [as_matrix(b) for b in blocks]
    n = y.shape[0]
    chunk = max(1, _CHUNK_VALUES // _replicate_values(
        n, y.shape[1], sum(b.shape[1] for b in blocks)))
    if names is not None:
        names = tuple(str(s) for s in names)

    width = None

    def evaluate(c: np.ndarray):
        nonlocal width
        values, reasons = statistic(c, y, *blocks)
        values = np.array(values, dtype=float)
        reasons = np.asarray(reasons)
        if reasons.dtype.kind not in "iu":
            reasons = reasons.astype(bool).astype(int)
        if values.ndim != 2 or values.shape[0] != len(c) or (
                reasons.shape != (len(c),)):
            raise ValidationError(
                f"statistic must return ({len(c)}, width) values and a "
                f"({len(c)},) degenerate mask")
        if values.shape[1] == 0:
            raise ValidationError("statistic returned no values")
        if width is not None and values.shape[1] != width:
            raise ValidationError(
                f"statistic width changed between replicates "
                f"({width} vs {values.shape[1]})")
        width = values.shape[1]
        if names is not None and len(names) != width:
            raise ValidationError(
                f"{len(names)} names for a {width}-component statistic")
        return values, reasons

    parts: list[np.ndarray] = []
    failures = 0
    budget = FAILURE_BUDGET * m_replicates
    first_draws = _bootstrap_rows(seed, m_replicates, n, chunk)
    for start, first in zip(range(0, m_replicates, chunk), first_draws):
        js = range(start, min(start + chunk, m_replicates))
        values, reasons = evaluate(first)
        for i in np.flatnonzero(reasons):
            attempt = 0
            while reasons[i]:
                failures += 1
                if failures > budget:
                    code = int(reasons[i])
                    reason = DEGENERATE_REASONS.get(code, f"reason code {code}")
                    raise DegenerateDataError(
                        f"{failures} of {m_replicates} bootstrap replicates "
                        f"degenerate (budget {FAILURE_BUDGET:.0%}); "
                        f"last failure: {reason}")
                attempt += 1
                rng = stream(seed, ROLE_BOOTSTRAP, js[i], attempt)
                redrawn, flagged = evaluate(_count_row(rng, n)[np.newaxis])
                values[i], reasons[i] = redrawn[0], flagged[0]
        parts.append(values)

    arr = np.concatenate(parts)
    if names is None:
        names = ("stat",) if width == 1 else tuple(
            f"stat{k + 1}" for k in range(width))

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

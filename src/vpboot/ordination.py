"""Core ordination statistics.

Linear (redundancy-style) and chi-square (correspondence-style) machinery:
column centring, rank-truncated least-squares projection, explained-variance
ratios with the small-sample adjustment, the two-block variance partition,
and the contingency-table decomposition behind constrained correspondence
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .tables import as_matrix

#: Relative singular-value cutoff shared by rank decisions and
#: pseudo-inverse truncation.
SV_RCOND = 1e-10


def center_columns(m) -> np.ndarray:
    """Subtract each column's mean; adding the mean row back restores the input."""
    a = as_matrix(m)
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")
    if a.shape[0] < 1:
        raise ValidationError("cannot centre an empty matrix")
    return a - a.mean(axis=0, keepdims=True)


def numerical_rank(m) -> int:
    """Rank by singular values above ``SV_RCOND`` times the largest one."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > SV_RCOND * s[0]))


def _truncated_lstsq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares coefficients with truncated-SVD inverse."""
    if x.shape[1] == 0:
        return np.zeros((0, y.shape[1]))
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((x.shape[1], y.shape[1]))
    keep = s > SV_RCOND * s[0]
    if not np.any(keep):
        return np.zeros((x.shape[1], y.shape[1]))
    u, s, vt = u[:, keep], s[keep], vt[keep]
    return vt.T @ ((u.T @ y) / s[:, np.newaxis])


def fit_projection(y, x, weights=None) -> np.ndarray:
    """Least-squares projection of each column of ``y`` onto the span of ``x``.

    Rank deficiency is handled by truncating singular values below
    ``SV_RCOND`` times the largest one; an effectively empty design gives
    the zero matrix. With ``weights`` (strictly positive, one per row) the
    projection minimises the weighted residual sum of squares.
    """
    ym = as_matrix(y)
    xm = as_matrix(x)
    if ym.shape[0] != xm.shape[0]:
        raise ValidationError(
            f"row mismatch: response has {ym.shape[0]} rows, design has {xm.shape[0]}")
    if weights is None:
        return xm @ _truncated_lstsq(xm, ym)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != ym.shape[0]:
        raise ValidationError("one weight per row required")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValidationError("weights must be finite and strictly positive")
    sw = np.sqrt(w)[:, np.newaxis]
    return xm @ _truncated_lstsq(xm * sw, ym * sw)


def rda_r2(y, x) -> float:
    """Fraction of the total column-centred sum of squares captured by ``x``.

    Both matrices are centred first, so the fit behaves as if an intercept
    were included. A response with zero total sum of squares has nothing to
    explain and yields 0. The result is clipped to [0, 1] against roundoff.
    """
    ym = as_matrix(y)
    xm = as_matrix(x)
    if ym.shape[0] != xm.shape[0]:
        raise ValidationError(
            f"row mismatch: response has {ym.shape[0]} rows, design has {xm.shape[0]}")
    if ym.shape[0] < 3:
        raise ValidationError("need at least 3 rows")
    yc = center_columns(ym)
    total = float(np.sum(yc * yc))
    if total == 0.0:
        return 0.0
    fitted = fit_projection(yc, center_columns(xm))
    r2 = float(np.sum(fitted * fitted)) / total
    return min(max(r2, 0.0), 1.0)


def adjusted_r2(r2: float, n: int, m: int) -> float:
    """Small-sample adjustment of an explained-variance fraction.

    ``m`` is the rank of the predictor block, not its raw column count.
    The result can be negative; callers should not clamp it, or additive
    partitions stop adding up.
    """
    if n - m - 1 < 1:
        raise DegenerateDataError(
            f"no residual degrees of freedom (n={n}, predictor rank m={m})")
    return 1.0 - (1.0 - float(r2)) * (n - 1) / (n - m - 1)


@dataclass(frozen=True)
class PartitionResult:
    """Two-block decomposition of explained variance.

    ``frac_pure_x`` + ``frac_shared`` + ``frac_pure_w`` equals ``r2_xw`` and
    ``frac_residual`` equals ``1 - r2_xw``; both identities are enforced at
    construction. Individual fractions may legitimately be negative because
    the small-sample adjustment is not monotone under block union.
    """

    frac_pure_x: float
    frac_shared: float
    frac_pure_w: float
    frac_residual: float
    r2_x: float
    r2_w: float
    r2_xw: float

    def __post_init__(self):
        explained = self.frac_pure_x + self.frac_shared + self.frac_pure_w
        if abs(explained - self.r2_xw) > 1e-12:
            raise ValidationError("partition fractions do not sum to the joint R2")
        if abs(self.frac_residual - (1.0 - self.r2_xw)) > 1e-12:
            raise ValidationError("residual fraction does not complement the joint R2")

    def rollup(self) -> tuple[float, float, float]:
        """Collapse to (pure first block, second block including shared, residual).

        The shared fraction is folded into the second block, so the first
        entry isolates what only the first block explains. The three values
        sum to 1.
        """
        return (self.frac_pure_x,
                self.frac_shared + self.frac_pure_w,
                self.frac_residual)


def partition_from_r2(r2_x: float, r2_w: float, r2_xw: float) -> PartitionResult:
    """Compose a two-block partition from the three explained fractions."""
    pure_x = r2_xw - r2_w
    pure_w = r2_xw - r2_x
    shared = r2_x + r2_w - r2_xw
    return PartitionResult(
        frac_pure_x=pure_x,
        frac_shared=shared,
        frac_pure_w=pure_w,
        frac_residual=1.0 - r2_xw,
        r2_x=r2_x,
        r2_w=r2_w,
        r2_xw=r2_xw,
    )


def _block_fractions(y, named_blocks, method: str) -> list[float]:
    """Explained fraction of ``y`` for each named predictor set.

    Each entry of ``named_blocks`` is ``(name, *parts)``; the parts are
    joined side by side into one predictor block, so a joint fit is written
    ``(name, x, w)``. ``rda`` gives the adjusted R2 of each block, adjusted
    by the rank of its centred columns. ``cca`` gives each block's share of
    chi-square inertia after all-zero sites and species are dropped (the
    bootstrap produces them routinely); fewer than 3 sites or 2 species
    left is degenerate. This is the one place where blocks are aligned,
    tables pruned and ranks taken.
    """
    if method not in ("cca", "rda"):
        raise ValidationError(f"unknown method {method!r}")
    ym = as_matrix(y)
    n = ym.shape[0]
    blocks = []
    for name, *parts in named_blocks:
        parts = [as_matrix(p) for p in parts]
        if any(p.shape[0] != n for p in parts):
            raise ValidationError("response and predictor blocks must share rows")
        blocks.append((name, parts[0] if len(parts) == 1 else np.hstack(parts)))
    if method == "cca":
        if not np.all(ym >= 0.0):
            raise ValidationError("table contains negative or non-finite entries")
        keep_rows = ym.sum(axis=1) > 0
        keep_cols = ym.sum(axis=0) > 0
        if int(keep_rows.sum()) < 3 or int(keep_cols.sum()) < 2:
            raise DegenerateDataError(
                f"only {int(keep_rows.sum())} non-empty sites and "
                f"{int(keep_cols.sum())} non-empty species remain")
        ym = ym[np.ix_(keep_rows, keep_cols)]
        return [cca_explained(ym, block[keep_rows])[2] for _, block in blocks]
    fractions = []
    for name, block in blocks:
        m = numerical_rank(center_columns(block))
        if n - m - 1 < 1:
            raise DegenerateDataError(
                f"block '{name}': no residual degrees of freedom "
                f"(n={n}, rank m={m})")
        fractions.append(adjusted_r2(rda_r2(ym, block), n, m))
    return fractions


def _partition(y, x, w, method: str) -> PartitionResult:
    """Fit ``x``, ``w`` and both together, then split by inclusion-exclusion."""
    x_name, w_name = getattr(x, "name", "X"), getattr(w, "name", "W")
    return partition_from_r2(*_block_fractions(
        y, [(x_name, x), (w_name, w), (f"{x_name}+{w_name}", x, w)], method))


def varpart_two(y, x, w) -> PartitionResult:
    """Adjusted-R2 variance partition of ``y`` between predictor blocks ``x``, ``w``.

    Fits the two blocks separately and jointly, adjusts each fit by its own
    block rank, and splits the joint fraction by inclusion-exclusion. A block
    with zero columns explains exactly nothing, so the partition collapses to
    the other block's fit.
    """
    return _partition(y, x, w, "rda")


def chi_square_transform(y):
    """Chi-square (correspondence) decomposition of a non-negative table.

    Returns ``(qbar, row_weights, col_weights, total_inertia)``. ``qbar``
    holds the standardised deviations from row-column independence of the
    proportion table; ``total_inertia`` is the sum of its squares, which
    equals the Pearson chi-square statistic divided by the grand total.
    """
    ym = as_matrix(y)
    if not np.all(np.isfinite(ym)):
        raise ValidationError("table contains non-finite entries")
    if np.any(ym < 0):
        raise ValidationError("table contains negative entries")
    total = float(ym.sum())
    if total <= 0.0:
        raise DegenerateDataError("table total must be positive")
    row_sums = ym.sum(axis=1)
    col_sums = ym.sum(axis=0)
    empty_rows = np.flatnonzero(row_sums == 0.0)
    empty_cols = np.flatnonzero(col_sums == 0.0)
    if empty_rows.size or empty_cols.size:
        raise DegenerateDataError(
            f"empty rows {empty_rows.tolist()} and empty columns "
            f"{empty_cols.tolist()} (all-zero lines carry no information)")
    p = ym / total
    r = row_sums / total
    c = col_sums / total
    expected = np.outer(r, c)
    qbar = (p - expected) / np.sqrt(expected)
    inertia = float(np.sum(qbar * qbar))
    return qbar, r, c, inertia


def cca_explained(y, x) -> tuple[float, float, float]:
    """Share of chi-square inertia captured by the predictor block.

    Returns ``(total_inertia, constrained_inertia, proportion)``. The
    predictors are centred under the table's row weights, scaled by the
    square root of those weights, and the standardised table is projected
    onto their span. A table with zero total inertia yields proportion 0.
    """
    ym = as_matrix(y)
    xm = as_matrix(x)
    if ym.shape[0] != xm.shape[0]:
        raise ValidationError(
            f"row mismatch: table has {ym.shape[0]} rows, design has {xm.shape[0]}")
    if not np.all(np.isfinite(xm)):
        raise ValidationError("design contains non-finite entries")
    qbar, r, _, total = chi_square_transform(ym)
    if total == 0.0:
        return 0.0, 0.0, 0.0
    xc = xm - r @ xm if xm.shape[1] else xm
    xw = np.sqrt(r)[:, np.newaxis] * xc
    fitted = xw @ _truncated_lstsq(xw, qbar)
    constrained = float(np.sum(fitted * fitted))
    constrained = min(max(constrained, 0.0), total)
    return total, constrained, constrained / total


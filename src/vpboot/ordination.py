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
    """Subtract each column's mean; adding the mean row back restores the input.

    A second pass removes the roundoff of the first mean, so a constant
    column centres to exactly 0 and has rank 0.
    """
    a = as_matrix(m)
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")
    if a.shape[0] < 1:
        raise ValidationError("cannot centre an empty matrix")
    centred = a - a.mean(axis=0, keepdims=True)
    return centred - centred.mean(axis=0, keepdims=True)


def numerical_rank(m) -> int:
    """Rank by singular values above ``SV_RCOND`` times the largest one."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > SV_RCOND * s[0]))


def _fitted_ss(xw: np.ndarray, yw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected sum of squares and rank for a stack of least-squares fits.

    ``xw`` is ``(k, n, q)`` and ``yw`` is ``(k, n, p)``. Fit ``i`` projects
    ``yw[i]`` onto the left singular vectors of ``xw[i]`` whose singular
    values exceed ``SV_RCOND`` times the largest; their count is the rank.
    Returns ``(fitted sum of squares (k,), rank (k,))``.
    """
    u, s, _ = np.linalg.svd(xw, full_matrices=False)
    keep = s > SV_RCOND * s[:, :1]
    projected = np.matmul(u.transpose(0, 2, 1), yw)
    fitted = (np.square(projected).sum(axis=2) * keep).sum(axis=1)
    return fitted, keep.sum(axis=1)


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
    fitted, _ = _fitted_ss(center_columns(xm)[np.newaxis], yc[np.newaxis])
    return min(max(float(fitted[0]) / total, 0.0), 1.0)


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


def _block_fractions(y, named_blocks, method: str, counts=None):
    """Explained fraction of ``y`` for each named predictor set, per replicate.

    Each entry of ``named_blocks`` is ``(name, *parts)``; the parts are
    joined side by side into one predictor block, so a joint fit is written
    ``(name, x, w)``. ``counts`` is a ``(k, n)`` matrix of site counts, one
    row per bootstrap replicate: a site drawn ``c`` times weighs as ``c``
    copies of its row, which is exactly the fit on the resampled table.
    Returns ``(fractions (k, n_blocks), degenerate (k,))``; a degenerate
    replicate's fractions are meaningless. Without ``counts`` the table is
    fitted once with unit weights and a degenerate fit raises
    ``DegenerateDataError``.

    ``rda`` gives the adjusted R2 of each block, adjusted by the rank of its
    weighted-centred columns with n the total count; no residual degrees of
    freedom is degenerate. ``cca`` gives each block's share of chi-square
    inertia over the live sites and species (a positive row or column sum);
    fewer than 3 live sites, copies counted, or 2 live species is
    degenerate. This is the one place where blocks are aligned, tables
    pruned and ranks taken.
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
    if not all(np.all(np.isfinite(b)) for _, b in blocks):
        raise ValidationError("design contains non-finite entries")
    c = np.ones((1, n)) if counts is None else np.asarray(counts, dtype=float)
    fit = _cca_fractions if method == "cca" else _rda_fractions
    return fit(ym, blocks, c, raise_degenerate=counts is None)


def _rda_fractions(ym, blocks, c, *, raise_degenerate: bool):
    """``_block_fractions`` for ``rda``: count-weighted adjusted R2."""
    if not np.all(np.isfinite(ym)):
        raise ValidationError("matrix contains non-finite entries")
    n = ym.shape[0]
    total_count = c.sum(axis=1)
    yw = _weighted_centre(ym, c, total_count)
    total = np.square(yw).reshape(len(c), -1).sum(axis=1)
    explains = total > 0.0
    fractions = np.zeros((len(c), len(blocks)))
    degenerate = np.zeros(len(c), dtype=bool)
    for i, (name, block) in enumerate(blocks):
        fitted, m = _fitted_ss(_weighted_centre(block, c, total_count), yw)
        df = total_count - m - 1
        short = df < 1
        if raise_degenerate and short[0]:
            raise DegenerateDataError(
                f"block '{name}': no residual degrees of freedom "
                f"(n={n}, rank m={int(m[0])})")
        if n < 3:
            raise ValidationError("need at least 3 rows")
        r2 = np.where(explains, np.clip(
            fitted / np.where(explains, total, 1.0), 0.0, 1.0), 0.0)
        fractions[:, i] = 1.0 - (1.0 - r2) * (total_count - 1) / np.where(
            short, 1.0, df)
        degenerate |= short
    return fractions, degenerate


def _weighted_sums(c, a) -> np.ndarray:
    """``c @ a`` computed one replicate (row of ``c``) at a time.

    A single matrix product may round a row differently depending on how
    many rows it has; per-row products keep a replicate's value independent
    of the chunk it was evaluated in.
    """
    return np.matmul(c[:, np.newaxis], a)[:, 0]


def _weighted_centre(a, c, total_count):
    """Columns of ``a`` centred under each row of count weights ``c``.

    Returns ``(k, n, q)``: replicate ``i`` holds the centred rows scaled by
    ``sqrt(c[i])``, so sums of squares count every copy. The second pass
    removes the roundoff of the first mean, so a column that is constant
    over the drawn sites centres to exactly 0 and adds no spurious rank.
    """
    scale = total_count[:, np.newaxis, np.newaxis]
    ac = a - np.matmul(c[:, np.newaxis], a) / scale
    ac -= np.matmul(c[:, np.newaxis], ac) / scale
    ac *= np.sqrt(c)[:, :, np.newaxis]
    return ac


def _cca_fractions(ym, blocks, c, *, raise_degenerate: bool):
    """``_block_fractions`` for ``cca``: weighted chi-square inertia shares."""
    if not np.all(ym >= 0.0):
        raise ValidationError("table contains negative or non-finite entries")
    # Empty sites and species are dead in every replicate; drop them once.
    row_sums = ym.sum(axis=1)
    rows = row_sums > 0
    cols = ym.sum(axis=0) > 0
    ym, row_sums, c = ym[np.ix_(rows, cols)], row_sums[rows], c[:, rows]
    blocks = [b[rows] for _, b in blocks]
    col_sums = _weighted_sums(c, ym)
    sites = c.sum(axis=1)
    species = np.count_nonzero(col_sums > 0, axis=1)
    degenerate = (sites < 3) | (species < 2)
    fractions = np.zeros((len(c), len(blocks)))
    if raise_degenerate and degenerate[0]:
        raise DegenerateDataError(
            f"only {int(sites[0])} non-empty sites and "
            f"{int(species[0])} non-empty species remain")
    if degenerate.all():
        return fractions, degenerate
    # qbar_ij = (y_ij / sqrt(R_i) - sqrt(R_i) C_j / T) / sqrt(C_j) for row
    # sums R, weighted column sums C and grand total T is the standardised
    # deviation of one copy of site i; a species no drawn site holds
    # contributes 0. Built in place: one (k, n, p) array per chunk.
    grand = _weighted_sums(c, row_sums)
    grand = np.where(grand > 0.0, grand, 1.0)
    root_rows = np.sqrt(row_sums)
    root_cols = np.sqrt(col_sums)
    qw = root_rows[:, np.newaxis] * (col_sums / grand[:, np.newaxis])[:, np.newaxis]
    np.subtract(ym / root_rows[:, np.newaxis], qw, out=qw)
    qw *= np.divide(1.0, root_cols, out=np.zeros_like(root_cols),
                    where=root_cols > 0.0)[:, np.newaxis]
    qw *= np.sqrt(c)[:, :, np.newaxis]
    total = np.einsum("knp,knp->k", qw, qw)
    # All live rows proportional (a resample of one site, say) leaves only
    # roundoff in qbar; a norm below the singular-value cutoff counts as 0.
    live = total > SV_RCOND ** 2
    mass = c * (row_sums / grand[:, np.newaxis])
    for i, block in enumerate(blocks):
        xw = block - _weighted_sums(mass, block)[:, np.newaxis]
        xw *= np.sqrt(mass)[:, :, np.newaxis]
        fitted, _ = _fitted_ss(xw, qw)
        constrained = np.minimum(np.maximum(fitted, 0.0), total)
        fractions[:, i] = np.where(
            live, constrained / np.where(live, total, 1.0), 0.0)
    return fractions, degenerate


def _log1p(table) -> np.ndarray:
    """``ln(1 + y)`` of a non-negative abundance table, checked first."""
    ym = as_matrix(table)
    if not np.all(ym >= 0.0):
        raise ValidationError("table contains negative or non-finite entries")
    return np.log1p(ym)


def _named_partition_blocks(x, w) -> list:
    x_name, w_name = getattr(x, "name", "X"), getattr(w, "name", "W")
    return [(x_name, x), (w_name, w), (f"{x_name}+{w_name}", x, w)]


def _partition(y, x, w, method: str) -> PartitionResult:
    """Fit ``x``, ``w`` and both together, then split by inclusion-exclusion."""
    fractions, _ = _block_fractions(y, _named_partition_blocks(x, w), method)
    return partition_from_r2(*(float(v) for v in fractions[0]))


def _rollups(counts, y, x, w, method: str):
    """Batched bootstrap statistic: the ``PartitionResult.rollup`` per replicate."""
    fractions, degenerate = _block_fractions(
        y, _named_partition_blocks(x, w), method, counts)
    r_x, r_w, r_xw = fractions.T
    # Same operations as partition_from_r2 and rollup, so values agree bitwise.
    rollup = np.column_stack([r_xw - r_w,
                              (r_x + r_w - r_xw) + (r_xw - r_x),
                              1.0 - r_xw])
    return rollup, degenerate


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
    fitted, _ = _fitted_ss(xw[np.newaxis], qbar[np.newaxis])
    constrained = min(max(float(fitted[0]), 0.0), total)
    return total, constrained, constrained / total


"""Core ordination statistics.

Linear (redundancy-style) and chi-square (correspondence-style) machinery:
column centring, rank-truncated least-squares projection, explained-variance
ratios with the small-sample adjustment, the two-block variance partition,
and the contingency-table decomposition behind constrained correspondence
analysis. The public helpers are the batched fit kernel's pieces
(``_block_fractions``) called with unit weights.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import (DEGENERATE_REASONS, FEW_SITES, FEW_SPECIES,
                     NO_RESIDUAL_DF, DegenerateDataError, ValidationError)
from .tables import as_matrix

#: Relative singular-value cutoff shared by rank decisions and
#: pseudo-inverse truncation.
SV_RCOND = 1e-10


def _weighted_centre(a, w, what: str = "matrix") -> np.ndarray:
    """Columns of ``(n, q)`` ``a`` centred under each row of ``(k, n)`` weights.

    Returns ``(k, n, q)``: replicate ``i`` holds the rows centred on their
    ``w[i]``-weighted mean and scaled by ``sqrt(w[i])``, so a site of count
    ``c`` adds ``c`` copies to every sum of squares. The second pass removes
    the roundoff of the first mean, so a column that is constant over the
    weighted rows centres to exactly 0 and adds no spurious rank. Zero total
    weight gives zeros. A weight total or a result sum of squares that is
    not finite (a non-finite entry, or values that overflow once summed,
    centred or squared) raises ``ValidationError``.
    """
    total = w.sum(axis=1)
    scale = np.where(total > 0.0, total, 1.0)[:, np.newaxis, np.newaxis]
    ac = a - np.matmul(w[:, np.newaxis], a) / scale
    ac -= np.matmul(w[:, np.newaxis], ac) / scale
    ac *= np.sqrt(w)[:, :, np.newaxis]
    # An infinite weight total would leave ``a`` uncentred; check it too.
    if not np.isfinite(np.vdot(ac, ac) + total.sum()):
        raise ValidationError(
            f"{what} contains non-finite entries or overflows once centred")
    return ac


def center_columns(m) -> np.ndarray:
    """Subtract each column's mean; adding the mean row back restores the input.

    A second pass removes the roundoff of the first mean, so a constant
    column centres to exactly 0 and has rank 0.
    """
    a = as_matrix(m)
    if a.shape[0] < 1:
        raise ValidationError("cannot centre an empty matrix")
    return _weighted_centre(a, np.ones((1, a.shape[0])))[0]


def _svd_basis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors of ``a`` (one matrix or a stack) and the mask of
    singular values above ``SV_RCOND`` times the largest: the package's one SVD.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, s > SV_RCOND * s[..., :1]


def numerical_rank(m) -> int:
    """Rank by singular values above ``SV_RCOND`` times the largest one."""
    return int(_svd_basis(as_matrix(m))[1].sum())


def _fitted_ss(xw: np.ndarray, yw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected sum of squares and rank for a stack of least-squares fits.

    Fit ``i`` projects ``yw[i]`` (``(k, n, p)``) onto the kept left singular
    vectors of ``xw[i]`` (``(k, n, q)``). Returns ``(fitted (k,), rank (k,))``.
    """
    u, keep = _svd_basis(xw)
    projected = np.matmul(u.transpose(0, 2, 1), yw)
    fitted = (np.square(projected).sum(axis=2) * keep).sum(axis=1)
    return fitted, keep.sum(axis=1)


def _fit_blocks(blocks, w, yw) -> tuple[np.ndarray, np.ndarray]:
    """Fitted sum of squares and rank, ``(k, n_blocks)`` each, of ``yw`` on
    every block centred under the weights ``w``."""
    fits = [_fitted_ss(_weighted_centre(b, w, "design"), yw) for b in blocks]
    return tuple(np.stack(v, axis=1) for v in zip(*fits))


def _aligned(y, x, what: str = "response"):
    ym, xm = as_matrix(y), as_matrix(x)
    if ym.shape[0] != xm.shape[0]:
        raise ValidationError(f"row mismatch: {what} has {ym.shape[0]} rows, "
                              f"design has {xm.shape[0]}")
    return ym, xm


def fit_projection(y, x, weights=None) -> np.ndarray:
    """Least-squares projection of each column of ``y`` onto the span of ``x``.

    Rank deficiency is handled by truncating singular values below
    ``SV_RCOND`` times the largest one; an effectively empty design gives
    the zero matrix. With ``weights`` (strictly positive, one per row) the
    projection minimises the weighted residual sum of squares.
    """
    ym, xm = _aligned(y, x)
    w = np.ones(ym.shape[0]) if weights is None else np.asarray(
        weights, dtype=float).reshape(-1)
    if w.shape[0] != ym.shape[0]:
        raise ValidationError("one weight per row required")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValidationError("weights must be finite and strictly positive")
    sw = np.sqrt(w)[:, np.newaxis]
    u, keep = _svd_basis(xm * sw)
    u = u * keep
    return u @ (u.T @ (ym * sw)) / sw


def _adjust(r2, n, df):
    """Small-sample adjustment with ``df`` residual degrees of freedom."""
    return 1.0 - (1.0 - r2) * (n - 1) / df


def adjusted_r2(r2: float, n: int, m: int) -> float:
    """Small-sample adjustment of an explained-variance fraction.

    ``m`` is the rank of the predictor block, not its raw column count.
    The result can be negative; callers should not clamp it, or additive
    partitions stop adding up.
    """
    if n - m - 1 < 1:
        raise DegenerateDataError(
            f"no residual degrees of freedom (n={n}, predictor rank m={m})")
    return _adjust(float(r2), n, n - m - 1)


def _rda_r2(ym, blocks, c) -> tuple[np.ndarray, np.ndarray]:
    """Count-weighted R2 and rank of each block, ``(k, n_blocks)`` each.

    A response with zero total sum of squares has nothing to explain and
    gets 0; R2 is clipped to [0, 1] against roundoff.
    """
    yw = _weighted_centre(ym, c)
    total = np.square(yw).reshape(len(c), -1).sum(axis=1)[:, np.newaxis]
    fitted, rank = _fit_blocks(blocks, c, yw)
    explains = total > 0.0
    r2 = np.where(explains, np.clip(
        fitted / np.where(explains, total, 1.0), 0.0, 1.0), 0.0)
    return r2, rank


def rda_r2(y, x) -> float:
    """Fraction of the total column-centred sum of squares captured by ``x``.

    Both matrices are centred first, so the fit behaves as if an intercept
    were included. A response with zero total sum of squares has nothing to
    explain and yields 0. The result is clipped to [0, 1] against roundoff.
    """
    ym, xm = _aligned(y, x)
    if ym.shape[0] < 3:
        raise ValidationError("need at least 3 rows")
    r2, _ = _rda_r2(ym, [xm], np.ones((1, ym.shape[0])))
    return float(r2[0, 0])


def _split(r_x, r_w, r_xw):
    """Pure x, shared, pure w and residual fractions (floats or arrays),
    in ``PartitionResult`` field order."""
    return r_xw - r_w, r_x + r_w - r_xw, r_xw - r_x, 1.0 - r_xw


def _rollup(pure_x, shared, pure_w, residual):
    """(pure first block, second block including shared, residual)."""
    return pure_x, shared + pure_w, residual


@dataclass(frozen=True)
class PartitionResult:
    """Two-block decomposition of explained variance.

    ``frac_pure_x`` + ``frac_shared`` + ``frac_pure_w`` equals ``r2_xw`` and
    ``frac_residual`` equals ``1 - r2_xw``; both identities, and that every
    field is finite, are enforced at construction. Individual fractions may
    legitimately be negative because the small-sample adjustment is not
    monotone under block union.
    """

    frac_pure_x: float
    frac_shared: float
    frac_pure_w: float
    frac_residual: float
    r2_x: float
    r2_w: float
    r2_xw: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValidationError("partition fractions must be finite")
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
        return _rollup(self.frac_pure_x, self.frac_shared, self.frac_pure_w,
                       self.frac_residual)


def partition_from_r2(r2_x: float, r2_w: float, r2_xw: float) -> PartitionResult:
    """Compose a two-block partition from the three explained fractions."""
    return PartitionResult(*_split(r2_x, r2_w, r2_xw), r2_x, r2_w, r2_xw)


def _as_array(data) -> np.ndarray:
    """``as_matrix``, except that a 3-D stack of matrices passes as it is."""
    if isinstance(data, np.ndarray) and data.ndim == 3:
        return data.astype(float, copy=False)
    return as_matrix(data)


def _block_fractions(y, named_blocks, method: str, counts=None):
    """Explained fraction of ``y`` for each named predictor set, per replicate.

    Each entry of ``named_blocks`` is ``(name, *parts)``; the parts are
    joined side by side into one predictor block, so a joint fit is written
    ``(name, x, w)``. A replicate is one of two kinds:

    - a bootstrap resample: ``counts`` is a ``(k, n)`` matrix of site
      counts, one row per replicate of the one ``(n, S)`` table ``y``. A
      site drawn ``c`` times weighs as ``c`` copies of its row, which is
      exactly the fit on the resampled table.
    - a table fitted once with unit weights (``counts`` None): ``y`` is one
      ``(n, S)`` table or a ``(k, n, S)`` stack of tables with every part
      stacked alike as ``(k, n, q)``. Row ``i`` of a stack is the unit fit
      of table ``i``, bit for bit, when each part has that table's memory
      layout (a column slice stays a strided view).

    Returns ``(fractions (k, n_blocks), reasons (k,))``: a nonzero reason
    is a code of ``errors.DEGENERATE_REASONS`` and marks a replicate whose
    fractions are meaningless. Unit fits raise instead: the first
    degenerate table raises the ``DegenerateDataError`` of its unit fit.

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
    ym = _as_array(y)
    blocks = []
    for name, *parts in named_blocks:
        parts = [_as_array(p) for p in parts]
        if any(p.shape[:-1] != ym.shape[:-1] for p in parts):
            raise ValidationError("response and predictor blocks must share rows")
        blocks.append((name, parts[0] if len(parts) == 1
                       else np.concatenate(parts, axis=-1)))
    if counts is None:
        c = np.ones(ym.shape[:2] if ym.ndim == 3 else (1, ym.shape[0]))
    else:
        c = np.asarray(counts, dtype=float)
    fit = _cca_fractions if method == "cca" else _rda_fractions
    # Overflow ends in _weighted_centre's ValidationError, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return fit(ym, blocks, c, raise_degenerate=counts is None)


def _rda_fractions(ym, blocks, c, *, raise_degenerate: bool):
    """``_block_fractions`` for ``rda``: count-weighted adjusted R2."""
    n = ym.shape[-2]
    r2, rank = _rda_r2(ym, [block for _, block in blocks], c)
    total_count = c.sum(axis=1)[:, np.newaxis]
    df = total_count - rank - 1
    short = df < 1
    # A unit fit whose first block is short reports that before the size.
    if n < 3 and not (raise_degenerate and short[0, :1].any()):
        raise ValidationError("need at least 3 rows")
    reasons = np.where(short.any(axis=1), NO_RESIDUAL_DF, 0)
    if raise_degenerate and reasons.any():
        row = np.flatnonzero(reasons)[0]
        i = int(np.argmax(short[row]))
        raise DegenerateDataError(
            f"block '{blocks[i][0]}': {DEGENERATE_REASONS[NO_RESIDUAL_DF]} "
            f"(n={n}, rank m={int(rank[row, i])})")
    return _adjust(r2, total_count, np.where(short, 1.0, df)), reasons


def _weighted_sums(c, a) -> np.ndarray:
    """``c @ a`` computed one replicate (row of ``c``) at a time.

    A single matrix product may round a row differently depending on how
    many rows it has; per-row products keep a replicate's value independent
    of the chunk it was evaluated in.
    """
    return np.matmul(c[:, np.newaxis], a)[:, 0]


def _chi_square(ym, c):
    """Standardised chi-square deviations of each count-weighted table.

    ``ym`` is one ``(n, p)`` table or a ``(k, n, p)`` stack, one table per
    row of ``c``. A site of row sum ``R`` drawn ``c`` times weighs ``c R``.
    qbar is the row profiles ``y / R`` centred and scaled under those
    weights (their mean is ``C / T`` for weighted column sums ``C`` and
    total ``T``), then divided by the root of ``C``; a species no drawn
    site holds gives 0.
    Returns ``(qbar (k, n, p), site weights (k, n), species sums (k, p))``.
    """
    row_sums = ym.sum(axis=-1)
    site_weights = c * row_sums
    species_sums = _weighted_sums(c, ym)
    qw = _weighted_centre(ym / row_sums[..., np.newaxis], site_weights, "table")
    root = np.sqrt(species_sums)
    qw *= np.divide(1.0, root, out=np.zeros_like(root),
                    where=root > 0.0)[:, np.newaxis]
    return qw, site_weights, species_sums


def _inertia_shares(qw, site_weights, blocks):
    """Total inertia ``(k,)``, constrained inertia and share ``(k, n_blocks)``.

    All live rows proportional (a resample of one site, say) leaves only
    roundoff in qbar; a total below the squared singular-value cutoff
    counts as 0 and explains nothing.
    """
    total = np.einsum("knp,knp->k", qw, qw)[:, np.newaxis]
    fitted, _ = _fit_blocks(blocks, site_weights, qw)
    constrained = np.minimum(np.maximum(fitted, 0.0), total)
    live = total > SV_RCOND ** 2
    return total[:, 0], constrained, np.where(
        live, constrained / np.where(live, total, 1.0), 0.0)


def _cca_fractions(ym, blocks, c, *, raise_degenerate: bool):
    """``_block_fractions`` for ``cca``: weighted chi-square inertia shares.

    Empty sites and species are pruned, table by table in a stack. Each
    table is then scaled by the power of 4 that puts its largest entry in
    [1/2, 2). The profiles and the mean profile keep their bits, the
    weights scale exactly and their square roots by an exact power of 2,
    so the shares do not move, and no count-weighted total overflows once
    the table's own total is finite. The exception is a table whose
    entries span more than the float range: entries that become subnormal
    when scaled lose low bits, which moves the shares at roundoff level,
    and a site whose entries all underflow to 0 ends in
    ``_weighted_centre``'s ``ValidationError``.
    """
    if not np.all(ym >= 0.0):
        raise ValidationError("table contains negative or non-finite entries")
    row_sums = ym.sum(axis=-1)
    if not np.all(np.isfinite(row_sums.sum(axis=-1))):
        raise ValidationError(
            "table contains non-finite entries or overflows once summed")
    rows, cols = row_sums > 0, ym.sum(axis=-2) > 0
    if ym.ndim == 3 and not (rows.all() and cols.all()):
        # Prune each table of the stack on its own, as its unit fit does.
        fits = [_cca_fractions(t, [(name, b[i]) for name, b in blocks],
                               c[i:i + 1], raise_degenerate=raise_degenerate)
                for i, t in enumerate(ym)]
        return tuple(np.concatenate(v) for v in zip(*fits))
    if ym.ndim == 2:
        # Empty sites and species are dead in every replicate; drop them once.
        ym, c = ym[np.ix_(rows, cols)], c[:, rows]
        blocks = [(name, b[rows]) for name, b in blocks]
    else:  # Nothing to prune; copy the blocks as pruning does, for the bits.
        blocks = [(name, np.ascontiguousarray(b)) for name, b in blocks]
    _, exponent = np.frexp(ym.max(axis=(-2, -1), initial=0.0, keepdims=True))
    qw, site_weights, species_sums = _chi_square(
        np.ldexp(ym, -2 * (exponent // 2)), c)
    sites = c.sum(axis=1)
    species = np.count_nonzero(species_sums > 0, axis=1)
    reasons = np.where(sites < 3, FEW_SITES,
                       np.where(species < 2, FEW_SPECIES, 0))
    if raise_degenerate and reasons.any():
        row = np.flatnonzero(reasons)[0]
        raise DegenerateDataError(
            f"only {int(sites[row])} non-empty sites and "
            f"{int(species[row])} non-empty species remain")
    _, _, shares = _inertia_shares(qw, site_weights, [b for _, b in blocks])
    return shares, reasons


def _log1p(table) -> np.ndarray:
    """``ln(1 + y)`` of a non-negative table or stack, checked first."""
    ym = _as_array(table)
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
    fractions, reasons = _block_fractions(
        y, _named_partition_blocks(x, w), method, counts)
    return np.column_stack(_rollup(*_split(*fractions.T))), reasons


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
    qbar = _chi_square(ym, np.ones((1, ym.shape[0])))[0][0]
    return qbar, row_sums / total, col_sums / total, float(np.sum(qbar * qbar))


def cca_explained(y, x) -> tuple[float, float, float]:
    """Share of chi-square inertia captured by the predictor block.

    Returns ``(total_inertia, constrained_inertia, proportion)``. The
    predictors are centred under the table's row weights, scaled by the
    square root of those weights, and the standardised table is projected
    onto their span. A table with zero total inertia yields proportion 0.
    """
    ym, xm = _aligned(y, x, "table")
    qbar, r, _, _ = chi_square_transform(ym)
    total, constrained, share = _inertia_shares(
        qbar[np.newaxis], r[np.newaxis], [xm])
    return float(total[0]), float(constrained[0, 0]), float(share[0, 0])

"""Core ordination statistics.

Linear (redundancy-style) and chi-square (correspondence-style) variance
partitioning. One batched fit kernel, ``_block_fractions`` (unit fits) and
``_Plan`` (a bootstrap's count-weighted fits), gives every reported
quantity: each predictor block's adjusted R2 for RDA and its share of
chi-square inertia for CCA. Both share one front end: ``_response``,
``_root_weights`` and ``_fractions``.
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


def _weighted_centre(a, w, what: str | None = "matrix") -> np.ndarray:
    """Columns of a table or stack ``a`` centred under each row of ``w``.

    Returns ``(k, n, q)``: replicate ``i`` holds the rows centred on their
    ``w[i]``-weighted mean and scaled by ``sqrt(w[i])``, so a site of count
    ``c`` adds ``c`` copies to every sum of squares. The second pass removes
    the roundoff of the first mean, so a column that is constant over the
    weighted rows centres to exactly 0 and adds no spurious rank. Zero total
    weight gives zeros. A replicate's weight total or result sum of
    squares that is not finite (a non-finite entry, or values that
    overflow once summed, centred or squared) raises ``ValidationError``
    naming ``what``; with ``what`` None the caller checks the sums it
    forms from the result.

    The passes run on the transposed ``(k, q, n)`` layout, along the sites,
    and the result is a view of it: broadcast along a last axis of only a
    few columns, the same passes took up to 7x as long (an 80-replicate
    stack of a 2-column design).
    """
    total = w.sum(axis=1)
    scale = np.where(total > 0.0, total, 1.0)[:, np.newaxis, np.newaxis]
    wc = w[:, :, np.newaxis]
    at = np.ascontiguousarray(np.swapaxes(a, -1, -2))
    ac = at - np.matmul(at, wc) / scale
    ac -= np.matmul(ac, wc) / scale
    ac *= np.sqrt(w)[:, np.newaxis, :]
    # An infinite weight total would leave ``a`` uncentred; check it too.
    # Row by row: a chunk's sum can overflow where no replicate's own does.
    if what is not None and not np.isfinite(
            np.einsum("kqn,kqn->k", ac, ac) + total).all():
        raise ValidationError(
            f"{what} contains non-finite entries or overflows once centred")
    return np.swapaxes(ac, -1, -2)


def _svd_basis(a: np.ndarray):
    """Left singular vectors of ``a`` (one matrix or a stack), the mask of
    singular values above ``SV_RCOND`` times the largest, and the singular
    values: the package's one SVD.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, s > SV_RCOND * s[..., :1], s


def _weighted_sums(c, a) -> np.ndarray:
    """``c @ a`` computed one replicate (row of ``c``) at a time.

    A single matrix product may round a row differently depending on how
    many rows it has; per-row products keep a replicate's value independent
    of the chunk it was evaluated in. ``a`` is one matrix or a stack of one
    matrix shared by every row of ``c`` or one per row.
    """
    return np.matmul(c[:, np.newaxis], a)[:, 0]


def _response(ym, designs, method: str):
    """``(r, R, ym, designs, sites)`` of the checked ``(T, n, p)`` stack
    ``ym``: the response ``r``, uncentred, and the factors ``R`` ``(T, n)``
    that turn counts ``c`` into site weights ``w = c R``.

    ``rda`` fits the table's columns with ``R = 1``. For ``cca`` this is the
    one place that checks (``_cca_live``), prunes and scales (``_cca_scaled``)
    a table: the sites and species that every table leaves empty are
    dropped from ``ym`` and ``designs``, and ``r`` is the row profiles ``y /
    R`` for the row sums ``R``. ``sites`` masks the kept sites, None when
    all are.
    """
    if method == "rda":
        return ym, np.ones(ym.shape[:2]), ym, designs, None
    rows, cols = (live.any(axis=0) for live in _cca_live(ym))
    ym, designs = _cca_scaled(ym, designs, rows, cols)
    row_sums = ym.sum(axis=-1)
    return (ym / row_sums[..., np.newaxis], row_sums, ym, designs,
            None if rows.all() else rows)


def _root_weights(s) -> np.ndarray:
    """Root species weights ``h = 1 / sqrt(s)`` of species sums ``s``, 0 where
    ``s = 0``: ``cca`` deviations scaled by ``h`` are the standardised
    chi-square deviations. Unlike ``1 / s``, ``h`` is finite for a subnormal
    ``s``."""
    h = np.sqrt(s)
    np.divide(1.0, h, out=h, where=h > 0.0)
    return h


def _take(a, rows) -> np.ndarray:
    """Rows ``rows`` (sorted, distinct) of stack ``a``: ``a`` itself, not a
    copy, when it is one shared table or ``rows`` are all of its rows."""
    return a if len(a) == 1 or len(rows) == len(a) else a[rows]


def _deviations(r, w, h, what: str) -> np.ndarray:
    """``r`` centred under each row of ``w`` by two passes, rows scaled by
    ``sqrt(w)`` and columns by ``h``: ``(k, n, p)``, one per row."""
    dw = _weighted_centre(r, w, what)
    dw *= h[:, np.newaxis]
    return dw


def _svd_route(r, w, h, blocks, svd, method: str):
    """The SVD route of the rows of ``w``: each row's two-pass centring of
    ``r`` (``_deviations``), its total, and its projection on its own
    weighted SVD of each block that ``svd`` ``(k, n_blocks)`` marks
    (``_svd_fit``; fitted sums and ranks are 0 elsewhere).

    Replicate ``i`` weighs the sites by ``w[i]`` and the columns by ``g =
    h[i]^2``. A response constant over the drawn sites reads exactly 0, and
    only a replicate whose own centred sums overflow raises
    ``ValidationError``. Returns ``(total (k,), fitted (k, n_blocks), rank
    (k, n_blocks))``.
    """
    dev = _deviations(r, w, h, "table" if method == "cca" else "matrix")
    fitted, rank = np.zeros(svd.shape), np.zeros(svd.shape, dtype=np.intp)
    for j, block in enumerate(blocks):
        rows = np.flatnonzero(svd[:, j])
        if rows.size:
            fitted[rows, j], rank[rows, j] = _svd_fit(
                _take(dev, rows), _take(w, rows), _take(block, rows))
    return np.square(dev).reshape(len(w), -1).sum(axis=1), fitted, rank


def _svd_fit(own, w, block):
    """Fitted sum of squares and rank ``(k,)`` of one block: each row's own
    deviations ``own`` (``_deviations``) projected on the kept left
    singular vectors of its weighted-centred design."""
    u, keep, _ = _svd_basis(_weighted_centre(block, w, "design"))
    u = np.ascontiguousarray(np.swapaxes(u, 1, 2))  # (k, r, n): along the sites
    projected = np.matmul(u, own)
    return ((np.square(projected).sum(axis=2) * keep).sum(axis=1),
            keep.sum(axis=1))


#: Unit singular values between these multiples of the largest leave a
#: block's count-weighted rank in doubt: below the band a direction is an
#: exact dependence, which reweighting keeps, and above it a kept direction
#: stands far clear of ``SV_RCOND``.
_RANK_BAND = (1e-13, 1e-4)

#: Largest condition number of a row's Gram matrix that ``_gram_fit``
#: certifies; its smallest eigenvalue must also reach ``W / n`` over this.
_GRAM_CONDITION = 1e3


def _in_rank_band(s) -> bool:
    """Whether a singular value of ``s`` (largest first) lies in
    ``_RANK_BAND`` of the largest."""
    low, high = _RANK_BAND
    return bool(np.any((s > low * s[:1]) & (s < high * s[:1])))


def _shared_bases(designs):
    """One union basis of a plan's designs and each design's place in it.

    ``Q`` ``(n, r)`` is the kept left singular vectors of every design's
    unit-centred columns side by side, or None when the Gram route may fit
    no row of any block: the union is not finite, or one of its singular
    values lies in ``_RANK_BAND`` of the largest. Per design, the entry is
    None when that design takes the SVD route, else ``A^T`` ``(r_b, r)``
    with ``Q_b = Q A``, the design's own kept left singular vectors: ``A``
    comes from the small SVD of ``Q^T X`` for its unit-centred ``X``, whose
    singular values give the design's own rank-band verdict. A design that
    lies outside ``span Q`` by more than the band's lower edge of its own
    largest singular value (one far smaller than the rest, which the
    union's cutoff drops) takes the SVD route too. A design whose rank is
    ``r``, such as the only design with columns, fits in ``Q`` itself: its
    entry is the identity.
    """
    centred = [_weighted_centre(block, np.ones(block.shape[:2]), None)[0]
               for block in designs]
    union = np.hstack(centred)
    if not np.isfinite(np.square(union).sum()):
        return None, [None] * len(designs)
    u, keep, s = _svd_basis(union)
    if _in_rank_band(s):
        return None, [None] * len(designs)
    q = u[:, keep]
    bases = []
    for a in centred:
        fold = np.eye(q.shape[1])
        if a.shape[1] < union.shape[1]:  # else the union, with its verdict
            inside = q.T @ a
            v, own, sv = _svd_basis(inside)
            outside = np.square(a - q @ inside).sum()
            if _in_rank_band(sv) or outside > np.square(
                    _RANK_BAND[0] * sv[:1]).sum():
                fold = None
            elif own.sum() < q.shape[1]:
                fold = np.ascontiguousarray(v[:, own].T)
        bases.append(fold)
    return q, bases


class _Plan:
    """A count-weighted fit of one table, less its counts.

    Built once per table, it holds everything the fit does not need the
    counts for: from ``_response``, the checked table (for ``cca`` pruned
    of empty sites and species and scaled by a power of 4), the response
    ``r`` (the table, or its row profiles) and the site factors ``R`` that
    turn counts into site weights ``w = c R`` (ones, or the row sums);
    ``d``, ``r`` centred with unit counts; the union basis
    ``Q`` ``(n, r)`` of all blocks and per block its ``A^T``
    (``_shared_bases``). Its moment matrix ``(n, m)`` holds per site ``R``,
    ``R d``, ``R d^2``, for ``cca`` the table ``y`` (the species sums), and,
    when there is a union basis, ``R Q``, ``R q_i q_j`` for ``i <= j`` and
    per block ``R |x|^2``: ``m <= 1 + 3p + r (r + 3) / 2 + n_blocks`` for
    ``p`` table columns, and no ``n x r x p`` product.

    ``fit(counts)`` then reads every count-weighted sum but the cross
    products from one per-row product with that matrix (``explained``).
    A bootstrap's statistic (``_planned``) builds one on its first call
    and keeps it across the chunks and redraws.
    """

    def __init__(self, y, named_blocks, method: str):
        ym, blocks = _stacks(y, named_blocks, method)
        self.method = method
        with np.errstate(over="ignore", invalid="ignore"):
            r, factor, ym, designs, self.sites = _response(
                ym, [block for _, block in blocks], method)
            d = _weighted_centre(r, np.ones(r.shape[:2]), None)[0]
            factor = factor[0][:, np.newaxis]
            columns = [factor, factor * d, factor * np.square(d)]
            if method == "cca":
                columns.append(ym[0])
            q, self.bases = _shared_bases(designs)
            self.union = None
            if q is not None:
                upper = np.triu_indices(q.shape[1])
                start = sum(column.shape[1] for column in columns)
                self.union = (np.ascontiguousarray((factor * q).T), upper,
                              start)
                columns += [factor * q,
                            factor * (q[:, upper[0]] * q[:, upper[1]])]
                at = start + q.shape[1] + len(upper[0])
                self.bases = [None if fold is None else (fold, at + b)
                              for b, fold in enumerate(self.bases)]
                columns += [factor * np.square(block[0]).sum(
                    axis=1, keepdims=True) for block in designs]
        self.r, self.d, self.factor, self.designs = r, d, factor[:, 0], designs
        self.moments = np.hstack(columns)

    def fit(self, counts):
        """``_block_fractions`` under each row of the ``(k, n)`` ``counts``:
        ``(fractions, reasons)``, a nonzero reason for a degenerate row."""
        c = np.asarray(counts, dtype=float)
        if self.sites is not None:
            c = c[:, self.sites]
        with np.errstate(over="ignore", invalid="ignore"):
            total, fitted, rank, w, h = self.explained(c)
            return _fractions(self.method, total, fitted, rank, c, self.r, w, h)

    def explained(self, c):
        """Total and fitted sums of squares of the response under the
        ``(k, n)`` float counts ``c``: ``(total, fitted, rank, w, h)``, with
        site weights ``w = c R`` and root species weights ``h``
        (``_root_weights``).

        Each (row, block) pair takes one of two routes, each with one
        response. The Gram route (``_gram_fit``) fits ``d`` from the
        chunk's one union system (``_union_system``); the row's total is
        ``sum_j g_j (sum_i w_i d_ij^2 - W delta_j^2)`` for the weight total
        ``W`` and weighted column means ``delta``. The SVD route
        (``_svd_route``) takes every row the Gram fit leaves, and every row
        whose ``d`` total cancels below half of ``sum g w d^2`` or whose
        sums are not finite. Those last rows take their total from their
        own centring, as a table fitted on its own would: the roundoff of a
        unit mean far from the replicate's (an outlier site it did not
        draw) does not reach it. Every product is taken one replicate at a
        time, so a replicate keeps its bits in any chunk.
        """
        sums = _weighted_sums(c, self.moments)
        p = self.d.shape[1]
        weight = sums[:, 0]
        mean = sums[:, 1:p + 1] / np.where(
            weight > 0.0, weight, 1.0)[:, np.newaxis]
        squares = sums[:, p + 1:2 * p + 1]
        h = (_root_weights(sums[:, 2 * p + 1:3 * p + 1]) if self.method == "cca"
             else np.ones((len(c), p)))
        g = h * h
        raw = (squares * g).sum(axis=1)
        total = ((squares - weight[:, np.newaxis] * np.square(mean))
                 * g).sum(axis=1)
        own = ~np.isfinite(raw + weight) | (total < 0.5 * raw)
        gram, cross = _union_system(self.union, sums, c, self.d, weight, mean)
        fitted, rank, ok = (np.stack(v, axis=1) for v in zip(*(
            _gram_fit(basis, gram, cross, sums, g, weight, len(self.d))
            for basis in self.bases)))
        del gram, cross
        svd = own[:, np.newaxis] | ~ok
        w = c * self.factor if self.method == "cca" else c  # after the peak
        rows = np.flatnonzero(svd.any(axis=1))
        if rows.size:
            pick = svd[rows]
            own_total, own_fitted, own_rank = _svd_route(
                self.r, w[rows], h[rows], self.designs, pick, self.method)
            total[rows] = np.where(own[rows], own_total, total[rows])
            fitted[rows] = np.where(pick, own_fitted, fitted[rows])
            rank[rows] = np.where(pick, own_rank, rank[rows])
        return total, fitted, rank, w, h


def _union_system(union, sums, c, d, weight, mean):
    """The centred Gram matrices ``G`` ``(k, r, r)`` and cross products
    ``B`` ``(k, r, p)`` of the union basis ``Q`` under the ``(k, n)``
    counts ``c``, or ``(None, None)`` without a union (``_Plan.union``).

    With ``s = Q^T w`` (``w`` the site weights), ``G = Q^T diag(w) Q - s
    s^T / W`` and ``B = Q^T diag(w) d - s delta^T``. ``s`` and ``G`` come
    from the rows' products ``sums`` with the plan's moment matrix; ``B``
    takes one per-row product per union column, the chunk's only products
    with ``d``, which every block's fit (``_gram_fit``) shares.
    """
    if union is None:
        return None, None
    weighted, (i, j), start = union
    k, r = len(c), len(weighted)
    s1 = sums[:, start:start + r]
    gram = np.empty((k, r, r))
    gram[:, i, j] = gram[:, j, i] = sums[:, start + r:start + r + len(i)]
    cross = np.empty((k, r, d.shape[-1]))
    scaled = np.empty_like(c)  # a row holds one weighted column at a time
    for at, column in enumerate(weighted):
        np.copyto(scaled, column)  # then in place: no broadcast buffer
        scaled *= c
        cross[:, at] = _weighted_sums(scaled, d)
        cross[:, at] -= s1[:, at, np.newaxis] * mean
    scale = np.where(weight > 0.0, weight, 1.0)[:, np.newaxis]
    gram -= s1[:, :, np.newaxis] * (s1 / scale)[:, np.newaxis]
    return gram, cross


def _gram_fit(basis, gram, cross, sums, g, weight, n: int):
    """Fitted sums of squares and ranks ``(k,)`` of one block from the
    chunk's union system ``gram``, ``cross`` (``_union_system``), and the
    mask ``(k,)`` of the rows it fitted: ``_Plan.explained`` leaves the
    rest to the SVD route.

    ``basis`` is the block's entry of ``_Plan.bases``: None, or its ``A^T``
    (square only for ``A = I``) and the column of ``sums`` that holds its
    sizes. Reweighting only drops or repeats sites, so every row's
    weighted-centred design lies in the span of the ``r_b`` columns of its
    unit basis ``Q A``, and has rank at most ``r_b``. The block's Gram
    matrix is ``G_b = A^T G A = L L^T`` and its cross products ``A^T B``;
    a row fits ``sum_j g_j |L^{-1} A^T b_j|^2 = sum_j g_j b_j^T A G_b^{-1}
    A^T b_j`` with rank ``r_b``, and ``A^T`` enters the small left factor,
    so no ``(k, r_b, p)`` cross products are built.

    ``L^{-1}`` is built one row at a time: row ``i`` of ``L`` is ``l =
    L^{-1}[:i, :i] G_b[:i, i]`` and its pivot ``G_b[i, i] - |l|^2``. A
    pivot that is not positive (or is NaN) is taken as 1, so the pass never
    raises, and leaves its row to the SVD route. ``|L^{-1}|_F^2 = tr
    G_b^{-1}`` bounds ``1 / lambda_min`` and ``tr G_b`` bounds
    ``lambda_max``, so a row with ``tr G_b tr G_b^{-1}`` at most half of
    ``_GRAM_CONDITION`` and ``2 W tr G_b^{-1}`` at most ``_GRAM_CONDITION
    n`` has a condition number of at most ``_GRAM_CONDITION`` and a
    smallest eigenvalue of at least ``W / n`` over it, with a factor 2 to
    spare for roundoff. Forming ``G`` squares the condition number, so the
    SVD stays the rank authority and takes:

    - every row, when the block has no basis (None: a union or design that
      is not finite or in the rank band, or a design outside ``span Q``);
    - a row outside that certificate (such as a column constant over the
      drawn sites, whose pivot is 0);
    - a row whose ``sum w |x|^2`` over the design's rows is not finite,
      which bounds every sum the SVD route forms (it raises on overflow).

    A row whose rank is provably ``r_b`` keeps it: the band keeps the unit
    singular values ``1e4`` above ``SV_RCOND`` and the spread costs at most
    a factor ``sqrt(_GRAM_CONDITION)``.
    """
    k = len(weight)
    fitted, rank = np.zeros(k), np.zeros(k, dtype=np.intp)
    if basis is None:
        return fitted, rank, np.zeros(k, dtype=bool)
    left, at = basis
    r = len(left)
    if not r:  # a design constant over the sites fits nothing
        return fitted, rank, np.ones(k, dtype=bool)
    if r < left.shape[1]:
        gram = np.matmul(np.matmul(left, gram), left.T)
    else:
        left = None
    ok = (weight > 0.0) & np.isfinite(sums[:, at])
    inverse = np.zeros_like(gram)
    for i in range(r):
        head = inverse[:, :i, :i]
        row = np.matmul(head, gram[:, :i, i, np.newaxis])[:, :, 0]
        pivot = gram[:, i, i] - np.square(row).sum(axis=1)
        positive = pivot > 0.0
        ok &= positive
        scale = 1.0 / np.sqrt(np.where(positive, pivot, 1.0))
        inverse[:, i, i] = scale
        scale *= -1.0  # row i of L^{-1} is -l^T L^{-1}[:i, :i] / L_ii
        np.multiply(np.matmul(row[:, np.newaxis], head)[:, 0],
                    scale[:, np.newaxis], out=inverse[:, i, :i])
    bound = np.square(inverse).sum(axis=(1, 2))
    ok &= ((np.trace(gram, axis1=1, axis2=2) * bound <= _GRAM_CONDITION / 2)
           & (2.0 * weight * bound <= _GRAM_CONDITION * n))
    if left is not None:
        inverse = np.matmul(inverse, left)  # L^{-1} A^T: no (k, r_b, p) A^T B
    z = np.matmul(inverse, cross)
    np.square(z, out=z)
    fitted[ok] = _weighted_sums(g, np.swapaxes(z, 1, 2)).sum(axis=1)[ok]
    rank[ok] = r
    return fitted, rank, ok


def _replicate_values(n_sites: int, n_species: int, n_block_columns: int) -> int:
    """Float64 values the fit kernel holds per count row of a bootstrap.

    The table, its response and the union basis enter once per bootstrap
    (``_Plan``), not once per chunk. Per replicate the Gram route holds the
    count row, its float copy and one weighted basis column (``3n`` for
    ``n`` sites); its moment row (at most ``3p + q (q + 3) / 2 + 4`` for
    ``p`` table columns and ``q`` block columns, the joint block having
    ``q`` and the union rank ``r <= q``); the means, root species weights
    and their squares (``3p``); the union's cross products with the
    response and its Gram matrix (``q (p + q)``), which stay held across
    the blocks' fits; and the larger peak of one block's fit. A block of
    rank ``b`` fits from ``G_b`` and holds ``L^{-1}`` (``b^2``): beside
    it, one row of ``L`` and its products while it is built, its square
    for the bound (``b^2``), then ``L^{-1}`` with ``A^T`` folded in as it
    forms (``b q``), and last that fold, the image of the cross products
    under it and the spreads (``b (q + p + 1)``). For ``A = I`` (``b =
    r``) ``G_b`` is the union's and the fold is ``L^{-1}`` itself, so the
    peak is ``max(q (p + q), 2q^2) + q``; any other block has ``b <= q -
    1``, so its fold outgrows the square, and it holds its own ``G_b``
    (``b^2``) as well: ``b^2 + b (q + max(b, p + 1))``.
    The CCA site weights (``n``) are formed after the Gram fits, when
    those are gone. A row that takes the SVD route (``_svd_route``) holds
    its own ``n x p`` deviations, its weighted design and its singular
    vectors, up to ``(p + 3q) x n`` more; no analyze-benchmark row leaves
    the Gram route, so the chunk rule counts only that route.
    """
    p, q = n_species, n_block_columns
    moments = 3 * p + q * (q + 3) // 2 + 4
    b = max(q - 1, 0)
    fit = max(max(q * (p + q), 2 * q * q) + q,
              b * b + b * (q + max(b, p + 1)))
    return 3 * n_sites + moments + 3 * p + q * (p + q) + fit


def _adjust(r2, n, df):
    """Small-sample adjustment with ``df`` residual degrees of freedom."""
    return 1.0 - (1.0 - r2) * (n - 1) / df


def _r2(total, fitted):
    """R2 of each block, ``(k, n_blocks)``, from the sums of a fit: a
    response with zero total sum of squares has nothing to explain and
    gets 0; R2 is clipped to [0, 1] against roundoff."""
    total = total[:, np.newaxis]
    explains = total > 0.0
    return np.where(explains, np.clip(
        fitted / np.where(explains, total, 1.0), 0.0, 1.0), 0.0)


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


def _as_stack(data) -> np.ndarray:
    """A ``(T, n, q)`` float stack: a 3-D array as it is, else ``as_matrix``
    as a stack of one. The fit kernel's one rank test."""
    if isinstance(data, np.ndarray) and data.ndim == 3:
        return data.astype(float, copy=False)
    return as_matrix(data)[np.newaxis]


def _stacks(y, named_blocks, method: str):
    """The checked table stack and ``[(name, block stack)]`` of a fit
    (``_block_fractions``): each block's parts joined side by side."""
    if method not in ("cca", "rda"):
        raise ValidationError(f"unknown method {method!r}")
    ym = _as_stack(y)
    blocks = []
    for name, *parts in named_blocks:
        parts = [_as_stack(p) for p in parts]
        if any(p.shape[:-1] != ym.shape[:-1] for p in parts):
            raise ValidationError("response and predictor blocks must share rows")
        blocks.append((name, parts[0] if len(parts) == 1
                       else np.concatenate(parts, axis=-1)))
    if ym.shape[-2] < 3:
        raise ValidationError("need at least 3 rows")
    return ym, blocks


def _block_fractions(y, named_blocks, method: str):
    """Explained fraction of ``y`` for each named predictor set, per table.

    Each entry of ``named_blocks`` is ``(name, *parts)``; the parts are
    joined side by side into one predictor block, so a joint fit is written
    ``(name, x, w)``. ``y`` and every part are stacks, ``(T, n, S)`` and
    ``(T, n, q)``; a 2-D table or block is a stack of one (``_as_stack``).
    Row ``i`` is the unit fit of table ``i`` (a point partition, a sweep
    cell) on the SVD route (``_unit_fractions``), bit for bit when each part
    has that table's memory layout (a column slice stays a strided view).
    Count-weighted fits of one table go through its ``_Plan``: a site
    counted ``c`` times weighs as ``c`` copies of its row, which is exactly
    the fit on the resampled table. Both paths share ``_stacks``,
    ``_response`` and ``_fractions``.

    Returns ``(fractions (T, n_blocks), reasons (T,))``, the reasons all 0:
    the first degenerate table raises the ``DegenerateDataError`` of its
    unit fit. ``_Plan.fit`` returns a nonzero reason, a code of
    ``errors.DEGENERATE_REASONS``, for a replicate whose fractions are
    meaningless instead.

    ``rda`` gives the adjusted R2 of each block, adjusted by the rank of its
    weighted-centred columns with n the total count; no residual degrees of
    freedom is degenerate. ``cca`` gives each block's share of chi-square
    inertia over the live sites and species (a positive row or column sum);
    fewer than 3 live sites, copies counted, or 2 live species is
    degenerate. A table of fewer than 3 rows is rejected before any fit.
    """
    ym, blocks = _stacks(y, named_blocks, method)
    # Overflow ends in a ValidationError (_weighted_centre, _svd_route),
    # not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return _unit_fractions(ym, blocks, method)


def _unit_fractions(ym, blocks, method: str):
    """``_block_fractions`` of the stack ``ym`` and its ``blocks``
    (``_stacks``): ``_response``, every row on the SVD route with unit
    counts, then ``_fractions``. A ``cca`` stack whose tables leave
    different lines empty is fitted table by table, each pruned on its own.
    """
    r, w, pruned, designs, _ = _response(ym, [b for _, b in blocks], method)
    c = np.ones(w.shape)  # unit counts: the site weights are R itself
    if method == "cca":
        h = _root_weights(_weighted_sums(c, pruned))
        if len(ym) > 1 and not (np.all(w > 0.0) and h.all()):
            fits = [_unit_fractions(ym[i:i + 1], [(name, b[i:i + 1])
                                                  for name, b in blocks],
                                    method) for i in range(len(ym))]
            return tuple(np.concatenate(v) for v in zip(*fits))
        reasons, sites, species = _cca_reasons(c, h)
        if reasons.any():
            row = np.flatnonzero(reasons)[0]
            raise DegenerateDataError(
                f"only {int(sites[row])} non-empty sites and "
                f"{int(species[row])} non-empty species remain")
    else:
        h = np.ones((len(c), pruned.shape[-1]))
    total, fitted, rank = _svd_route(
        r, w, h, designs, np.ones((len(c), len(designs)), dtype=bool), method)
    fractions, reasons = _fractions(method, total, fitted, rank, c, r, w, h)
    if reasons.any():
        row = np.flatnonzero(reasons)[0]
        # A centred unit design has rank at most n - 1, so the first block
        # of largest rank is the first one left with no residual df.
        i = int(np.argmax(rank[row]))
        raise DegenerateDataError(
            f"block '{blocks[i][0]}': {DEGENERATE_REASONS[NO_RESIDUAL_DF]} "
            f"(n={ym.shape[-2]}, rank m={int(rank[row, i])})")
    return fractions, reasons


def _fractions(method: str, total, fitted, rank, c, r, w, h):
    """Fractions ``(k, n_blocks)`` and reasons ``(k,)`` of a fit's sums under
    counts ``c`` (``_svd_route`` or ``_Plan.explained``), its response ``r``,
    site weights ``w`` and root species weights ``h``: ``rda`` adjusts each
    block's R2 by its rank with n the total count (``NO_RESIDUAL_DF`` when
    no df is left), ``cca`` takes inertia shares and ``_cca_reasons``."""
    if method == "cca":
        return _inertia_shares(total, fitted, r, w, h), _cca_reasons(c, h)[0]
    total_count = c.sum(axis=1)[:, np.newaxis]
    df = total_count - rank - 1
    return (_adjust(_r2(total, fitted), total_count, np.where(df < 1, 1.0, df)),
            np.where((df < 1).any(axis=1), NO_RESIDUAL_DF, 0))


def _inertia_shares(total, fitted, r, w, h):
    """Constrained inertia's share of ``total``, ``(k, n_blocks)``, for the
    row profiles ``r``, weights and column scales of ``_svd_route`` or
    ``_Plan.explained``.

    A replicate explains nothing unless one of its drawn sites deviates from
    its mean profile by more than ``SV_RCOND`` of its own profile, both in
    the ``g``-weighted norm. So proportional rows, whose profiles differ
    only by roundoff, read 0, while a total that is tiny because one site
    outweighs the rest keeps its share. Sites are checked only where the
    total is at most ``SV_RCOND**2`` of ``sum g * W``, which bounds the
    uncentred ``sum g w r^2`` (profiles are at most 1): a larger total
    already has such a site.
    """
    live = total > SV_RCOND ** 2 * (h * h).sum(axis=1) * w.sum(axis=1)
    rows = np.flatnonzero(~live & (total > 0.0))
    if rows.size:
        tables = _take(r, rows)
        spread = np.square(_deviations(tables, w[rows], h[rows], None)).sum(
            axis=2)
        size = np.square(tables * h[rows][:, np.newaxis]).sum(axis=2)
        live[rows] = (spread > SV_RCOND ** 2 * w[rows] * size).any(axis=1)
    total = total[:, np.newaxis]
    constrained = np.minimum(np.maximum(fitted, 0.0), total)
    live = live[:, np.newaxis]
    return np.where(live, constrained / np.where(live, total, 1.0), 0.0)


def _cca_live(ym):
    """Live sites ``(T, n)`` and species ``(T, p)`` of a ``cca`` stack (a
    positive row or column sum), after checking its entries."""
    if not np.all(ym >= 0.0):
        raise ValidationError("table contains negative or non-finite entries")
    row_sums = ym.sum(axis=-1)
    if not np.all(np.isfinite(row_sums.sum(axis=-1))):
        raise ValidationError(
            "table contains non-finite entries or overflows once summed")
    return row_sums > 0, ym.sum(axis=-2) > 0


def _cca_scaled(ym, designs, rows, cols):
    """The stack and its designs less the sites and species ``rows`` and
    ``cols`` leave out, as C-ordered copies (``np.ix_``), so a table's sums
    keep their bits stacked or not; each table scaled by the power of 4
    that puts its largest entry in [1/2, 2).

    The profiles keep their bits, and the site weights, species sums and
    root species weights scale by exact powers of 2, so the shares do not
    move, and no count-weighted total overflows once the table's own total
    is finite. The exception is a table whose entries span more than the
    float range: entries that become subnormal when scaled lose low bits,
    which moves the shares at roundoff level, and a site whose entries all
    underflow to 0 ends in ``_weighted_centre``'s ``ValidationError``.
    """
    tables = range(len(ym))
    ym = ym[np.ix_(tables, rows, cols)]
    designs = [b[np.ix_(tables, rows)] for b in designs]
    _, exponent = np.frexp(ym.max(axis=(-2, -1), initial=0.0, keepdims=True))
    return np.ldexp(ym, -2 * (exponent // 2)), designs  # drops the pruned copy


def _cca_reasons(c, h):
    """Reason codes ``(k,)`` of ``cca`` replicates under counts ``c`` and
    root species weights ``h``, with their live sites (copies counted) and
    species."""
    sites = c.sum(axis=1)
    species = np.count_nonzero(h, axis=1)
    return (np.where(sites < 3, FEW_SITES,
                     np.where(species < 2, FEW_SPECIES, 0)), sites, species)


def _log1p(table) -> np.ndarray:
    """``ln(1 + y)`` of a non-negative table or stack, checked first."""
    ym = np.asarray(getattr(table, "values", table), dtype=float)
    if not np.all(ym >= 0.0):
        raise ValidationError("table contains negative or non-finite entries")
    return np.log1p(ym)


def _named_partition_blocks(x, w) -> list:
    x_name, w_name = getattr(x, "name", "X"), getattr(w, "name", "W")
    return [(x_name, x), (w_name, w), (f"{x_name}+{w_name}", x, w)]


def _partition(y, x, w, method: str) -> PartitionResult:
    """Fit ``x``, ``w`` and both together, then split by inclusion-exclusion."""
    fractions, _ = _block_fractions(y, _named_partition_blocks(x, w), method)
    r2 = [float(v) for v in fractions[0]]
    return PartitionResult(*_split(*r2), *r2)


def _rollups(y, x, w, method: str):
    """Spec of analyze's statistic, the ``PartitionResult.rollup``.

    A spec ``spec(y, *blocks)`` gives ``(table, named_blocks, method,
    finish)``: one fit of ``table`` and ``finish``, which turns its ``(k,
    n_blocks)`` fractions into ``(k, width)`` values. ``_unit`` runs a spec
    with unit counts, ``_planned`` as a bootstrap statistic."""
    return (y, _named_partition_blocks(x, w), method,
            lambda f: np.column_stack(_rollup(*_split(*f.T))))


def _unit(spec, *arrays):
    """``(values, reasons)`` of ``spec`` (``_rollups``) fitted on ``arrays``
    with unit counts, one row per table of a stack."""
    table, named_blocks, method, finish = spec(*arrays)
    fractions, reasons = _block_fractions(table, named_blocks, method)
    return finish(fractions), reasons


def _planned(spec):
    """One bootstrap's statistic of ``spec`` (``_rollups``),
    ``statistic(counts, y, *blocks)`` as ``bootstrap_statistic`` calls it.

    The first call runs the spec on the arrays it is given and builds the
    ``_Plan`` every later call fits its counts through, so make one per
    ``bootstrap_statistic`` call.
    """
    plan = finish = None

    def statistic(counts, *arrays):
        nonlocal plan, finish
        if plan is None:
            table, named_blocks, method, finish = spec(*arrays)
            plan = _Plan(table, named_blocks, method)
        fractions, reasons = plan.fit(counts)
        return finish(fractions), reasons

    return statistic

"""Core ordination statistics.

Linear (redundancy-style) and chi-square (correspondence-style) variance
partitioning. One batched fit kernel, ``_block_fractions``, gives every
reported quantity: each predictor block's adjusted R2 for RDA and its share
of chi-square inertia for CCA. The public helpers (the rank-truncated
projection, the unadjusted R2, the chi-square decomposition and the
two-block partition) are the kernel or its pieces, with unit weights.
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


def _response(ym, c, method: str):
    """The response ``r`` of a fit, with site weights ``w`` ``(k, n)`` and
    root species weights ``h`` ``(k, p)`` for the ``(k, n)`` counts ``c``;
    a species weighs ``g = h^2``.

    ``r`` is a ``(T, n, p)`` stack, uncentred: one table every replicate
    reweights (``T = 1``) or one table per replicate (``T = k``).
    ``rda`` fits the table's columns with ``w = c`` and ``h = 1``. ``cca``
    fits the row profiles ``y / R`` with ``w = c R`` and ``h = 1 / sqrt(s)``
    for the replicate's species sums ``s`` (0 for a species no drawn site
    holds): their weighted deviations scaled by ``h`` are the standardised
    chi-square deviations. Unlike ``1 / s``, ``h`` stays finite for a
    subnormal ``s``.
    """
    if method == "rda":
        return ym, c, np.ones((len(c), ym.shape[-1]))
    row_sums = ym.sum(axis=-1)
    root = np.sqrt(_weighted_sums(c, ym))
    return (ym / row_sums[..., np.newaxis], c * row_sums,
            np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0))


def _tables_of(r, rows) -> np.ndarray:
    """The tables of stack ``r`` that replicates ``rows`` fit, one shared."""
    return r if len(r) == 1 else r[rows]


def _deviations(r, w, h, what: str) -> np.ndarray:
    """``r`` centred under each row of ``w`` by two passes, rows scaled by
    ``sqrt(w)`` and columns by ``h``: ``(k, n, p)``, one per row."""
    dw = _weighted_centre(r, w, what)
    dw *= h[:, np.newaxis]
    return dw


def _explained(r, w, h, blocks, what: str, counted: bool):
    """Total and fitted sums of squares of the response ``r`` (``_response``).

    ``r`` is centred once per call with unit counts, as ``d``; replicate
    ``i`` then weighs the sites by ``w[i]`` and the columns by ``g =
    h[i]^2``. Its total is ``sum_j g_j (sum_i w_i d_ij^2 - W delta_j^2)``
    for the weight total ``W`` and weighted column means ``delta``, each
    term multiplied by ``h_j`` twice. Each block is fitted by
    ``_fitted_ss``: a unit call (``counted`` False) by each row's own
    weighted SVD, a count-weighted call from Gram systems in one basis of
    the unit design, with the SVD as the fallback.

    A row whose total cancels below half of ``sum g w d^2``, or whose sums
    are not finite, takes its total and fits from its own two-pass
    centring of ``r`` instead (``_deviations``), as a table fitted on its
    own would: a response constant over the drawn sites reads exactly 0,
    the roundoff of a unit mean far from the replicate's (an outlier site
    it did not draw) does not reach it, and only a replicate whose own
    centred sums overflow raises ``ValidationError``. Every product is
    taken one replicate at a time, so a replicate keeps its bits in any
    chunk.
    Returns ``(total (k,), fitted (k, n_blocks), rank (k, n_blocks))``.
    """
    d = _weighted_centre(r, np.ones(r.shape[:2]), None)  # checked below
    weight = w.sum(axis=1)
    mean = _weighted_sums(w, d) / np.where(
        weight > 0.0, weight, 1.0)[:, np.newaxis]
    squares = _weighted_sums(w, np.square(d))
    raw = (squares * h * h).sum(axis=1)
    total = ((squares - weight[:, np.newaxis] * np.square(mean)) * h * h).sum(
        axis=1)
    rows = np.flatnonzero(~np.isfinite(raw + weight) | (total < 0.5 * raw))
    own = None
    if rows.size:
        own = _deviations(_tables_of(r, rows), w[rows], h[rows], what)
        total[rows] = np.square(own).reshape(rows.size, -1).sum(axis=1)
    fits = [_fitted_ss(d, w, h, weight, mean, rows, own, b, counted)
            for b in blocks]
    return (total, *(np.stack(v, axis=1) for v in zip(*fits)))


def _fitted_ss(d, w, h, weight, mean, rows, own, block, counted):
    """Fitted sum of squares and rank ``(k,)`` of one block (``_explained``).

    A unit call fits every row from its own weighted SVD (``_svd_fit``),
    which for a unit fit is the fit itself. A count-weighted call fits the
    rows that ``_gram_fit`` accepts from their Gram systems, and the rest
    from their own SVD.
    """
    if not counted:
        return _svd_fit(d, w, h, mean, rows, own, block)
    fitted, rank, redo = _gram_fit(d, w, h, weight, mean, rows, block)
    if redo.size:
        # ``rows`` is a subset of ``redo``; both are sorted.
        fitted[redo], rank[redo] = _svd_fit(
            d, w[redo], h[redo], mean[redo], np.searchsorted(redo, rows), own,
            block)
    return fitted, rank


def _svd_fit(d, w, h, mean, rows, own, block):
    """Fitted sum of squares and rank ``(k,)`` of one block from the kept
    left singular vectors ``U`` of each row's weighted-centred design.

    The fit is ``sum_j |h_j (V^T d_j - (V^T 1) delta_j)|^2`` for ``V = U *
    sqrt(w)``: the projection of the centred response, with no stack of it.
    ``U`` is orthogonal to ``sqrt(w)``, so the second term is 0 in exact
    arithmetic, but the SVD gives ``U`` only to absolute precision: where
    the weights span many orders of magnitude, that term is what keeps the
    fit right. The listed ``rows`` project their own deviations ``own``.
    """
    u, keep, _ = _svd_basis(_weighted_centre(block, w, "design"))
    u = np.ascontiguousarray(np.swapaxes(u, 1, 2))  # (k, r, n): along the sites
    redone = np.matmul(u[rows], own) if rows.size else None
    u *= np.sqrt(w)[:, np.newaxis, :]
    projected = np.matmul(u, d)
    projected -= u.sum(axis=2)[:, :, np.newaxis] * mean[:, np.newaxis, :]
    projected *= h[:, np.newaxis, :]
    if rows.size:
        projected[rows] = redone
    return ((np.square(projected).sum(axis=2) * keep).sum(axis=1),
            keep.sum(axis=1))


#: Unit singular values between these multiples of the largest leave a
#: block's count-weighted rank in doubt: below the band a direction is an
#: exact dependence, which reweighting keeps, and above it a kept direction
#: stands far clear of ``SV_RCOND``.
_RANK_BAND = (1e-13, 1e-4)

#: Largest condition number of a row's Gram matrix that ``_gram_fit``
#: solves; its smallest eigenvalue must also reach ``W / n`` over this.
_GRAM_CONDITION = 1e3


def _gram_fit(d, w, h, weight, mean, rows, block):
    """Fitted sums of squares and ranks ``(k,)`` of a count-weighted block
    call from Gram systems, and the sorted rows left to ``_svd_fit``.

    Reweighting only drops or repeats sites, so every row's weighted-centred
    design lies in the span of the ``r`` kept left singular vectors ``Q`` of
    the unit-centred design, and has rank at most ``r``. With ``s = Q^T w``,
    a row's Gram matrix is ``G = Q^T diag(w) Q - s s^T / W`` and its cross
    products with the response are ``B = Q^T diag(w) d - s delta^T``; it
    fits ``sum_j g_j b_j^T G^{-1} b_j``, from the eigenvalues ``lambda`` and
    vectors of ``G``, with rank ``r``. Forming ``G`` squares the condition
    number, so the SVD stays the rank authority and takes:

    - every row, when the unit-centred design is not finite or one of its
      singular values lies in ``_RANK_BAND`` of the largest;
    - a row whose ``lambda`` spread exceeds ``_GRAM_CONDITION``, or whose
      smallest ``lambda`` is below ``W / n`` over it (a column constant over
      the drawn sites; for ``r = 1`` the spread is always 1);
    - a row whose ``sum w |x|^2`` over the design's rows is not finite,
      which bounds every sum the SVD route forms (it raises on overflow);
    - the ``rows`` that ``_explained`` re-centres on their own.

    A row whose rank is provably ``r`` keeps it: the band keeps the unit
    singular values ``1e4`` above ``SV_RCOND`` and the spread costs at most
    a factor ``sqrt(_GRAM_CONDITION)``. Each product is taken one row at a
    time, so a row keeps its bits in any chunk.
    """
    k, n = w.shape
    fitted, rank = np.zeros(k), np.zeros(k, dtype=np.intp)
    (block,) = block  # a stack of one: every row reweights one design
    a = _weighted_centre(block, np.ones((1, n)), None)[0]
    if not np.isfinite(np.square(a).sum()):
        return fitted, rank, np.arange(k)
    u, keep, s = _svd_basis(a)
    low, high = _RANK_BAND
    if np.any((s > low * s[:1]) & (s < high * s[:1])):
        return fitted, rank, np.arange(k)
    if not keep.any():  # a design constant over the sites fits nothing
        return fitted, rank, rows
    q = u[:, keep]
    r = q.shape[1]
    gram, cross = np.empty((k, r, r)), np.empty((k, r, d.shape[-1]))
    scaled = np.empty_like(w)  # a row holds one weighted column at a time
    for i, column in enumerate(q.T):
        np.multiply(w, column, out=scaled)
        gram[:, i] = _weighted_sums(scaled, q)
        cross[:, i] = _weighted_sums(scaled, d)
    s1 = _weighted_sums(w, q)
    scale = np.where(weight > 0.0, weight, 1.0)[:, np.newaxis]
    gram -= s1[:, :, np.newaxis] * (s1 / scale)[:, np.newaxis]
    cross -= s1[:, :, np.newaxis] * mean[:, np.newaxis, :]
    lam, vec = np.linalg.eigh(gram)
    sizes = _weighted_sums(w, np.square(block).sum(axis=1)[:, np.newaxis])
    ok = ((lam[:, -1] <= _GRAM_CONDITION * lam[:, 0])
          & (lam[:, 0] * (_GRAM_CONDITION * n) >= weight) & (weight > 0.0)
          & np.isfinite(sizes[:, 0]))
    ok[rows] = False
    z = np.matmul(np.swapaxes(vec, 1, 2), cross)  # B in the eigenbasis
    z *= h[:, np.newaxis, :]
    np.square(z, out=z)
    z /= np.where(ok[:, np.newaxis], lam, 1.0)[:, :, np.newaxis]
    fitted[ok] = z.reshape(k, -1).sum(axis=1)[ok]
    rank[ok] = r
    return fitted, rank, np.flatnonzero(~ok)


def _replicate_values(n_sites: int, n_species: int, n_block_columns: int) -> int:
    """Float64 values the fit kernel holds per count row of a bootstrap.

    The response enters once per call. Per replicate the Gram route
    (``_gram_fit``) holds the count row, its float copy, the CCA site
    weights and one weighted basis column (``4n`` for ``n`` sites), a
    block's cross products with the response and their image in its
    eigenbasis (``2q x p`` for ``q`` block columns and ``p`` table
    columns), and a few weighted sums of the response (``6p``). A row that
    takes the SVD route (``_svd_fit``) holds its weighted design and its
    singular vectors, up to ``3q x n`` more.
    """
    q = n_block_columns
    return max(4 * n_sites + 2 * (q + 3) * n_species, 1)


def _aligned(y, x):
    ym, xm = as_matrix(y), as_matrix(x)
    if ym.shape[0] != xm.shape[0]:
        raise ValidationError(f"row mismatch: response has {ym.shape[0]} rows, "
                              f"design has {xm.shape[0]}")
    return ym, xm


def fit_projection(y, x) -> np.ndarray:
    """Least-squares projection of each column of ``y`` onto the span of ``x``.

    The projection is uncentred: ``x`` spans only its own columns. Rank
    deficiency is handled by truncating singular values below ``SV_RCOND``
    times the largest one; an effectively empty design gives the zero
    matrix. A non-finite entry raises ``ValidationError``, as in ``rda_r2``.
    """
    ym, xm = _aligned(y, x)
    for what, m in (("matrix", ym), ("design", xm)):
        if not np.isfinite(m).all():
            raise ValidationError(f"{what} contains non-finite entries")
    u, keep, _ = _svd_basis(xm)
    u = u * keep
    return u @ (u.T @ ym)


def _adjust(r2, n, df):
    """Small-sample adjustment with ``df`` residual degrees of freedom."""
    return 1.0 - (1.0 - r2) * (n - 1) / df


def _rda_r2(ym, blocks, c, counted: bool) -> tuple[np.ndarray, np.ndarray]:
    """R2 and rank of each block, ``(k, n_blocks)`` each, of the stacks
    ``ym`` and ``blocks`` under counts ``c`` (``_block_fractions``). A
    response with zero total sum of squares has nothing to explain and
    gets 0; R2 is clipped to [0, 1] against roundoff.
    """
    total, fitted, rank = _explained(*_response(ym, c, "rda"), blocks,
                                     "matrix", counted)
    total = total[:, np.newaxis]
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
    # Non-finite input ends in a ValidationError, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        r2, _ = _rda_r2(ym[np.newaxis], [xm[np.newaxis]],
                        np.ones((1, ym.shape[0])), counted=False)
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


def _as_stack(data) -> np.ndarray:
    """A ``(T, n, q)`` float stack: a 3-D array as it is, else ``as_matrix``
    as a stack of one. The fit kernel's one rank test."""
    if isinstance(data, np.ndarray) and data.ndim == 3:
        return data.astype(float, copy=False)
    return as_matrix(data)[np.newaxis]


def _block_fractions(y, named_blocks, method: str, counts=None):
    """Explained fraction of ``y`` for each named predictor set, per replicate.

    Each entry of ``named_blocks`` is ``(name, *parts)``; the parts are
    joined side by side into one predictor block, so a joint fit is written
    ``(name, x, w)``. ``y`` and every part are stacks, ``(T, n, S)`` and
    ``(T, n, q)``; a 2-D table or block is a stack of one (``_as_stack``).
    Row ``i`` of the ``(k, n)`` ``counts`` (all ones for None, ``k = T``)
    weighs the sites of replicate ``i``'s table: the one table of a stack
    of one (a bootstrap chunk, a point partition; counts need one) or
    table ``i`` (a sweep cell). A site counted ``c`` times weighs as ``c``
    copies of its row, which is exactly the fit on the resampled table.
    Row ``i`` of a stack is the unit fit of table ``i``, bit for bit, when
    each part has that table's memory layout (a column slice stays a
    strided view).

    Returns ``(fractions (k, n_blocks), reasons (k,))``: a nonzero reason
    is a code of ``errors.DEGENERATE_REASONS`` and marks a replicate whose
    fractions are meaningless. Unit fits raise instead: the first
    degenerate table raises the ``DegenerateDataError`` of its unit fit.

    ``rda`` gives the adjusted R2 of each block, adjusted by the rank of its
    weighted-centred columns with n the total count; no residual degrees of
    freedom is degenerate. ``cca`` gives each block's share of chi-square
    inertia over the live sites and species (a positive row or column sum);
    fewer than 3 live sites, copies counted, or 2 live species is
    degenerate. A table of fewer than 3 rows is rejected before any fit.
    This is the one place where blocks are aligned, tables pruned and
    ranks taken.
    """
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
    counted = counts is not None
    c = np.asarray(counts, dtype=float) if counted else np.ones(ym.shape[:2])
    fit = _cca_fractions if method == "cca" else _rda_fractions
    # Overflow ends in a ValidationError (_weighted_centre, _explained),
    # not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return fit(ym, blocks, c, counted)


def _rda_fractions(ym, blocks, c, counted: bool):
    """``_block_fractions`` for ``rda``: count-weighted adjusted R2."""
    r2, rank = _rda_r2(ym, [block for _, block in blocks], c, counted)
    total_count = c.sum(axis=1)[:, np.newaxis]
    df = total_count - rank - 1
    short = df < 1
    reasons = np.where(short.any(axis=1), NO_RESIDUAL_DF, 0)
    if not counted and reasons.any():
        row = np.flatnonzero(reasons)[0]
        i = int(np.argmax(short[row]))
        raise DegenerateDataError(
            f"block '{blocks[i][0]}': {DEGENERATE_REASONS[NO_RESIDUAL_DF]} "
            f"(n={ym.shape[-2]}, rank m={int(rank[row, i])})")
    return _adjust(r2, total_count, np.where(short, 1.0, df)), reasons


def _inertia_shares(total, fitted, r, w, h):
    """Constrained inertia's share of ``total``, ``(k, n_blocks)``, for the
    row profiles ``r``, weights and column scales of ``_explained``.

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
        tables = _tables_of(r, rows)
        spread = np.square(_deviations(tables, w[rows], h[rows], None)).sum(
            axis=2)
        size = np.square(tables * h[rows][:, np.newaxis]).sum(axis=2)
        live[rows] = (spread > SV_RCOND ** 2 * w[rows] * size).any(axis=1)
    total = total[:, np.newaxis]
    constrained = np.minimum(np.maximum(fitted, 0.0), total)
    live = live[:, np.newaxis]
    return np.where(live, constrained / np.where(live, total, 1.0), 0.0)


def _cca_fractions(ym, blocks, c, counted: bool):
    """``_block_fractions`` for ``cca``: weighted chi-square inertia shares.

    Empty sites and species are pruned, table by table in a stack. Each
    table is then scaled by the power of 4 that puts its largest entry in
    [1/2, 2). The profiles keep their bits, and the site weights, species
    sums and root species weights scale by exact powers of 2, so the
    shares do not move, and no count-weighted total overflows once the
    table's own total is finite.
    The exception is a table whose entries span more than the float range:
    entries that become subnormal when scaled lose low bits, which moves
    the shares at roundoff level, and a site whose entries all underflow
    to 0 ends in ``_weighted_centre``'s ``ValidationError``.
    """
    if not np.all(ym >= 0.0):
        raise ValidationError("table contains negative or non-finite entries")
    row_sums = ym.sum(axis=-1)
    if not np.all(np.isfinite(row_sums.sum(axis=-1))):
        raise ValidationError(
            "table contains non-finite entries or overflows once summed")
    rows, cols = row_sums > 0, ym.sum(axis=-2) > 0
    if len(ym) > 1 and not (rows.all() and cols.all()):
        # Prune each table of the stack on its own, as its unit fit does.
        fits = [_cca_fractions(ym[i:i + 1], [(name, b[i:i + 1])
                                             for name, b in blocks],
                               c[i:i + 1], counted) for i in range(len(ym))]
        return tuple(np.concatenate(v) for v in zip(*fits))
    # Drop sites and species dead in every replicate once, into C-ordered
    # copies (``np.ix_``), so a table's sums keep their bits stacked or not.
    tables, rows, cols = range(len(ym)), rows[0], cols[0]
    ym = ym[np.ix_(tables, rows, cols)]
    c = c if rows.all() else c[:, rows]
    blocks = [(name, b[np.ix_(tables, rows)]) for name, b in blocks]
    _, exponent = np.frexp(ym.max(axis=(-2, -1), initial=0.0, keepdims=True))
    ym = np.ldexp(ym, -2 * (exponent // 2))  # drops the pruned copy
    d, w, h = _response(ym, c, "cca")
    sites = c.sum(axis=1)
    species = np.count_nonzero(h, axis=1)
    reasons = np.where(sites < 3, FEW_SITES,
                       np.where(species < 2, FEW_SPECIES, 0))
    if not counted and reasons.any():
        row = np.flatnonzero(reasons)[0]
        raise DegenerateDataError(
            f"only {int(sites[row])} non-empty sites and "
            f"{int(species[row])} non-empty species remain")
    total, fitted, _ = _explained(d, w, h, [b for _, b in blocks], "table",
                                  counted)
    return _inertia_shares(total, fitted, d, w, h), reasons


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


def _checked_table(y) -> np.ndarray:
    """A finite, non-negative table with a positive total and no empty row
    or column, as a matrix; ``chi_square_transform`` accepts nothing else.
    The fit kernel prunes empty lines instead (``_cca_fractions``)."""
    ym = as_matrix(y)
    if not np.all(np.isfinite(ym)):
        raise ValidationError("table contains non-finite entries")
    if np.any(ym < 0):
        raise ValidationError("table contains negative entries")
    if float(ym.sum()) <= 0.0:
        raise DegenerateDataError("table total must be positive")
    empty_rows = np.flatnonzero(ym.sum(axis=1) == 0.0)
    empty_cols = np.flatnonzero(ym.sum(axis=0) == 0.0)
    if empty_rows.size or empty_cols.size:
        raise DegenerateDataError(
            f"empty rows {empty_rows.tolist()} and empty columns "
            f"{empty_cols.tolist()} (all-zero lines carry no information)")
    return ym


def chi_square_transform(y):
    """Chi-square (correspondence) decomposition of a non-negative table.

    Returns ``(qbar, row_weights, col_weights, total_inertia)``. ``qbar``
    holds the standardised deviations from row-column independence of the
    proportion table; ``total_inertia`` is the sum of its squares, which
    equals the Pearson chi-square statistic divided by the grand total.
    """
    ym = _checked_table(y)
    total = float(ym.sum())
    qbar = _deviations(*_response(ym, np.ones((1, ym.shape[0])), "cca"),
                       "table")[0]
    return (qbar, ym.sum(axis=1) / total, ym.sum(axis=0) / total,
            float(np.sum(qbar * qbar)))

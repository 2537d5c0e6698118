"""Count-weighted fits: the Gram route and the gates that send rows back to
their own SVD.

A count-weighted call of ``_block_fractions`` fits a row from its Gram
system in one basis of the unit design (``ordination._gram_fit``) unless a
gate sends it to its own weighted SVD. Each test drives rows into one gate
and checks that every row still fits as the unit fit of the table it
resamples: fractions to 1e-12, the same reason code and the same ranks.
"""

import numpy as np
import pytest

from vpboot import ordination
from vpboot.errors import ValidationError
from vpboot.ordination import _block_fractions


def _named(x, w):
    return [("x", x), ("w", w), ("xw", x, w)]


def _fit(y, blocks, method, counts=None):
    """Fractions, reasons and block ranks of one kernel call, and the
    number of dimensions of each array it passed to ``_svd_basis``: the
    Gram route takes one 2-D SVD per block, the SVD route a 3-D stack."""
    ranks, dims = [], []
    explained, svd_basis = ordination._explained, ordination._svd_basis

    def recording_explained(*args):
        out = explained(*args)
        ranks.append(out[2])
        return out

    def recording_svd_basis(a):
        dims.append(a.ndim)
        return svd_basis(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ordination, "_explained", recording_explained)
        patch.setattr(ordination, "_svd_basis", recording_svd_basis)
        fractions, reasons = _block_fractions(y, _named(*blocks), method,
                                              counts)
    return fractions, reasons, ranks[0], dims


def _assert_rows_fit_as_their_tables(y, blocks, method, counts, tol=1e-12):
    """Each count row fits as the unit fit of the table it resamples.
    Returns the dimensions of the arrays the count call passed to
    ``_svd_basis``."""
    fractions, reasons, ranks, dims = _fit(y, blocks, method, counts)
    for i, c in enumerate(counts):
        drawn = np.repeat(np.arange(len(y)), c)
        unit, unit_reasons, unit_ranks, _ = _fit(
            y[drawn], [b[drawn] for b in blocks], method)
        assert reasons[i] == unit_reasons[0] == 0
        assert np.array_equal(ranks[i], unit_ranks[0])
        assert np.max(np.abs(fractions[i] - unit[0])) <= tol
    return dims


def _counts(rng, n, k=20, sites=None, first=0):
    """``k`` count rows of ``n`` draws: ``first`` of site 0, the rest
    uniform from ``sites`` (all sites if None)."""
    sites = np.arange(n) if sites is None else np.asarray(sites)
    counts = np.stack([np.bincount(rng.choice(sites, n - first), minlength=n)
                       for _ in range(k)])
    counts[:, 0] += first
    return counts


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_healthy_table_fits_every_row_on_the_gram_route(method):
    rng = np.random.default_rng(120)
    n = 100
    y = rng.poisson(3.0, size=(n, 6)).astype(float) + 1.0
    blocks = [rng.normal(size=(n, 1)), rng.normal(size=(n, 5))]
    dims = _assert_rows_fit_as_their_tables(y, blocks, method,
                                            _counts(rng, n))
    assert dims == [2, 2, 2]


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_duplicated_design_column_keeps_the_gram_route(method):
    # The duplicate is an exact dependence below the rank band, which no
    # reweighting undoes: every row has the unit design's rank.
    rng = np.random.default_rng(121)
    n = 30
    y = rng.uniform(0.5, 4.0, size=(n, 3))
    x = rng.normal(size=(n, 1))
    blocks = [np.hstack([x, x]), rng.normal(size=(n, 2))]
    dims = _assert_rows_fit_as_their_tables(y, blocks, method,
                                            _counts(rng, n))
    assert dims == [2, 2, 2]


def test_a_binary_column_constant_over_the_drawn_sites_has_rank_zero():
    # Rows drawn from the zeros alone leave the column constant: its Gram
    # matrix is 1 x 1, so only the floor on its eigenvalue sees the loss.
    rng = np.random.default_rng(122)
    n = 30
    y = rng.normal(size=(n, 2))
    x = (np.arange(n) < 10).astype(float)[:, np.newaxis]
    blocks = [x, rng.normal(size=(n, 2))]
    counts = np.vstack([_counts(rng, n, 10, sites=range(10, n)),
                        _counts(rng, n, 10)])
    fractions, _, ranks, _ = _fit(y, blocks, "rda", counts)
    assert np.all(ranks[:10, 0] == 0) and np.all(ranks[10:, 0] == 1)
    _assert_rows_fit_as_their_tables(y, blocks, "rda", counts)


def test_a_cca_site_that_outweighs_the_rest_fits_as_its_table():
    # Site 0's row sum is 1e8 times the others', so it dominates the
    # weights of a row that draws it and its Gram matrices cancel. Its
    # profile is the others' mean, so the response does not cancel as well.
    rng = np.random.default_rng(123)
    n = 30
    y = rng.uniform(0.5, 4.0, size=(n, 4))
    y[0] = 1e8 * (y[1:] / y[1:].sum(axis=1, keepdims=True)).mean(axis=0)
    blocks = [rng.normal(size=(n, 1)), rng.normal(size=(n, 2))]
    _assert_rows_fit_as_their_tables(y, blocks, "cca",
                                     _counts(rng, n, first=1))


@pytest.mark.parametrize("method", ["cca", "rda"])
@pytest.mark.parametrize("gap", [1e-6, 2.6e-10])
def test_a_design_in_the_rank_band_takes_the_svd_route(method, gap):
    # The unit singular values of two near-copies of a column are about
    # 0.4 gap apart, so at 2.6e-10 some resamples keep the second
    # direction and some drop it. The rank band sends the whole call to
    # each row's own SVD, which decides as the resampled table does.
    # Neither that SVD nor the table's own fixes the span of a design of
    # condition number k closer than about k times the float precision.
    rng = np.random.default_rng(124)
    n = 40
    y = rng.uniform(0.5, 4.0, size=(n, 3))
    a, b = rng.normal(size=(2, n))
    x = np.column_stack([a, a + gap * b])
    s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    assert 0.3 < s[1] / s[0] / gap < 0.5
    dims = _assert_rows_fit_as_their_tables(
        y, [x, rng.normal(size=(n, 1))], method, _counts(rng, n),
        tol=1e-15 * s[0] / s[1])
    assert dims == [2, 3, 2, 2, 3]


def test_a_design_that_overflows_only_under_counts_still_raises():
    # Site 0's squared entry is about 0.94 of the float range: a resample
    # that draws it once fits, one that draws it twice overflows.
    rng = np.random.default_rng(125)
    n = 30
    y = rng.normal(size=(n, 2))
    x = rng.normal(size=(n, 1))
    x[0] = 1.3e154
    blocks = [x, rng.normal(size=(n, 1))]
    _assert_rows_fit_as_their_tables(
        y, blocks, "rda", _counts(rng, n, 5, sites=range(1, n), first=1))
    twice = _counts(rng, n, 5, sites=range(1, n), first=2)
    drawn = np.repeat(np.arange(n), twice[0])
    overflow = "^design contains non-finite entries or overflows once centred$"
    with pytest.raises(ValidationError, match=overflow):
        _block_fractions(y[drawn], _named(*(b[drawn] for b in blocks)), "rda")
    with pytest.raises(ValidationError, match=overflow):
        _block_fractions(y, _named(*blocks), "rda", twice)


@pytest.mark.parametrize("spread", [0.0, 1e-6])
def test_a_response_constant_over_the_drawn_sites_fits_as_its_table(spread):
    # The drawn sites 0-9 hold one response row, far from the others, up
    # to ``spread``: the unit-centred response cancels in every row.
    rng = np.random.default_rng(126)
    n = 30
    y = rng.normal(size=(n, 2))
    y[:10] = 1e3 + spread * rng.normal(size=(10, 2))
    blocks = [rng.normal(size=(n, 1)), rng.normal(size=(n, 2))]
    counts = _counts(rng, n, 10, sites=range(10))
    _assert_rows_fit_as_their_tables(y, blocks, "rda", counts)


def test_a_design_that_overflows_once_unit_centred_raises_from_the_svd_route(
        monkeypatch):
    # A 1e200 entry squares past the float range in the unit-centred design,
    # so ``_gram_fit`` leaves every row to the SVD route, which raises as
    # the unit fit does.
    rng = np.random.default_rng(127)
    n = 30
    y = rng.normal(size=(n, 2))
    x = rng.normal(size=(n, 1))
    x[0] = 1e200
    blocks = [x, rng.normal(size=(n, 1))]
    counts = _counts(rng, n, 5, first=1)
    overflow = "^design contains non-finite entries or overflows once centred$"
    with pytest.raises(ValidationError, match=overflow):
        _block_fractions(y, _named(*blocks), "rda")
    left, gram_fit = [], ordination._gram_fit

    def recording_gram_fit(*args):
        out = gram_fit(*args)
        left.append(out[2].tolist())
        return out

    monkeypatch.setattr(ordination, "_gram_fit", recording_gram_fit)
    with pytest.raises(ValidationError, match=overflow):
        _block_fractions(y, _named(*blocks), "rda", counts)
    assert left == [list(range(len(counts)))]

"""Count-weighted fits: the Gram route and the gates that send rows back to
their own SVD.

A count-weighted fit (``_Plan.fit``) fits a row from the Gram system of
one union basis of the unit designs, shared by every block
(``ordination._union_system``, ``ordination._gram_fit``), unless a gate
sends it to its own weighted SVD. Each test drives rows into one gate
and checks that every row still fits as the unit fit of the table it
resamples: fractions to 1e-12, the same reason code and the same ranks.
"""

import numpy as np
import pytest

import golden_outputs
from vpboot import ordination, resample
from vpboot.analysis import report_to_dict, run_analysis, trend_surface
from vpboot.errors import ValidationError
from vpboot.ordination import _block_fractions, _Plan, _planned
from vpboot.resample import bootstrap_statistic
from vpboot.tables import PredictorBlock


def _named(x, w):
    return [("x", x), ("w", w), ("xw", x, w)]


def _fit(y, blocks, method, counts=None, named=_named):
    """Fractions, reasons and block ranks of one unit fit (``counts``
    None, ``_block_fractions``) or count fit (``_Plan(...).fit``), and the
    shape of each array it passed to ``_svd_basis``, in call order: the
    count fit's plan takes one ``(n, sum q)`` SVD of every block's columns
    side by side, the union, and one ``(r, q)`` SVD per block of its
    columns in the union's rank-``r`` basis, then the SVD route one
    ``(rows, n, q)`` stack per block that has rows left to it. Ranks
    come from ``_svd_route`` (unit fits; the count fit's own SVD-route
    rows are not recorded) or ``_Plan.explained`` (count fits)."""
    ranks, shapes = [], []
    svd_basis = ordination._svd_basis

    def recording(explained):
        def recording_explained(*args):
            out = explained(*args)
            ranks.append(out[2])
            return out
        return recording_explained

    def recording_svd_basis(a):
        shapes.append(a.shape)
        return svd_basis(a)

    with pytest.MonkeyPatch.context() as patch:
        if counts is None:
            patch.setattr(ordination, "_svd_route",
                          recording(ordination._svd_route))
        else:
            patch.setattr(ordination._Plan, "explained",
                          recording(ordination._Plan.explained))
        patch.setattr(ordination, "_svd_basis", recording_svd_basis)
        named = named(*blocks)
        fractions, reasons = (
            _block_fractions(y, named, method) if counts is None
            else _Plan(y, named, method).fit(counts))
    return fractions, reasons, ranks[0], shapes


def _assert_rows_fit_as_their_tables(y, blocks, method, counts, tol=1e-12):
    """Each count row fits as the unit fit of the table it resamples.
    Returns the shapes of the arrays the count call passed to
    ``_svd_basis``."""
    fractions, reasons, ranks, shapes = _fit(y, blocks, method, counts)
    for i, c in enumerate(counts):
        drawn = np.repeat(np.arange(len(y)), c)
        unit, unit_reasons, unit_ranks, _ = _fit(
            y[drawn], [b[drawn] for b in blocks], method)
        assert reasons[i] == unit_reasons[0] == 0
        assert np.array_equal(ranks[i], unit_ranks[0])
        assert np.max(np.abs(fractions[i] - unit[0])) <= tol
    return shapes


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
    shapes = _assert_rows_fit_as_their_tables(y, blocks, method,
                                              _counts(rng, n))
    assert shapes == [(n, 12), (6, 1), (6, 5), (6, 6)]


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_duplicated_design_column_keeps_the_gram_route(method):
    # The duplicate is an exact dependence below the rank band, which no
    # reweighting undoes: every row has the unit design's rank.
    rng = np.random.default_rng(121)
    n = 30
    y = rng.uniform(0.5, 4.0, size=(n, 3))
    x = rng.normal(size=(n, 1))
    blocks = [np.hstack([x, x]), rng.normal(size=(n, 2))]
    shapes = _assert_rows_fit_as_their_tables(y, blocks, method,
                                              _counts(rng, n))
    assert shapes == [(n, 8), (3, 2), (3, 2), (3, 4)]


def test_a_binary_column_constant_over_the_drawn_sites_has_rank_zero():
    # Rows drawn from the zeros alone leave the column constant: its Gram
    # matrix is 1 x 1 and about 0, so only the certificate's floor on its
    # smallest eigenvalue sees the loss.
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
    # direction and some drop it. They put the union of the blocks in the
    # rank band, which sends every row of every block to its own SVD, which
    # decides as the resampled table does.
    # Neither that SVD nor the table's own fixes the span of a design of
    # condition number k closer than about k times the float precision.
    rng = np.random.default_rng(124)
    n = 40
    y = rng.uniform(0.5, 4.0, size=(n, 3))
    a, b = rng.normal(size=(2, n))
    x = np.column_stack([a, a + gap * b])
    s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    assert 0.3 < s[1] / s[0] / gap < 0.5
    counts = _counts(rng, n)
    shapes = _assert_rows_fit_as_their_tables(
        y, [x, rng.normal(size=(n, 1))], method, counts,
        tol=1e-15 * s[0] / s[1])
    k = len(counts)
    assert shapes == [(n, 6), (k, n, 2), (k, n, 1), (k, n, 3)]


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_block_in_the_rank_band_alone_takes_the_svd_route(method):
    # The second block holds the direction that the first block's two
    # near-copies differ by, so the union has two clear directions: only
    # the first block's own singular values, from its SVD in the union
    # basis, lie in the band, and only its rows leave the Gram route.
    rng = np.random.default_rng(134)
    n = 40
    y = rng.uniform(0.5, 4.0, size=(n, 3))
    a, b = rng.normal(size=(2, n))
    x = np.column_stack([a, a + 1e-6 * b])
    counts = _counts(rng, n)
    s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    shapes = _assert_rows_fit_as_their_tables(
        y, [x, b[:, np.newaxis]], method, counts, tol=1e-15 * s[0] / s[1])
    assert shapes == [(n, 6), (2, 2), (2, 1), (2, 3), (len(counts), n, 2)]


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
        _Plan(y, _named(*blocks), "rda").fit(twice)


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
    # A 1e200 entry squares past the float range in the unit-centred design
    # and so in the union of the blocks: the plan has no factor for
    # ``_gram_fit`` to run, and every row of every block goes to the SVD
    # route, which raises as the unit fit does.
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
    fits, picks = [], []
    gram_fit, svd_route = ordination._gram_fit, ordination._svd_route

    def recording_gram_fit(*args):
        fits.append(args)
        return gram_fit(*args)

    def recording_svd_route(r, w, h, designs, svd, method):
        picks.append(svd.copy())
        return svd_route(r, w, h, designs, svd, method)

    monkeypatch.setattr(ordination, "_gram_fit", recording_gram_fit)
    monkeypatch.setattr(ordination, "_svd_route", recording_svd_route)
    with pytest.raises(ValidationError, match=overflow):
        _Plan(y, _named(*blocks), "rda").fit(counts)
    assert fits == []
    assert [pick.shape for pick in picks] == [(len(counts), 3)]
    assert picks[0].all()


def _bootstrapped_fits(y, blocks, method, m_replicates, monkeypatch,
                       named=_named):
    """Count rows, fractions, reasons and ranks of every evaluation of a
    ``bootstrap_statistic`` run over chunks of 8 replicates, with the
    plan one bootstrap keeps (``_planned``), and how many rows the SVD
    route took."""
    monkeypatch.setattr(resample, "_CHUNK_VALUES",
                        8 * resample._replicate_values(
                            len(y), y.shape[1],
                            sum(b.shape[1] for b in blocks)))
    rows, ranks, routed = [], [], []
    explained, svd_route = ordination._Plan.explained, ordination._svd_route

    def recording_explained(plan, c):
        out = explained(plan, c)
        ranks.extend(out[2])
        return out

    def recording_svd_route(r, w, *args):
        routed.append(len(w))
        return svd_route(r, w, *args)

    planned = _planned(lambda y, *b: (y, named(*b), method, lambda f: f))

    def fractions(counts, *arrays):
        out = planned(counts, *arrays)
        rows.extend(zip(counts, *out))
        return out

    monkeypatch.setattr(ordination._Plan, "explained", recording_explained)
    monkeypatch.setattr(ordination, "_svd_route", recording_svd_route)
    bootstrap_statistic(y, blocks, fractions, m_replicates, seed=5)
    return rows, ranks, sum(routed)


def _assert_replicates_fit_as_their_tables(y, blocks, method, monkeypatch,
                                           m_replicates=20, named=_named):
    """Every replicate of a chunked bootstrap fits as the unit fit of its
    resampled table. Returns the replicates' count rows, fractions and
    ranks, and the SVD route's row count."""
    rows, ranks, routed = _bootstrapped_fits(y, blocks, method, m_replicates,
                                             monkeypatch, named)
    assert len(rows) >= m_replicates > 8
    for (c, fractions, reason), rank in zip(rows, ranks):
        drawn = np.repeat(np.arange(len(y)), c)
        unit, unit_reasons, unit_ranks, _ = _fit(
            y[drawn], [b[drawn] for b in blocks], method, named=named)
        assert reason == unit_reasons[0] == 0
        assert np.array_equal(rank, unit_ranks[0])
        assert np.max(np.abs(fractions - unit[0])) <= 1e-12
    return (np.array([c for c, *_ in rows]), np.array([f for _, f, _ in rows]),
            np.array(ranks), routed)


def test_chunked_bootstraps_fit_a_column_constant_over_the_drawn_sites(
        monkeypatch):
    # One site holds the binary column's ones: a resample that misses it
    # (about a third) trips the certificate's floor and reads rank 0.
    rng = np.random.default_rng(128)
    n = 30
    y = rng.normal(size=(n, 2))
    x = (np.arange(n) == 0).astype(float)[:, np.newaxis]
    _, _, ranks, routed = _assert_replicates_fit_as_their_tables(
        y, [x, rng.normal(size=(n, 2))], "rda", monkeypatch)
    assert 0 < np.count_nonzero(ranks[:, 0] == 0) < len(ranks)
    assert routed


def test_chunked_bootstraps_fit_a_cancelling_total(monkeypatch):
    # Site 0's response sits 1e3 away: centred on the unit mean, a
    # resample that misses it keeps less than half its raw sum of squares.
    rng = np.random.default_rng(129)
    n = 30
    y = rng.normal(size=(n, 2))
    y[0] += 1e3
    counts, _, _, routed = _assert_replicates_fit_as_their_tables(
        y, [rng.normal(size=(n, 1)), rng.normal(size=(n, 2))], "rda",
        monkeypatch)
    assert routed == np.count_nonzero(counts[:, 0] == 0) > 0


def test_chunked_bootstraps_fit_a_cca_site_that_outweighs_the_rest(
        monkeypatch):
    # As in the unit-count test above, site 0 weighs 1e8 times the others.
    rng = np.random.default_rng(130)
    n = 30
    y = rng.uniform(0.5, 4.0, size=(n, 4))
    y[0] = 1e8 * (y[1:] / y[1:].sum(axis=1, keepdims=True)).mean(axis=0)
    _, _, _, routed = _assert_replicates_fit_as_their_tables(
        y, [rng.normal(size=(n, 1)), rng.normal(size=(n, 2))], "cca",
        monkeypatch)
    assert routed


# The union basis: one Gram system per chunk, shared by every block.

def _three(a, b, c):
    return [("a", a), ("b", b), ("c", c)]


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_blocks_with_disjoint_spans_fit_in_one_union_basis(method,
                                                           monkeypatch):
    # Three blocks and no joint one: the union's rank is the sum of theirs,
    # so each block fits in its own part of the union basis.
    rng = np.random.default_rng(135)
    n = 40
    y = rng.uniform(0.5, 4.0, size=(n, 4))
    blocks = [rng.normal(size=(n, 1)), rng.normal(size=(n, 2)),
              rng.normal(size=(n, 3))]
    plan = _Plan(y, _three(*blocks), method)
    assert len(plan.union[0]) == 1 + 2 + 3
    assert [b[0].shape for b in plan.bases] == [(1, 6), (2, 6), (3, 6)]
    _, _, _, routed = _assert_replicates_fit_as_their_tables(
        y, blocks, method, monkeypatch, named=_three)
    assert routed == 0


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_identical_blocks_leave_no_pure_fraction_in_any_replicate(
        method, monkeypatch):
    # Both blocks and their joint fit in the whole union basis, so their
    # fits are one fit and the pure fractions cancel exactly.
    rng = np.random.default_rng(136)
    n = 40
    y = rng.uniform(0.5, 4.0, size=(n, 3))
    x = rng.normal(size=(n, 2))
    plan = _Plan(y, _named(x, x), method)
    assert all(np.array_equal(b[0], np.eye(2)) for b in plan.bases)
    _, fractions, _, routed = _assert_replicates_fit_as_their_tables(
        y, [x, x], method, monkeypatch)
    assert routed == 0
    assert np.all(fractions[:, 2] - fractions[:, 1] == 0.0)
    assert np.all(fractions[:, 2] - fractions[:, 0] == 0.0)


def test_analyze_inputs_with_identical_blocks_have_zero_pure_spreads():
    # The golden RDA table with its env block passed twice. Fitted in a
    # basis of its own per block, env_pure read a mean of 2.6e-17 and an sd
    # of 1.0e-16 here, and a relative uncertainty of 3.9.
    table, env, _ = golden_outputs._inputs("rda")
    report = run_analysis(table, PredictorBlock("env", table.site_ids, env),
                          PredictorBlock("spatial", table.site_ids, env),
                          seed=1, method="rda", m_replicates=200)
    summary = report.uncertainty["env_pure"]
    assert (summary.mean, summary.sd, summary.ci95_low,
            summary.ci95_high) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_block_outside_the_union_span_takes_the_svd_route(method,
                                                            monkeypatch):
    # A block 1e-15 times the scale of the other falls below the union's
    # cutoff: it lies outside span Q and takes the SVD route, where its
    # own fit is scale-free; the other block and the joint one, whose own
    # cutoff drops it too, keep the Gram route.
    rng = np.random.default_rng(137)
    n = 40
    y = rng.uniform(0.5, 4.0, size=(n, 3))
    blocks = [1e-15 * rng.normal(size=(n, 1)), rng.normal(size=(n, 2))]
    plan = _Plan(y, _named(*blocks), method)
    assert plan.bases[0] is None and plan.bases[1] is not None
    assert plan.bases[2] is not None
    counts, _, ranks, routed = _assert_replicates_fit_as_their_tables(
        y, blocks, method, monkeypatch)
    assert routed == len(counts)
    assert np.all(ranks == [1, 2, 2])


# Gate equivalence: a row the Gram fit certifies passes the eigenvalue
# gates, and fits as they would fit it.

_CONDITION = ordination._GRAM_CONDITION


def _spectral_inputs(spectra, extra, rng, p=3):
    """``_block_fit`` arguments whose row ``i`` has the Gram matrix ``V
    diag(spectra[i]) V^T`` for one random rotation ``V`` and weight total
    ``spectra[i].sum() + extra[i]``.

    Sites ``2l`` and ``2l + 1`` hold basis rows ``+v_l`` and ``-v_l`` and
    count ``spectra[i, l] / 2`` each, so ``s = Q^T w`` is 0; a last site
    with a zero basis row adds ``extra[i]`` to ``W`` alone. Returns the
    arguments and the row's exact ``(gram, cross)`` for a reference fit.
    """
    spectra = np.asarray(spectra, dtype=float)
    k, r = spectra.shape
    v, _ = np.linalg.qr(rng.normal(size=(r, r)))
    q = np.vstack([np.repeat(v.T, 2, axis=0) * np.tile([1.0, -1.0], r)[
        :, np.newaxis], np.zeros((1, r))])
    c = np.column_stack([np.repeat(spectra / 2, 2, axis=1), extra])
    n = len(q)
    d = rng.normal(size=(n, p))
    g = rng.uniform(0.5, 2.0, size=(k, p))
    upper = np.triu_indices(r)
    moments = np.hstack([q, q[:, upper[0]] * q[:, upper[1]], np.ones((n, 1))])
    weight = c.sum(axis=1)
    mean = (c @ d) / weight[:, np.newaxis]
    s = c @ q
    gram = (np.einsum("kn,ni,nj->kij", c, q, q)
            - s[:, :, np.newaxis] * s[:, np.newaxis] / weight[:, np.newaxis,
                                                              np.newaxis])
    cross = np.einsum("kn,ni,nj->kij", c, q, d) - s[:, :, np.newaxis] * mean[
        :, np.newaxis]
    union = (np.ascontiguousarray(q.T), upper, 0)
    return (union, c @ moments, c, d, g, weight, mean), (gram, cross)


def _block_fit(union, sums, c, d, g, weight, mean):
    """``_gram_fit`` of a block whose basis is the whole union (``A =
    I``, the only block of the leading factor), with its sizes in the last
    column of ``sums``."""
    gram, cross = ordination._union_system(union, sums, c, d, weight, mean)
    factor = (None, ((gram.shape[1], sums.shape[1] - 1),))
    return ordination._gram_fit(factor, gram, cross, sums, g, weight,
                                c.shape[1])[0]


def _eigh_reference(gram, cross, g, weight, sizes, n):
    """Fits, ranks and fitted-row mask of the eigenvalue gates alone."""
    lam, vec = np.linalg.eigh(gram)
    z = np.matmul(np.swapaxes(vec, 1, 2), cross)
    ok = ((lam[:, -1] <= _CONDITION * lam[:, 0])
          & (lam[:, 0] * (_CONDITION * n) >= weight) & (weight > 0.0)
          & np.isfinite(sizes))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero lambda
        fits = (np.einsum("kj,klj->kl", g, z * z) / lam).sum(axis=1)
    return np.where(ok, fits, 0.0), np.where(ok, gram.shape[1], 0), ok


def _certificate_edges(r):
    """Spectra and extra weights of rows 1e-6 inside and outside each edge
    of the certificate and of the eigenvalue gates, and whether the
    certificate holds and the gates pass for each."""
    n, margin, a = 2 * r + 1, 1e-6, r - 1
    # The spectrum (edge, 1, ..., 1) has tr G tr G^-1 = (edge + a)(1 / edge
    # + a) = _CONDITION / 2, a quadratic in edge.
    b = _CONDITION / 2 - 1 - a * a
    edge = (b + np.sqrt(b * b - 4 * a * a)) / (2 * a)
    ones = np.ones(r)
    rows = [
        # tr G tr G^-1 just under and just over _CONDITION / 2
        (np.r_[edge * (1 - margin), ones[1:]], 0.0, True, True),
        (np.r_[edge * (1 + margin), ones[1:]], 0.0, False, True),
        # the condition number just under and just over _CONDITION
        (np.r_[_CONDITION * (1 - margin), ones[1:]], 0.0, False, True),
        (np.r_[_CONDITION * (1 + margin), ones[1:]], 0.0, False, False),
        # 2 W tr G^-1 just under and just over _CONDITION n (lambda = 1)
        (ones, _CONDITION * n / (2 * r) * (1 - margin) - r, True, True),
        (ones, _CONDITION * n / (2 * r) * (1 + margin) - r, False, True),
        # lambda_min _CONDITION n just over and just under W
        (ones, _CONDITION * n * (1 - margin) - r, False, True),
        (ones, _CONDITION * n * (1 + margin) - r, False, False),
    ]
    spectra, extra, certified, passed = (np.array(v) for v in zip(*rows))
    return spectra, extra, certified, passed


def _assert_certified_rows_fit_as_the_gates(args, gram, cross, certified):
    """``_block_fit`` fits exactly the ``certified`` rows, each as the
    eigenvalue gates fit it, to 1e-13, and passes the gates for them."""
    fitted, rank, ok = _block_fit(*args)
    _, sums, c, _, g, weight, _ = args
    ref_fitted, ref_rank, ref_ok = _eigh_reference(gram, cross, g, weight,
                                                   sums[:, -1], c.shape[1])
    assert ok.tolist() == certified.tolist()
    assert np.all(ref_ok[ok])
    assert np.array_equal(rank, np.where(ok, ref_rank, 0))
    assert np.all(np.abs(fitted - np.where(ok, ref_fitted, 0.0))
                  <= 1e-13 * np.abs(ref_fitted))


@pytest.mark.parametrize("r", [2, 6])
def test_rows_at_the_certificate_edges_keep_their_eigh_gates(r):
    # A row 1e-6 inside an edge of the certificate fits as the eigenvalue
    # gates fit it; a row 1e-6 outside one is left to the SVD route, also
    # where the gates would pass it. The last row is the first with a
    # design that overflows under its counts (its sizes are not finite):
    # only the SVD route may fit it.
    rng = np.random.default_rng(131)
    spectra, extra, certified, passed = _certificate_edges(r)
    products = spectra.sum(axis=1) * (1.0 / spectra).sum(axis=1)
    assert np.allclose(products[:2], _CONDITION / 2, rtol=2e-6)
    assert np.all(passed[certified]) and not np.all(certified[passed])
    spectra, extra = np.vstack([spectra, spectra[:1]]), np.r_[extra, 0.0]
    args, (gram, cross) = _spectral_inputs(spectra, extra, rng)
    args[1][-1, -1] = np.inf
    _assert_certified_rows_fit_as_the_gates(args, gram, cross,
                                            np.r_[certified, False])


def test_a_singular_gram_matrix_leaves_only_its_own_row_unfitted():
    # The last row draws only the site with a zero basis row: its Gram
    # matrix is exactly 0, so a Cholesky factorisation of the chunk's
    # stack raises. The row-by-row factor marks that row's pivot alone,
    # and every other row keeps its certificate.
    rng = np.random.default_rng(132)
    r = 6
    spectra, extra, certified, _ = _certificate_edges(r)
    spectra = np.vstack([spectra, np.zeros(r)])
    args, (gram, cross) = _spectral_inputs(spectra, np.r_[extra, 5.0], rng)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    _assert_certified_rows_fit_as_the_gates(args, gram, cross,
                                            np.r_[certified, False])


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_certified_fits_match_the_eigh_route_on_a_bootstrap(method,
                                                            monkeypatch):
    # Benchmark-shaped tables: every row of every block is certified, so
    # the SVD route receives no row, and each fit is the eigenvalue
    # gates' fit to 1e-13.
    rng = np.random.default_rng(133)
    n = 100
    if method == "rda":
        y = rng.normal(size=(n, 2))
        blocks = [rng.normal(size=(n, 1)), rng.normal(size=(n, 1))]
    else:
        y = np.log1p(rng.poisson(0.5, size=(n, 35)).astype(float))
        y[:, 0] += 1.0
        blocks = [rng.normal(size=(n, 1)), rng.normal(size=(n, 5))]
    ranks, routed = [], []
    gram_fit, svd_route = ordination._gram_fit, ordination._svd_route

    def checked_gram_fit(factor, gram, cross, sums, g, weight, n):
        fits = gram_fit(factor, gram, cross, sums, g, weight, n)
        left, reads = factor
        for (fitted, rank, ok), (r_b, at) in zip(fits, reads):
            # A block of the leading factor fits in the first r_b columns.
            fold = np.eye(r_b, gram.shape[1]) if left is None else left
            ref_fitted, ref_rank, ref_ok = _eigh_reference(
                fold @ gram @ fold.T, fold @ cross, g, weight, sums[:, at], n)
            assert np.all(ref_ok[ok]) and np.all(rank[ok] == ref_rank[ok])
            assert np.all(np.abs(fitted - ref_fitted)[ok]
                          <= 1e-13 * np.abs(ref_fitted[ok]))
            ranks.append(r_b)
        return fits

    def recording_svd_route(r, w, *args):
        routed.append(len(w))
        return svd_route(r, w, *args)

    monkeypatch.setattr(ordination, "_gram_fit", checked_gram_fit)
    monkeypatch.setattr(ordination, "_svd_route", recording_svd_route)
    _fit(y, blocks, method, _counts(rng, n, k=60))
    assert ranks == ([1, 1, 2] if method == "rda" else [1, 5, 6])
    assert routed == []


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_rare_dummy_level_sends_only_the_replicates_that_miss_it_to_svd(
        method, monkeypatch):
    # A dummy-coded factor with one level at a single site: a replicate
    # that misses the site has a constant column and a singular Gram
    # matrix. Only those replicates, not their chunks of 8, take the SVD
    # route, where the column drops out of the rank.
    rng = np.random.default_rng(138)
    n = 30
    y = rng.uniform(0.5, 4.0, size=(n, 4))
    level = rng.permutation(np.arange(n) % 2 + 1)
    level[0] = 0  # the rare level
    dummies = np.column_stack([level == 0, level == 1]).astype(float)
    counts, _, ranks, routed = _assert_replicates_fit_as_their_tables(
        y, [dummies, rng.normal(size=(n, 1))], method, monkeypatch,
        m_replicates=1000)
    missed = counts[:, 0] == 0
    assert routed == np.count_nonzero(missed) > 0
    assert np.array_equal(ranks[:, 0], np.where(missed, 1, 2))


# Nested blocks: the largest block of rank below the union's (the spatial
# block of a partition) is the leading part of the union basis, and its
# fit is read from the factor of the blocks that span the whole union.

def _effect(env):
    """``experiments._effect_r2``'s blocks."""
    return [("both gradients", env), ("first gradient", env[:, :1])]


def _nested_inputs(shape, method, rng, n=100):
    """A table, its blocks and their naming: ``partition`` is shaped like
    an analyze benchmark input (RDA 100 x 2 with blocks of 1 and 1
    columns, CCA 100 x 35, sparse, with blocks of 1 and 5), ``dummy`` is
    that with the spatial block's last column a dummy of site 0, so that a
    replicate that misses the site fails both certificates, and
    ``effect`` is ``_effect_r2``'s two gradients."""
    if method == "rda":
        y, x, w = (rng.normal(size=(n, 2)), rng.normal(size=(n, 1)),
                   rng.normal(size=(n, 1)))
    else:
        y = np.log1p(rng.poisson(0.5, size=(n, 35)).astype(float))
        y[:, 0] += 1.0
        x, w = rng.normal(size=(n, 1)), rng.normal(size=(n, 5))
    if shape == "effect":
        return y, [rng.normal(size=(n, 2))], _effect
    if shape == "dummy":
        w = np.column_stack([w, np.arange(n) == 0]).astype(float)
    return y, [x, w], _named


def _spied_nested_reads(monkeypatch):
    """Spy on ``_gram_fit``: for each block of the leading factor below the
    union's rank, ``(prefix, own, lam, weight, n)``: its ``(fitted, rank,
    ok)``, the same of the block's own factor (``left`` its ``[I 0]``, the
    per-block certificate), the eigenvalues of its Gram matrix and the
    weight totals."""
    reads, gram_fit = [], ordination._gram_fit

    def spying_gram_fit(factor, gram, cross, sums, g, weight, n):
        fits = gram_fit(factor, gram, cross, sums, g, weight, n)
        left, blocks = factor
        r = gram.shape[1]
        for fit, (r_b, at) in zip(fits, blocks):
            if left is None and r_b < r:
                own = gram_fit((np.eye(r_b, r), ((r_b, at),)), gram, cross,
                               sums, g, weight, n)[0]
                reads.append((fit, own, np.linalg.eigvalsh(
                    gram[:, :r_b, :r_b]), weight, n))
        return fits

    monkeypatch.setattr(ordination, "_gram_fit", spying_gram_fit)
    return reads


@pytest.mark.parametrize("shape,method", [
    ("partition", "rda"), ("partition", "cca"), ("dummy", "rda"),
    ("dummy", "cca"), ("effect", "rda")])
def test_a_nested_block_fits_as_its_own_factor_and_its_table(
        shape, method, monkeypatch):
    # Every replicate fits as its resampled table (fractions to 1e-12 and
    # the same ranks), and the nested read certifies a row exactly where
    # the block's own factor would, but for rows within a factor 2 of a
    # gate, where roundoff may tip either; both fit a row they certify
    # alike to 1e-12.
    rng = np.random.default_rng(139)
    y, blocks, named = _nested_inputs(shape, method, rng)
    reads = _spied_nested_reads(monkeypatch)
    _assert_replicates_fit_as_their_tables(y, blocks, method, monkeypatch,
                                           m_replicates=60, named=named)
    assert reads
    certified = []
    for (fitted, rank, ok), (own_fitted, own_rank, own_ok), lam, weight, n \
            in reads:
        with np.errstate(divide="ignore"):
            inverse = np.where(lam[:, 0] > 0.0, (1.0 / lam).sum(axis=1),
                               np.inf)
        product, floor = lam.sum(axis=1) * inverse, 2.0 * weight * inverse
        near = ((_CONDITION / 4 <= product) & (product <= _CONDITION)
                | (_CONDITION * n / 2 <= floor) & (floor <= 2 * _CONDITION * n))
        assert np.array_equal(ok[~near], own_ok[~near])
        both = ok & own_ok
        assert np.array_equal(rank[both], own_rank[both])
        assert np.all(np.abs(fitted - own_fitted)[both]
                      <= 1e-12 * np.abs(own_fitted[both]))
        certified.append(ok)
    certified = np.concatenate(certified)
    assert certified.any()
    assert (not certified.all()) == (shape == "dummy")


def _golden_blocks(method, scale=1.0):
    """The golden analyze inputs of ``method`` as ``analyze`` fits them,
    with the spatial block's entries times ``scale``: a 2-column spatial
    block (site coordinates) is expanded to its trend surface."""
    table, env, spatial = golden_outputs._inputs(method)
    ids = table.site_ids
    spatial = PredictorBlock("spatial", ids, scale * spatial)
    if spatial.n_columns == 2:
        spatial = trend_surface(spatial)
    return table, PredictorBlock("env", ids, env), spatial


def _routed_analysis(method, scale=1.0):
    """The report of ``run_analysis`` on the golden inputs (M = 1000) and,
    per bootstrap chunk (``_Plan.explained`` call), how many factor loops
    (``_gram_fit`` calls) it ran and how many (replicate, block) pairs it
    sent to the SVD route."""
    chunks, inside = [], []
    explained = ordination._Plan.explained
    gram_fit, svd_route = ordination._gram_fit, ordination._svd_route

    def recording_explained(plan, c):
        chunks.append([0, 0])
        inside.append(True)
        try:
            return explained(plan, c)
        finally:
            inside.pop()

    def recording_gram_fit(*args):
        if inside:
            chunks[-1][0] += 1
        return gram_fit(*args)

    def recording_svd_route(r, w, h, designs, svd, method):
        if inside:
            chunks[-1][1] += int(svd.sum())
        return svd_route(r, w, h, designs, svd, method)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ordination._Plan, "explained", recording_explained)
        patch.setattr(ordination, "_gram_fit", recording_gram_fit)
        patch.setattr(ordination, "_svd_route", recording_svd_route)
        report = run_analysis(*_golden_blocks(method, scale), seed=1,
                              method=method, m_replicates=1000)
    return report, chunks


@pytest.mark.parametrize("method", ["rda", "cca"])
def test_golden_analyze_chunks_run_two_factor_loops(method):
    # Env has a factor of its own; the spatial block is read from the
    # joint block's factor, not factored a third time. No replicate takes
    # the SVD route.
    _, chunks = _routed_analysis(method)
    assert len(chunks) > 1
    assert chunks == [[2, 0]] * len(chunks)


def _numbers(report):
    """The report's numbers, by path, less its run time."""
    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from walk(item, f"{path}.{key}")
        elif isinstance(value, float):
            yield path, value
    data = report_to_dict(report)
    del data["runtime_seconds"]
    return dict(walk(data, ""))


def test_metre_scale_coordinates_fit_as_unit_scale_ones():
    # The golden CCA coordinates times 1000, the metre scale of the Barro
    # Colorado Island plot. Expanded raw, the trend surface's singular
    # values put the union in the rank band and every pair took the SVD
    # route; standardised first, none does, and every number of the report
    # is the unit-scale one to 1e-12 relative.
    unit, _ = _routed_analysis("cca")
    metres, chunks = _routed_analysis("cca", scale=1000.0)
    assert sum(routed for _, routed in chunks) == 0
    expected, actual = _numbers(unit), _numbers(metres)
    assert actual.keys() == expected.keys()
    for path, value in expected.items():
        assert abs(actual[path] - value) <= 1e-12 * abs(value), path

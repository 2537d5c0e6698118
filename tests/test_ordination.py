"""Oracle-backed tests for the core ordination statistics.

Every numerical claim is checked against an independent brute-force
computation (column-wise least squares, double-loop chi-square) rather
than against the implementation's own intermediate values.
"""

import warnings

import numpy as np
import pytest

from test_properties import chi_square_deviations, kernel_projector
from vpboot.analysis import partition_tables
from vpboot.errors import DegenerateDataError, ValidationError
from vpboot.ordination import (PartitionResult, _block_fractions, _r2,
                               _svd_route)
from vpboot.tables import PredictorBlock


def ols_r2_oracle(y, x):
    """Pooled R2 from per-column ordinary least squares on centred data."""
    yc = y - y.mean(axis=0)
    xc = x - x.mean(axis=0)
    coef, *_ = np.linalg.lstsq(xc, yc, rcond=None)
    fitted = xc @ coef
    return float(np.sum(fitted * fitted)) / float(np.sum(yc * yc))


def adjusted_r2_oracle(y, x):
    """Adjusted R2 of ``x`` from least squares on centred columns, with the
    rank of the centred block as the predictor count."""
    n = y.shape[0]
    m = np.linalg.matrix_rank(x - x.mean(axis=0))
    return 1.0 - (1.0 - ols_r2_oracle(y, x)) * (n - 1) / (n - m - 1)


def unit_r2(y, x):
    """Unadjusted R2 of ``x`` from the kernel's unit RDA fit."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    total, fitted, _ = _svd_route(
        y[np.newaxis], np.ones((1, len(y))), np.ones((1, y.shape[-1])),
        [x[np.newaxis]], np.ones((1, 1), dtype=bool), "rda")
    return float(_r2(total, fitted)[0, 0])


def rda_fit(y, x):
    """Adjusted R2 of ``x``, by the route of the reports."""
    fractions, _ = _block_fractions(y, [("X", x)], "rda")
    return float(fractions[0, 0])


def rda_partition(y, x, w):
    """The RDA partition of the reports, on the table as given."""
    return partition_tables(y, x, w, method="rda", log1p=False)


def cca_share(y, x):
    """Share of chi-square inertia of ``x``, by the route of the reports."""
    shares, _ = _block_fractions(y, [("X", x)], "cca")
    return float(shares[0, 0])


def chi_square_oracle(y):
    """Pearson chi-square of a table divided by its grand total, both loops."""
    total = y.sum()
    chi2 = 0.0
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            expected = y[i].sum() * y[:, j].sum() / total
            chi2 += (y[i, j] - expected) ** 2 / expected
    return chi2 / total


def standardised_deviations_oracle(y):
    """Deviations ``(p_ij - r_i c_j) / sqrt(r_i c_j)`` of the proportion
    table ``p`` from independence, and its row weights ``r``."""
    p = y / y.sum()
    r, c = p.sum(axis=1), p.sum(axis=0)
    return (p - np.outer(r, c)) / np.sqrt(np.outer(r, c)), r


def test_projection_recovers_exact_linear_response():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 2))
    y = x @ rng.normal(size=(2, 3))
    assert np.allclose(kernel_projector(x) @ y, y - y.mean(axis=0),
                       atol=1e-10)


def test_projection_onto_zero_design_is_zero():
    rng = np.random.default_rng(12)
    y = rng.normal(size=(5, 2))
    for empty in (np.zeros((5, 3)), np.empty((5, 0))):
        assert np.array_equal(kernel_projector(empty) @ y, np.zeros((5, 2)))


def test_projection_matches_slope_intercept_oracle():
    rng = np.random.default_rng(13)
    x = rng.normal(size=5)
    y = rng.normal(size=(5, 2))
    fitted = kernel_projector(x[:, np.newaxis]) @ y + y.mean(axis=0)
    for j in range(2):
        slope = (np.cov(x, y[:, j], ddof=1)[0, 1] / np.var(x, ddof=1))
        intercept = y[:, j].mean() - slope * x.mean()
        assert np.allclose(fitted[:, j], intercept + slope * x, atol=1e-10)


def test_projection_residual_is_orthogonal_to_design():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=(7, 2))
        residual = y - kernel_projector(x) @ y
        assert np.all(np.abs((x - x.mean(axis=0)).T @ residual) < 1e-8)


def test_rda_unit_r2_matches_columnwise_ols_oracle():
    rng = np.random.default_rng(16)
    for _ in range(150):
        n = int(rng.integers(4, 7))
        y = rng.normal(size=(n, int(rng.integers(1, 4))))
        x = rng.normal(size=(n, int(rng.integers(1, 3))))
        assert unit_r2(y, x) == pytest.approx(ols_r2_oracle(y, x), abs=1e-10)


def test_rda_unit_r2_perfect_null_and_constant_cases():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(6, 2))
    y = x @ rng.normal(size=(2, 2)) + 0.3
    assert unit_r2(y, x) == pytest.approx(1.0, abs=1e-10)

    yc = rng.normal(size=(6, 1))
    yc -= yc.mean(axis=0)
    probe = rng.normal(size=(6, 1))
    probe -= probe.mean(axis=0)
    orthogonal = probe - yc * (yc.T @ probe).item() / (yc.T @ yc).item()
    assert unit_r2(yc, orthogonal) <= 1e-12

    assert unit_r2(np.full((5, 2), 3.0), rng.normal(size=(5, 1))) == 0.0


def test_rda_fit_requires_three_aligned_rows():
    with pytest.raises(ValidationError):
        rda_fit(np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValidationError):
        rda_fit(np.ones((4, 1)), np.ones((3, 1)))


def test_rda_fit_rejects_non_finite_input():
    rng = np.random.default_rng(15)
    y, x = rng.normal(size=(5, 2)), rng.normal(size=(5, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an error, not a RuntimeWarning first
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="^design contains"):
                rda_fit(y, np.vstack([x[:4], [[bad]]]))
            with pytest.raises(ValidationError, match="^matrix contains"):
                rda_fit(np.vstack([y[:4], [[bad, 1.0]]]), x)


def test_rda_unit_r2_is_affine_invariant_in_the_design():
    rng = np.random.default_rng(18)
    for _ in range(100):
        y = rng.normal(size=(6, 2))
        x = rng.normal(size=(6, 2))
        recoded = x @ rng.normal(size=(2, 2)) + rng.normal(size=2)
        if np.linalg.matrix_rank(recoded - recoded.mean(axis=0)) < 2:
            continue  # the random recoding collapsed the column space
        assert unit_r2(y, recoded) == pytest.approx(unit_r2(y, x), abs=1e-10)


def test_rda_partition_matches_three_fit_oracle():
    rng = np.random.default_rng(19)
    for k in range(100):
        n = 8
        y = rng.normal(size=(n, 3))
        x = rng.normal(size=(n, 2))
        if k % 4 == 0:
            x[:, 1] = 2.0 * x[:, 0]  # a rank-1 block of two columns
        w = rng.normal(size=(n, 1))
        part = rda_partition(y, x, w)
        r2_x = adjusted_r2_oracle(y, x)
        r2_w = adjusted_r2_oracle(y, w)
        r2_xw = adjusted_r2_oracle(y, np.hstack([x, w]))
        assert part.frac_pure_x == pytest.approx(r2_xw - r2_w, abs=1e-12)
        assert part.frac_pure_w == pytest.approx(r2_xw - r2_x, abs=1e-12)
        assert part.frac_shared == pytest.approx(r2_x + r2_w - r2_xw, abs=1e-12)
        assert part.frac_residual == pytest.approx(1.0 - r2_xw, abs=1e-12)
        total = part.frac_pure_x + part.frac_shared + part.frac_pure_w
        assert abs(total - part.r2_xw) <= 1e-12


def test_varpart_collapses_for_empty_second_block():
    rng = np.random.default_rng(20)
    ids = tuple(f"s{i}" for i in range(9))
    y = rng.normal(size=(9, 2))
    x = PredictorBlock("x", ids, rng.normal(size=(9, 2)))
    w = PredictorBlock("w", ids, np.empty((9, 0)))
    part = rda_partition(y, x, w)
    assert part.r2_w == 0.0
    assert part.frac_pure_w == 0.0
    assert part.frac_shared == 0.0
    assert part.frac_pure_x == part.r2_xw

    # 0.1 has no exact binary form; one centring pass leaves roundoff, and
    # with it a rank of 1 and a nonzero fit.
    constant = rda_partition(rng.normal(size=(7, 2)), rng.normal(size=(7, 1)),
                             np.full((7, 1), 0.1))
    assert constant.r2_w == 0.0


def test_varpart_duplicate_blocks_share_everything():
    rng = np.random.default_rng(21)
    ids = tuple(f"s{i}" for i in range(10))
    y = rng.normal(size=(10, 2))
    x = PredictorBlock("x", ids, rng.normal(size=(10, 2)))
    w = PredictorBlock("w", ids, x.values)
    part = rda_partition(y, x, w)
    assert part.frac_pure_x == pytest.approx(0.0, abs=1e-12)
    assert part.frac_pure_w == pytest.approx(0.0, abs=1e-12)
    assert part.frac_shared == pytest.approx(part.r2_x, abs=1e-12)


def test_varpart_names_the_offending_block():
    rng = np.random.default_rng(22)
    ids = ("a", "b", "c", "d")
    y = rng.normal(size=(4, 2))
    habitat = PredictorBlock("habitat", ids, rng.normal(size=(4, 3)))
    other = PredictorBlock("space", ids, rng.normal(size=(4, 1)))
    with pytest.raises(DegenerateDataError, match="habitat"):
        rda_partition(y, habitat, other)


def test_partition_result_enforces_its_identities():
    with pytest.raises(ValidationError, match="do not sum to the joint R2"):
        PartitionResult(frac_pure_x=0.3, frac_shared=0.1, frac_pure_w=0.2,
                        frac_residual=0.4, r2_x=0.4, r2_w=0.3, r2_xw=0.7)
    with pytest.raises(ValidationError,
                       match="residual fraction does not complement"):
        PartitionResult(frac_pure_x=0.3, frac_shared=0.1, frac_pure_w=0.2,
                        frac_residual=0.5, r2_x=0.4, r2_w=0.3, r2_xw=0.6)
    part = PartitionResult(frac_pure_x=0.3, frac_shared=0.1, frac_pure_w=0.2,
                           frac_residual=0.4, r2_x=0.4, r2_w=0.3, r2_xw=0.6)
    assert sum(part.rollup()) == pytest.approx(1.0, abs=1e-12)
    assert part.rollup() == (part.frac_pure_x,
                             part.frac_shared + part.frac_pure_w,
                             part.frac_residual)


def test_chi_square_deviations_match_direct_formula():
    rng = np.random.default_rng(23)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(2, 7))
        y = rng.uniform(0.1, 5.0, size=(n, p))
        inertia = np.sum(np.square(chi_square_deviations(y)))
        assert inertia == pytest.approx(chi_square_oracle(y), abs=1e-10)


def test_chi_square_deviations_known_values():
    diagonal = chi_square_deviations([[10.0, 0.0], [0.0, 10.0]])
    assert np.sum(np.square(diagonal)) == pytest.approx(1.0, abs=1e-12)

    u = np.array([1.0, 2.0, 3.0])
    v = np.array([0.5, 1.5])
    independent = chi_square_deviations(np.outer(u, v))
    assert np.sum(np.square(independent)) == pytest.approx(0.0, abs=1e-12)


def test_cca_fit_rejects_negative_non_finite_and_empty_tables():
    # All-zero sites and species are pruned, not rejected
    # (test_analysis.test_cca_partition_prunes_empty_sites).
    x = np.arange(3.0)[:, np.newaxis]
    with pytest.raises(ValidationError, match="negative"):
        cca_share([[1.0, -0.5], [2.0, 1.0], [1.0, 1.0]], x)
    with pytest.raises(DegenerateDataError, match="only 0 non-empty sites"):
        cca_share(np.zeros((3, 2)), x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="^table contains"):
                cca_share([[1.0, bad], [2.0, 1.0], [1.0, 2.0]], x)


def test_cca_explained_saturated_and_null_designs():
    # Two groups of identical rows: all inertia lies on the one axis that
    # separates them.
    grouped = np.array([[5.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    assert np.sum(np.square(chi_square_deviations(grouped))) == pytest.approx(
        1.0, abs=1e-12)
    assert cca_share(grouped, [[1.0], [1.0], [0.0]]) == pytest.approx(
        1.0, abs=1e-10)

    rng = np.random.default_rng(24)
    y = rng.uniform(0.5, 4.0, size=(5, 3))
    assert cca_share(y, np.full((5, 1), 2.0)) == pytest.approx(0.0, abs=1e-12)


def test_cca_explained_matches_weighted_ols_oracle():
    rng = np.random.default_rng(25)
    for _ in range(60):
        y = rng.uniform(0.1, 4.0, size=(6, 3))
        x = rng.normal(size=(6, 1))
        qbar, r = standardised_deviations_oracle(y)
        total = chi_square_oracle(y)
        xc = x - r @ x
        xw = np.sqrt(r)[:, None] * xc
        ssq = 0.0
        for j in range(qbar.shape[1]):
            coef = float(xw[:, 0] @ qbar[:, j]) / float(xw[:, 0] @ xw[:, 0])
            ssq += float(np.sum((xw[:, 0] * coef) ** 2))
        share = cca_share(y, x)
        assert share * total == pytest.approx(ssq, abs=1e-10)
        assert 0.0 <= share <= 1.0


def test_cca_proportion_is_scale_invariant():
    rng = np.random.default_rng(26)
    for _ in range(100):
        y = rng.uniform(0.1, 4.0, size=(5, 4))
        x = rng.normal(size=(5, 2))
        base = cca_share(y, x)
        scaled = cca_share(3.7 * y, x)
        assert scaled == pytest.approx(base, abs=1e-10)

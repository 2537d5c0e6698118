"""Acceptance gate: nine end-to-end criteria.

Each test prints exactly one ``criterion N (...): PASS/FAIL`` line before
asserting, recomputes every gating statistic from the emitted artifacts
with test-local oracles, and uses the stated thresholds verbatim.
"""

import csv
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from vpboot.analysis import partition_tables
from vpboot.cli import main
from vpboot.tables import PredictorBlock

from test_ordination import unit_r2
from test_properties import chi_square_deviations
from test_properties import \
    test_chi_square_weighted_marginals_vanish as check_chi_square_marginals
from test_properties import \
    test_generated_rows_hit_the_capacity_band as check_capacity_band
from test_properties import \
    test_projection_is_idempotent as check_projection_idempotent
from test_properties import \
    test_resampling_keeps_sites_glued as check_sites_glued

SEED = 1


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} ({desc}): {status}{suffix}")


# ---------------------------------------------------------------- oracles


def _ols_r2(y: np.ndarray, x: np.ndarray) -> float:
    design = np.column_stack([np.ones(len(y)), x])
    sse = ssy = 0.0
    for j in range(y.shape[1]):
        col = y[:, j]
        coef, *_ = np.linalg.lstsq(design, col, rcond=None)
        resid = col - design @ coef
        sse += float(resid @ resid)
        ssy += float((col - col.mean()) @ (col - col.mean()))
    return 1.0 - sse / ssy if ssy > 0 else 0.0


def _chi2_inertia(y: np.ndarray) -> float:
    total = y.sum()
    rows = y.sum(axis=1)
    cols = y.sum(axis=0)
    chi2 = 0.0
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            expected = rows[i] * cols[j] / total
            chi2 += (y[i, j] - expected) ** 2 / expected
    return chi2 / total


def _pearson(xs, ys) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xd, yd = x - x.mean(), y - y.mean()
    return float(xd @ yd) / math.sqrt(float(xd @ xd) * float(yd @ yd))


def _ranks(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _spearman(xs, ys) -> float:
    return _pearson(_ranks(xs), _ranks(ys))


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


# ------------------------------------------------------------- criterion 1


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_rda = worst_chi = worst_identity = 0.0
    for _ in range(120):
        n = int(rng.integers(4, 7))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        y = rng.normal(size=(n, p))
        x = rng.normal(size=(n, m))
        worst_rda = max(worst_rda, abs(unit_r2(y, x) - _ols_r2(y, x)))

        counts = rng.uniform(0.1, 9.0, size=(n, p + 1))
        inertia = np.sum(np.square(chi_square_deviations(counts)))
        worst_chi = max(worst_chi, abs(inertia - _chi2_inertia(counts)))

        ids = tuple(f"s{i}" for i in range(8))
        yy = rng.normal(size=(8, 2))
        part = partition_tables(
            yy,
            PredictorBlock("x", ids, rng.normal(size=(8, 2))),
            PredictorBlock("w", ids, rng.normal(size=(8, int(rng.integers(1, 3))))),
            method="rda", log1p=False)
        worst_identity = max(
            worst_identity,
            abs(part.frac_pure_x + part.frac_shared + part.frac_pure_w
                + part.frac_residual - 1.0),
            abs(part.frac_pure_x + part.frac_shared - part.r2_x),
            abs(part.frac_pure_w + part.frac_shared - part.r2_w))
    ok = worst_rda <= 1e-10 and worst_chi <= 1e-10 and worst_identity <= 1e-12
    _report(1, "ordination matches independent oracles", ok,
            f"rda={worst_rda:.1e}, chi2={worst_chi:.1e}, "
            f"identity={worst_identity:.1e}")
    assert worst_rda <= 1e-10
    assert worst_chi <= 1e-10
    assert worst_identity <= 1e-12


# ---------------------------------------------------------- criteria 2 - 4


def test_criterion_2_sample_size_trend(figure_artifacts):
    out, elapsed, code = figure_artifacts("fig2")
    cells = [r for r in _read_rows(out / "fig2_results.csv")
             if float(r["sigma_noise"]) == 0.01]
    rho = _spearman([float(r["n_sites"]) for r in cells],
                    [float(r["observed_relative_error"]) for r in cells])
    ok = code == 0 and len(cells) == 6 and rho <= -0.9 and elapsed < 300
    _report(2, "relative error falls as sites increase: rho <= -0.9", ok,
            f"rho={rho:.3f}, {elapsed:.0f}s")
    assert code == 0
    assert len(cells) == 6
    assert rho <= -0.9
    assert elapsed < 300


def test_criterion_3_sampling_range_trend(figure_artifacts):
    out, elapsed, code = figure_artifacts("fig3")
    cells = [r for r in _read_rows(out / "fig3_results.csv")
             if float(r["sigma_noise"]) == 0.01]
    rho = _spearman([float(r["y_max"]) for r in cells],
                    [float(r["observed_relative_error"]) for r in cells])
    mean_narrow = next(float(r["observed_mean_r2"]) for r in cells
                       if float(r["y_max"]) == 0.1)
    mean_full = next(float(r["observed_mean_r2"]) for r in cells
                     if float(r["y_max"]) == 1.0)
    ok = (code == 0 and len(cells) == 10 and rho <= -0.9
          and mean_narrow < mean_full)
    _report(3, "narrow sampled range inflates error and shrinks effect", ok,
            f"rho={rho:.3f}, mean@0.1={mean_narrow:.4f} < "
            f"mean@1.0={mean_full:.4f}, {elapsed:.0f}s")
    assert code == 0
    assert len(cells) == 10
    assert rho <= -0.9
    assert mean_narrow < mean_full


def test_criterion_4_niche_separation_trend(figure_artifacts):
    out, elapsed, code = figure_artifacts("fig4")
    cells = [r for r in _read_rows(out / "fig4_results.csv")
             if float(r["sigma_noise"]) == 0.01]
    rho = _spearman([float(r["y_opt2"]) for r in cells],
                    [float(r["observed_relative_error"]) for r in cells])
    ok = code == 0 and len(cells) == 11 and rho <= -0.9
    _report(4, "closer niche optima inflate relative error: rho <= -0.9", ok,
            f"rho={rho:.3f}, {elapsed:.0f}s")
    assert code == 0
    assert len(cells) == 11
    assert rho <= -0.9


# ---------------------------------------------------------- criteria 5 - 6


def test_criterion_5_bootstrap_validation_band(figure_artifacts):
    out, elapsed, code = figure_artifacts("fig5")
    rows = _read_rows(out / "fig5_results.csv")
    pairs = [(float(r["observed_relative_error"]),
              float(r["bootstrap_relative_error"])) for r in rows]
    band = [(x, y) for x, y in pairs if 0.03 <= x <= 1.0]
    above = [(x, y) for x, y in pairs if x > 1.0]
    r = _pearson([p[0] for p in band], [p[1] for p in band])
    mean_diff = float(np.mean([y - x for x, y in above])) if above else None

    checks = json.loads((out / "fig5_checks.json").read_text())["checks"]
    reported = next(c for c in checks if c["name"] == "band_correlation")
    consistent = (reported["n_pairs"] == len(band)
                  and abs(reported["pearson_r"] - r) < 1e-9)

    ok = (code == 0 and len(rows) == 81 and len(band) >= 3 and r >= 0.85
          and above and mean_diff > 0 and elapsed < 900 and consistent)
    _report(5, "bootstrap error tracks observed error on the 3-100% band", ok,
            f"r={r:.3f} on {len(band)} pairs, above-band diff="
            f"{mean_diff:+.3f} on {len(above)} pairs, {elapsed:.0f}s")
    assert code == 0
    assert len(rows) == 81
    assert len(band) >= 3
    assert r >= 0.85
    assert above and mean_diff > 0
    assert elapsed < 900
    assert consistent


def test_criterion_6_many_species_validation(figure_artifacts):
    out, elapsed, code = figure_artifacts("fig6")
    rows = _read_rows(out / "fig6_results.csv")
    observed = [float(r["observed_relative_error"]) for r in rows]
    estimated = [float(r["bootstrap_relative_error"]) for r in rows]
    r = _pearson(observed, estimated)
    ok = (code == 0 and len(rows) == 100 and r >= 0.9
          and min(observed) <= 0.01 and max(observed) >= 0.25
          and elapsed < 900)
    _report(6, "many-species validation: pooled r >= 0.9, span [0.01, 0.25]",
            ok, f"r={r:.3f} on {len(rows)} pairs, span "
            f"[{min(observed):.2g}, {max(observed):.2g}], {elapsed:.0f}s")
    assert code == 0
    assert len(rows) == 100
    assert r >= 0.9
    assert min(observed) <= 0.01
    assert max(observed) >= 0.25
    assert elapsed < 900


# ------------------------------------------------------------- criterion 7


def _survey_dir() -> Path | None:
    candidates = []
    env_dir = os.environ.get("VPBOOT_MITE_DIR")
    if env_dir:
        candidates.append(Path(env_dir))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mite")
    for directory in candidates:
        needed = [directory / name for name in
                  ("community.csv", "env.csv", "spatial.csv")]
        if all(p.is_file() for p in needed):
            return directory
    return None


def test_criterion_7_survey_analysis(tmp_path):
    directory = _survey_dir()
    if directory is None:
        # The skip reason carries the criterion line because pytest only
        # echoes captured stdout for tests that pass.
        pytest.skip("criterion 7 (survey data partition): SKIP (no dataset; "
                    "set VPBOOT_MITE_DIR or add "
                    "data/mite/{community,env,spatial}.csv)")
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["analyze", str(directory / "community.csv"),
                 str(directory / "env.csv"), str(directory / "spatial.csv"),
                 "--method", "cca", "--bootstrap", "1000",
                 "--seed", str(SEED), "--out", str(out)])
    elapsed = time.perf_counter() - start
    payload = json.loads(out.read_text())
    env_pure = payload["fractions"]["env_pure"]
    rel = [payload["uncertainty"][k]["relative_uncertainty"]
           for k in ("env_pure", "spatial_including_shared", "residual")]
    ok = (code == 0 and 0.15 <= env_pure <= 0.35
          and all(0.05 <= u <= 0.25 for u in rel) and elapsed <= 60)
    _report(7, "survey data partition in published bands", ok,
            f"env_pure={env_pure:.3f}, rel={[round(u, 3) for u in rel]}, "
            f"{elapsed:.0f}s")
    assert code == 0
    assert 0.15 <= env_pure <= 0.35
    assert all(0.05 <= u <= 0.25 for u in rel)
    assert elapsed <= 60


# ------------------------------------------------------------- criterion 8


def test_criterion_8_thread_count_never_changes_bytes(figure_artifacts,
                                                      tmp_path):
    serial_out, _, serial_code = figure_artifacts("fig4")
    threaded_out, _, threaded_code = figure_artifacts("fig4", threads=2)
    names = ("fig4_results.csv", "fig4_checks.json", "fig4.svg")
    same = [(serial_out / n).read_bytes() == (threaded_out / n).read_bytes()
            for n in names]

    config = tmp_path / "scenario.cfg"
    config.write_text("seed = 77\nn_sites = 12\nsigma_noise = 0.05\n")
    codes = [main(["simulate", str(config), "--out", str(tmp_path / run)])
             for run in ("a", "b")]
    sim_same = all(
        (tmp_path / f"a{ext}").read_bytes()
        == (tmp_path / f"b{ext}").read_bytes()
        for ext in (".community.csv", ".env.csv"))

    ok = (serial_code == 0 and threaded_code == 0 and all(same)
          and codes == [0, 0] and sim_same)
    _report(8, "same seed, different --threads: byte-identical outputs", ok,
            f"artifacts identical={all(same)}, repeat simulate identical="
            f"{sim_same}")
    assert serial_code == 0 and threaded_code == 0
    assert all(same), [n for n, s in zip(names, same) if not s]
    assert codes == [0, 0] and sim_same


# ------------------------------------------------------------- criterion 9


def test_criterion_9_property_suites():
    check_projection_idempotent()
    check_chi_square_marginals()
    check_capacity_band()
    check_sites_glued()
    _report(9, "four invariant suites, 1000 randomized cases each", True)

"""Labelled site-by-species tables and predictor blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def as_matrix(data) -> np.ndarray:
    """Coerce a table, block, or array-like to a 2-D float array.

    One-dimensional input is treated as a single column.
    """
    if isinstance(data, (CommunityTable, PredictorBlock)):
        return data.values
    a = np.asarray(data, dtype=float)
    if a.ndim == 1:
        a = a[:, np.newaxis]
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got {a.ndim} dimensions")
    return a


def _frozen_matrix(values, *, what: str) -> np.ndarray:
    a = np.array(as_matrix(values), dtype=float, copy=True)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} contains non-finite entries")
    a.setflags(write=False)
    return a


def _labels(ids, count: int, *, what: str) -> tuple[str, ...]:
    labels = tuple(str(s) for s in ids)
    if len(labels) != count:
        raise ValidationError(
            f"{what}: {len(labels)} labels for {count} {what.split()[0]}s")
    if len(set(labels)) != len(labels):
        dupes = sorted({s for s in labels if labels.count(s) > 1})
        raise ValidationError(f"duplicate {what}: {dupes}")
    return labels


@dataclass(frozen=True)
class CommunityTable:
    """Immutable sites-by-species abundance matrix with row and column labels."""

    site_ids: tuple[str, ...]
    species_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        a = _frozen_matrix(self.values, what="community table")
        if a.shape[0] < 2:
            raise ValidationError("community table needs at least 2 sites")
        if a.shape[1] < 1:
            raise ValidationError("community table needs at least 1 species")
        if np.any(a < 0):
            i, j = np.argwhere(a < 0)[0]
            raise ValidationError(
                f"negative abundance at site index {i}, species index {j}")
        object.__setattr__(self, "values", a)
        object.__setattr__(
            self, "site_ids", _labels(self.site_ids, a.shape[0], what="site ids"))
        object.__setattr__(
            self, "species_ids",
            _labels(self.species_ids, a.shape[1], what="species ids"))

    @property
    def n_sites(self) -> int:
        return self.values.shape[0]

    @property
    def n_species(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PredictorBlock:
    """Immutable named block of per-site predictor columns.

    A block may have zero columns, in which case it explains nothing by
    construction.
    """

    name: str
    site_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        a = _frozen_matrix(self.values, what=f"block '{self.name}'")
        if a.shape[0] < 2:
            raise ValidationError("predictor block needs at least 2 sites")
        object.__setattr__(self, "values", a)
        object.__setattr__(
            self, "site_ids", _labels(self.site_ids, a.shape[0], what="site ids"))

    @property
    def n_sites(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


def require_aligned(first, *others) -> None:
    """Check that tables/blocks share row count and, where labelled, site ids."""
    n = first.n_sites if hasattr(first, "n_sites") else as_matrix(first).shape[0]
    ids = getattr(first, "site_ids", None)
    for other in others:
        m = other.n_sites if hasattr(other, "n_sites") else as_matrix(other).shape[0]
        if m != n:
            raise ValidationError(f"row mismatch: {n} sites vs {m} sites")
        other_ids = getattr(other, "site_ids", None)
        if ids is not None and other_ids is not None and other_ids != ids:
            bad = [f"{a!r} vs {b!r}" for a, b in zip(ids, other_ids) if a != b]
            raise ValidationError(
                "site labels disagree: " + "; ".join(bad[:5])
                + ("; ..." if len(bad) > 5 else ""))

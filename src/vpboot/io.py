"""CSV tables, scenario documents, and provenance headers.

Tables are written RFC-4180 style with an extra convention: lines starting
with ``#`` before or between records are provenance comments and are skipped
on read. Floats are rendered with ``repr``, the shortest round-tripping
form, so re-writing a parsed file reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import numbers
import os
from dataclasses import asdict

import numpy as np

from .errors import ValidationError
from .synth import ScenarioConfig, SpeciesNiche
from .tables import CommunityTable, PredictorBlock
from ._version import __version__


def format_number(value) -> str:
    """Integers (``int`` or NumPy) digit for digit; floats in the shortest
    exact decimal form, integral ones below 1e16 without the fraction."""
    if isinstance(value, numbers.Integral):
        return str(int(value))
    f = float(value)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def _read_text(path: str) -> str:
    """The file's text without a leading byte-order mark; bytes that are not
    UTF-8 are a ``ValidationError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
        ) from None


def _parse_rows(path: str) -> list[tuple[int, list[str]]]:
    """``(line number, cells)`` of each line that is neither blank nor a
    ``#`` comment. A line is one record: one ``csv.reader`` reads them all,
    unless a quoted field runs past its line, when each line is read on its
    own."""
    kept: list[tuple[int, str]] = []
    for lineno, raw in enumerate(io.StringIO(_read_text(path), newline=""),
                                 start=1):
        stripped = raw.strip("\r\n")
        if not stripped.strip() or stripped.lstrip().startswith("#"):
            continue
        kept.append((lineno, stripped))
    rows = list(csv.reader(line for _, line in kept))
    if len(rows) != len(kept):
        rows = [next(csv.reader([line])) for _, line in kept]
    return [(lineno, row) for (lineno, _), row in zip(kept, rows)]


def read_table_csv(path: str, kind: str = "community", name: str | None = None):
    """Parse a labelled matrix file into a table or predictor block.

    The first non-comment row is the header (corner cell ignored); every
    following row starts with a site label. ``kind`` selects validation:
    ``community`` requires non-negative entries and at least one species
    column, ``predictor`` allows any finite values and zero columns.
    """
    if kind not in ("community", "predictor"):
        raise ValidationError(f"unknown table kind {kind!r}")
    rows = _parse_rows(path)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    _, header = rows[0]
    column_ids = [h.strip() for h in header[1:]]
    if kind == "community" and not column_ids:
        raise ValidationError(f"{path}: community table needs at least 1 species column")
    body = rows[1:]
    if len(body) < 2:
        raise ValidationError(f"{path}: need at least 2 site rows")
    values = _fast_values(body, column_ids, kind)
    if values is None:  # some check fails: find and name its first cell
        values = _checked_values(path, body, column_ids, kind)
    site_ids = [row[0].strip() for _, row in body]
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    if kind == "community":
        return CommunityTable(tuple(site_ids), tuple(column_ids), values)
    return PredictorBlock(name, tuple(site_ids), values)


def _fast_values(body, column_ids, kind: str):
    """The body's values as one array, or None unless every row has a
    cell per column and its site label, every label is present and
    distinct, and every cell is a finite number (non-negative for
    ``community``)."""
    width = len(column_ids) + 1
    labels = {row[0].strip() for _, row in body if len(row) == width}
    if len(labels) != len(body) or "" in labels:
        return None
    try:
        values = np.array([row[1:] for _, row in body], dtype=float)
    except ValueError:
        return None
    if not np.isfinite(values).all() or kind == "community" and (
            values < 0.0).any():
        return None
    return values


def _checked_values(path: str, body, column_ids, kind: str) -> list[list[float]]:
    """The body's values, cell by cell: the first row or cell that fails a
    check raises ``ValidationError`` with its line, column and cell."""
    width = len(column_ids) + 1
    seen: dict[str, int] = {}
    values: list[list[float]] = []
    for lineno, row in body:
        if len(row) != width:
            raise ValidationError(
                f"{path}:{lineno}: expected {width} cells, found {len(row)}")
        label = row[0].strip()
        if not label:
            raise ValidationError(f"{path}:{lineno}: empty site label")
        if label in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate site label {label!r} "
                f"(first seen on line {seen[label]})")
        seen[label] = lineno
        parsed_row = []
        for column_id, cell in zip(column_ids, row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: non-numeric cell {cell!r} "
                    f"in column {column_id!r}") from None
            if v != v or v in (float("inf"), float("-inf")):
                raise ValidationError(
                    f"{path}:{lineno}: non-finite cell in column {column_id!r}")
            if kind == "community" and v < 0:
                raise ValidationError(
                    f"{path}:{lineno}: negative abundance {cell!r} "
                    f"in column {column_id!r}")
            parsed_row.append(v)
        values.append(parsed_row)
    return values


def write_table_csv(path: str, obj, provenance=None) -> None:
    """Write a table or block; ``provenance`` pairs become ``#`` header lines."""
    if isinstance(obj, CommunityTable):
        column_ids = obj.species_ids
    elif isinstance(obj, PredictorBlock):
        column_ids = tuple(f"c{j + 1}" for j in range(obj.n_columns))
        if obj.n_columns == 2 and obj.name == "env":
            column_ids = ("x", "y")
    else:
        raise ValidationError("can only write CommunityTable or PredictorBlock")
    _write_csv(path, provenance, ["site", *column_ids],
               ([label, *row] for label, row in zip(obj.site_ids, obj.values)))


def _write_csv(path: str, provenance, header, rows) -> None:
    """``# key=value`` lines for the ``provenance`` pairs, the header, then
    the rows; a cell is empty for None, kept for a str, and otherwise
    written by ``format_number``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in (provenance or ()):
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v if isinstance(v, str)
                             else format_number(v) for v in row])


_TOP_LEVEL_INT = {"n_sites", "carrying_capacity", "replicates", "seed"}
_TOP_LEVEL_FLOAT = {"sigma_niche", "sigma_noise", "y_max"}
_SPECIES_KEYS = {"x_opt", "y_opt"}


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Parse the flat ``key = value`` scenario document.

    ``#`` starts a comment; each ``[species]`` section adds one species with
    ``x_opt``/``y_opt`` keys; unknown keys are rejected. ``seed`` has no
    default and must be given explicitly.
    """
    top: dict[str, float] = {}
    species: list[dict[str, float]] = []
    current: dict[str, float] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[species]":
            current = {}
            species.append(current)
            continue
        if line.startswith("["):
            raise ValidationError(f"line {lineno}: unknown section {line!r}")
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        scope = current if current is not None else top
        allowed = _SPECIES_KEYS if current is not None else (
            _TOP_LEVEL_INT | _TOP_LEVEL_FLOAT)
        if key not in allowed:
            where = "species section" if current is not None else "top level"
            raise ValidationError(f"line {lineno}: unknown {where} key {key!r}")
        if key in scope:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        try:
            scope[key] = float(value)
        except ValueError:
            raise ValidationError(
                f"line {lineno}: non-numeric value {value!r} for {key!r}") from None
        if not math.isfinite(scope[key]):
            raise ValidationError(
                f"line {lineno}: non-finite value {value!r} for {key!r}")
    if "seed" not in top:
        raise ValidationError(
            "seed is required: add an explicit 'seed = <integer>' line")
    kwargs: dict = {}
    for key, v in top.items():
        if key in _TOP_LEVEL_INT:
            if v != int(v):
                raise ValidationError(f"{key} must be an integer")
            kwargs[key] = int(v)
        else:
            kwargs[key] = v
    if species:
        for i, entry in enumerate(species, start=1):
            missing = _SPECIES_KEYS - set(entry)
            if missing:
                raise ValidationError(
                    f"species section {i} is missing {sorted(missing)}")
        kwargs["niches"] = tuple(
            SpeciesNiche(entry["x_opt"], entry["y_opt"]) for entry in species)
    return ScenarioConfig(**kwargs)


def read_scenario_config(path: str) -> ScenarioConfig:
    """Read and parse a scenario document from disk."""
    return parse_scenario_config(_read_text(path))


def config_digest(config: ScenarioConfig) -> str:
    """Short stable hash of every field, for provenance headers."""
    flat = asdict(config)
    payload = ";".join(f"{k}={flat[k]!r}" for k in sorted(flat))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def provenance_pairs(seed: int, extra=()) -> list[tuple[str, str]]:
    """Standard provenance header: tool version, seed, then extras."""
    pairs = [("tool", f"vpboot {__version__}"), ("seed", str(seed))]
    pairs.extend((str(k), str(v)) for k, v in extra)
    return pairs

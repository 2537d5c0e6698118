"""The ``analyze`` reports, figure artifacts and ``simulate`` tables still
match their golden files (``golden_outputs``).

On the host that wrote them (same NumPy version and BLAS library) every
file must match byte for byte, and each figure's SVG its SHA-256 digest;
elsewhere every number must match to 1e-12 relative (absolute below 1),
and the SVGs are not checked. A failure names each field or CSV cell that
moved, with its absolute and relative move.
"""

import csv
import json
import math

import pytest

import golden_outputs

TOLERANCE = 1e-12


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _csv_fields(text: str) -> dict:
    """A CSV file's ``#`` header lines, column names and cells (numbers
    where they parse), cells keyed ``row N.column`` from row 1."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    reader = csv.reader(line for line in lines if not line.startswith("#"))
    columns = next(reader)
    return {"header": header, "columns": columns,
            **{f"row {i}": {c: _number(v) for c, v in zip(columns, row)}
               for i, row in enumerate(reader, start=1)}}


def _field_moves(expected: str, got: str, tolerance: float,
                 parse=json.loads) -> list[tuple]:
    """``(line, absolute, relative)`` for each field of ``got`` that differs
    from ``expected`` by more than ``tolerance`` (0: any change of bits);
    the sizes are None unless the field is a finite number in both."""
    want, have = dict(_leaves(parse(expected))), dict(_leaves(parse(got)))
    moves = [(f"{field}: missing or added", None, None) for field in sorted(
        want.keys() ^ have.keys())]
    for field in want.keys() & have.keys():
        a, b = want[field], have[field]
        numeric = all(isinstance(v, float) for v in (a, b))
        if not numeric or not (math.isfinite(a) and math.isfinite(b)):
            if a != b and not (a != a and b != b):
                moves.append((f"{field}: {a!r} -> {b!r}", None, None))
            continue
        move = abs(b - a)
        if move > tolerance * max(1.0, abs(a)) or (not tolerance and a != b):
            relative = move / abs(a) if a else math.inf
            moves.append((f"{field}: {a!r} -> {b!r} (absolute {move:.2e}, "
                          f"relative {relative:.2e})", move, relative))
    return moves


def _moves(expected: str, got: str, tolerance: float,
           parse=json.loads) -> list[str]:
    """One line per field of ``got`` that differs from ``expected`` by more
    than ``tolerance`` (0: any change of bits)."""
    return sorted(line for line, _, _ in _field_moves(expected, got,
                                                      tolerance, parse))


def _parser(name: str):
    """How ``_moves`` reads golden file ``name``."""
    return _csv_fields if name.endswith(".csv") else json.loads


def _same_host() -> bool:
    recorded = json.loads((golden_outputs.GOLDEN / "host.json").read_text())
    return recorded == golden_outputs.host()


def _assert_matches_golden(name: str, got: str) -> None:
    """``got`` is the golden file ``name``: its bytes on the recording
    host, its numbers to ``TOLERANCE`` elsewhere."""
    expected = (golden_outputs.GOLDEN / name).read_text()
    same_host = _same_host()
    if same_host and got == expected:
        return
    moves = _moves(expected, got, 0.0 if same_host else TOLERANCE,
                   _parser(name))
    if same_host and not moves:  # same numbers, other text
        moves = ["text differs with equal values"]
    assert not moves, (
        f"{name} moved from tests/golden (regenerate with "
        f"tests/golden_outputs.py if intended):\n" + "\n".join(moves))


@pytest.mark.parametrize("method", golden_outputs.METHODS)
def test_analyze_report_matches_its_golden_file(method):
    _assert_matches_golden(f"analyze_{method}.json",
                           golden_outputs.report(method))


@pytest.mark.parametrize("figure", golden_outputs.FIGURES)
def test_figure_artifacts_match_their_golden_files(figure, figure_artifacts):
    out, _, _ = figure_artifacts(figure)
    for name in golden_outputs.figure_files(figure):
        _assert_matches_golden(name, (out / name).read_text())
    if _same_host():
        digests = json.loads(
            (golden_outputs.GOLDEN / golden_outputs.SVG_DIGESTS).read_text())
        assert golden_outputs.svg_digest(out / f"{figure}.svg") == (
            digests[f"{figure}.svg"]), f"{figure}.svg moved from tests/golden"


def test_simulate_tables_match_their_golden_files(tmp_path):
    for path in golden_outputs.simulate(tmp_path):
        _assert_matches_golden(path.name, path.read_text())


def test_a_one_ulp_move_is_named_with_its_size():
    text = json.dumps({"a": {"b": 0.25, "c": 1}, "d": "x"})
    moved = json.dumps({"a": {"b": math.nextafter(0.25, 1.0), "c": 1},
                        "d": "x"})
    assert _moves(text, moved, 0.0) == [
        "a.b: 0.25 -> 0.25000000000000006 "
        "(absolute 5.55e-17, relative 2.22e-16)"]
    assert _moves(text, moved, TOLERANCE) == []
    assert _moves(text, text.replace('"x"', '"y"'), TOLERANCE) == [
        "d: 'x' -> 'y'"]


def test_a_moved_csv_cell_is_named_by_row_and_column():
    text = "# seed=1\nsite,a,b\ns1,0.5,x\ns2,1.5,\n"
    moved = text.replace("1.5", repr(math.nextafter(1.5, 2.0)))
    assert _moves(text, moved, 0.0, _csv_fields) == [
        "row 2.a: 1.5 -> 1.5000000000000002 "
        "(absolute 2.22e-16, relative 1.48e-16)"]
    assert _moves(text, moved, TOLERANCE, _csv_fields) == []
    assert _moves(text, text.replace("seed=1", "seed=2"), TOLERANCE,
                  _csv_fields) == ["header[0]: '# seed=1' -> '# seed=2'"]


def test_a_rewritten_golden_file_reports_its_largest_move(tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(golden_outputs, "GOLDEN", tmp_path)
    for values in ({"a": 0.25, "b": [1.0, "x"]}, {"a": 0.5, "b": [1.0, "y"]},
                   {"a": 0.5, "b": [1.0, "y"]}):
        golden_outputs._rewrite("r.json", json.dumps(values))
    assert capsys.readouterr().out.splitlines() == [
        "r.json: new",
        "r.json: 2 fields moved, largest absolute 2.50e-01, relative 1.00e+00",
        "r.json: unchanged"]
    assert json.loads((tmp_path / "r.json").read_text())["b"] == [1.0, "y"]

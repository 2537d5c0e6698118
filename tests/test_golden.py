"""The ``analyze`` reports still match their golden files (``golden_outputs``).

On the host that wrote them (same NumPy version and BLAS library) the
reports must match byte for byte; elsewhere every number must match to
1e-12 relative (absolute below 1). A failure names each field that moved,
with its absolute and relative move.
"""

import json
import math

import pytest

import golden_outputs

TOLERANCE = 1e-12


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    else:
        yield path, node


def _moves(expected: str, got: str, tolerance: float) -> list[str]:
    """One line per field of ``got`` that differs from ``expected`` by more
    than ``tolerance`` (0: any change of bits)."""
    want, have = dict(_leaves(json.loads(expected))), dict(_leaves(json.loads(got)))
    lines = [f"{field}: missing or added" for field in sorted(
        want.keys() ^ have.keys())]
    for field in want.keys() & have.keys():
        a, b = want[field], have[field]
        numeric = all(isinstance(v, float) for v in (a, b))
        if not numeric or not (math.isfinite(a) and math.isfinite(b)):
            if a != b and not (a != a and b != b):
                lines.append(f"{field}: {a!r} -> {b!r}")
            continue
        move = abs(b - a)
        if move > tolerance * max(1.0, abs(a)) or (not tolerance and a != b):
            relative = move / abs(a) if a else math.inf
            lines.append(f"{field}: {a!r} -> {b!r} "
                         f"(absolute {move:.2e}, relative {relative:.2e})")
    return sorted(lines)


@pytest.mark.parametrize("method", golden_outputs.METHODS)
def test_analyze_report_matches_its_golden_file(method):
    expected = (golden_outputs.GOLDEN / f"analyze_{method}.json").read_text()
    recorded = json.loads((golden_outputs.GOLDEN / "host.json").read_text())
    same_host = recorded == golden_outputs.host()
    got = golden_outputs.report(method)
    if same_host and got == expected:
        return
    moves = _moves(expected, got, 0.0 if same_host else TOLERANCE)
    if same_host and not moves:  # same numbers, other text
        moves = ["text differs with equal values"]
    assert not moves, (
        f"analyze {method} moved from tests/golden (regenerate with "
        f"tests/golden_outputs.py if intended):\n" + "\n".join(moves))


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

"""Fixtures shared by the acceptance and golden tests."""

import time

import pytest

import golden_outputs


@pytest.fixture(scope="session")
def figure_artifacts(tmp_path_factory):
    """``run(figure, threads=1)``: ``(out, seconds, exit code)`` of
    ``reproduce FIG --scale desk --seed 1`` into ``out``, run once per
    figure and thread count in a session."""
    cache = {}

    def run(figure: str, threads: int = 1):
        key = (figure, threads)
        if key not in cache:
            out = tmp_path_factory.mktemp(f"{figure}-t{threads}")
            start = time.perf_counter()
            code = golden_outputs.reproduce(figure, out, threads)
            cache[key] = (out, time.perf_counter() - start, code)
        return cache[key]

    return run

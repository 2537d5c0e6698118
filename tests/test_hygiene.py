"""Source hygiene checks that need no linter."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vpboot"
README = PACKAGE.parent.parent / "README.md"
# The package root imports names to re-export them, not to use them.
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_modules_use_every_name_they_import(path):
    assert _unused_imports(path.read_text()) == []


def _is_call(node, name: str) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == name
        or isinstance(node.func, ast.Name) and node.func.id == name)


def _calls(source: str, name: str) -> int:
    return sum(_is_call(node, name) for node in ast.walk(ast.parse(source)))


def test_the_package_has_one_svd_call():
    # Every rank, projection and fit goes through ordination._svd_basis.
    assert sum(_calls(p.read_text(), "svd") for p in PACKAGE.glob("*.py")) == 1
    assert _calls("u = np.linalg.svd(a)\nsvd(b)\nnp.svd\n", "svd") == 2


def test_the_package_has_no_eigh_and_no_cholesky_call():
    # ordination._gram_fit builds its own inverse factor, which never
    # raises; every row it leaves goes to the one SVD.
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    assert sum(_calls(s, "eigh") + _calls(s, "cholesky") for s in sources) == 0


def _tops(source: str, hit) -> list[str]:
    """The top-level definition around each node of ``source`` that ``hit``
    accepts."""
    return [getattr(top, "name", f"line {top.lineno}")
            for top in ast.parse(source).body for node in ast.walk(top)
            if hit(node)]


def _rank_tests(source: str) -> list[str]:
    """The top-level definition around each ``ndim`` read of ``source``."""
    return _tops(source, lambda node: isinstance(node, ast.Attribute)
                 and node.attr == "ndim")


def test_the_fit_kernel_tests_array_rank_once():
    # Every kernel array is a (T, n, q) stack made by ordination._as_stack.
    source = (PACKAGE / "ordination.py").read_text()
    assert _rank_tests(source) == ["_as_stack"]
    assert source.count("ndim") == 1
    assert _rank_tests("def f(a):\n    return a.ndim, np.ndim(a)\n"
                       "x = b.ndim\n") == ["f", "f", "line 3"]


def test_the_package_builds_one_process_pool():
    # Every fan-out goes through experiments._map.
    assert sum(_calls(p.read_text(), "ProcessPoolExecutor")
               for p in PACKAGE.glob("*.py")) == 1


def _callers(source: str, name: str) -> list[str]:
    """The top-level definition around each call of ``name`` in ``source``."""
    return _tops(source, lambda node: _is_call(node, name))


def test_the_package_builds_fit_plans_in_one_place():
    # Every count-weighted fit goes through the plan a bootstrap's
    # statistic (ordination._planned) builds on its first call.
    assert [caller for p in PACKAGE.glob("*.py")
            for caller in _callers(p.read_text(), "_Plan")] == ["_planned"]
    assert _callers("def f():\n    return m._Plan(y)\nx = _Plan(z)\n",
                    "_Plan") == ["f", "line 3"]


def test_unit_and_count_fits_share_one_front_end():
    # Only the response builder prunes and scales a CCA table, and only the
    # fractions-and-reasons step turns sums into inertia shares, for unit
    # fits (ordination._unit_fractions) and plans (_Plan) alike.
    for name, caller in (("_cca_scaled", "_response"),
                         ("_inertia_shares", "_fractions")):
        assert [c for p in PACKAGE.glob("*.py")
                for c in _callers(p.read_text(), name)] == [caller]


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom math import inf, nan\nprint(nan)\n"
    assert _unused_imports(source) == ["inf (line 2)", "os (line 1)"]


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``sources`` (module name to source)
    that no module of them reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [
                    node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{module}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined
                  if name.rsplit(".", 1)[1] not in read)


def test_every_private_name_has_a_caller_in_the_package():
    # A private helper that only the tests call is dead code to the package.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _unreferenced_private_names(sources) == []
    source = ("_A = 1\n_B, C = 2, _A\ndef _f(): pass\nclass _K: pass\n"
              "__all__ = []\nx = obj._f\n")
    assert _unreferenced_private_names({"m": source}) == ["m._B", "m._K"]


# The halves of PCG64's 128-bit multiplier, and the multiplier itself.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_LITERALS = {_PCG_MULT, _PCG_MULT >> 64, _PCG_MULT & (1 << 64) - 1}


def _stream_internals(source: str) -> list[str]:
    """Places that load a PCG64 state or do PCG64 arithmetic."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"bit_generator.state (line {node.lineno})"
                      for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Attribute) and t.attr == "state"
                      and isinstance(t.value, ast.Attribute)
                      and t.value.attr == "bit_generator"]
        elif isinstance(node, ast.Constant) and type(node.value) is int and (
                node.value in _PCG_LITERALS):
            found.append(f"PCG64 multiplier (line {node.lineno})")
        elif (isinstance(node, ast.Name) and node.id == "PCG64"
              or isinstance(node, ast.Attribute) and node.attr == "PCG64"):
            found.append(f"PCG64 (line {node.lineno})")
    return found


def test_only_rng_loads_or_steps_pcg64_states():
    # Streams are built, stepped and loaded in one place; a per-item
    # generator in synth or resample would bypass the batched draws.
    assert _stream_internals((PACKAGE / "rng.py").read_text())
    for path in PACKAGE.glob("*.py"):
        if path.name != "rng.py":
            assert _stream_internals(path.read_text()) == [], path.name
    source = ("g.bit_generator.state = s\na, g.bit_generator.state = 1, s\n"
              "b = np.random.PCG64(0)\nm = 2549297995355413924 * x\n")
    assert _stream_internals(source) == [
        "bit_generator.state (line 1)", "bit_generator.state (line 2)",
        "PCG64 (line 3)", "PCG64 multiplier (line 4)"]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # Only a run with more than one thread builds a process pool; the pool's
    # modules would add about 2 MB to every process that imports vpboot.
    code = "import sys, vpboot.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _undocumented(names, readme: str) -> list[str]:
    """The names that README's "Library use" section never writes as code
    (a backtick, then the name)."""
    start = readme.index("\n## Library use\n")
    end = readme.find("\n## ", start + 1)
    section = readme[start:end if end >= 0 else None]
    return [name for name in names
            if not re.search(f"`{re.escape(name)}(?!\\w)", section)]


def test_the_readme_documents_every_public_name():
    # The public surface and its documentation move together.
    import vpboot

    assert _undocumented(vpboot.__all__, README.read_text()) == []
    readme = ("# x\n## Library use\n`a`, `b(1)` and stream\n## Next\n`c`\n")
    assert _undocumented(["a", "b", "stream", "c", "a_b"], readme) == [
        "stream", "c", "a_b"]

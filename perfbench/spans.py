"""Spans around vpboot's public functions, and the layer metrics built from them.

``Tracer`` runs inside the worker process. It replaces each traced function
everywhere a vpboot module looks it up (every module global bound to the
same object), so calls between modules are caught as well as calls into
the package. Spans (name, start, end, parent, operation, raised, work) stay
in memory until ``dump`` writes them once, after the timed loop.

``layer_metrics`` runs in the parent and derives each layer's numbers from
the dumped spans. A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

#: Public functions traced, as ``<vpboot module>.<attribute>``. The layer is
#: the module. ``experiments._cca_repeat`` is private but it is the unit of
#: work the validation study fans out; a missing target is skipped.
FUNCTIONS = (
    "synth.generate_dataset", "synth.generate_complex_dataset", "rng.stream",
    "resample.bootstrap_statistic", "resample.resample_rows",
    "ordination.varpart_two", "ordination.rda_r2", "ordination.cca_explained",
    "ordination.numerical_rank", "analysis.run_analysis",
    "analysis.partition_tables", "experiments.run_replicated_scenario",
    "experiments._cca_repeat", "experiments.predictor_effect_r2",
    "experiments.cca_proportion", "io.read_table_csv", "io.write_table_csv",
)
CELLS = ("experiments.run_replicated_scenario", "experiments._cca_repeat")
LAYERS = ("synth", "rng", "resample", "tables", "ordination", "analysis",
          "experiments", "io")


def svd_flops(a, full_matrices=True, compute_uv=True, **_) -> float:
    """Golub-Reinsch operation count for the thin SVD of ``a`` (computed).

    Takes ``numpy.linalg.svd``'s arguments; the thin count is used even for
    ``full_matrices``, which vpboot never asks for.
    """
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    return 14.0 * m * n * n + 8.0 * n ** 3 if compute_uv else (
        4.0 * m * n * n - 4.0 * n ** 3 / 3.0)


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.codes: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.t0 = time.perf_counter_ns()

    def wrap(self, name: str, fn, work=None):
        code = self.codes.setdefault(name, len(self.codes))
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (code, start - self.t0, end - self.t0, parent,
                              self.op, raised,
                              work(*args, **kwargs) if work else 0.0)
        return traced

    def install(self) -> None:
        import numpy.linalg
        from vpboot.tables import CommunityTable, PredictorBlock

        modules = [m for name, m in list(sys.modules.items())
                   if name == "vpboot" or name.startswith("vpboot.")]
        for target in FUNCTIONS:
            layer, attr = target.split(".")
            original = getattr(sys.modules.get(f"vpboot.{layer}"), attr, None)
            if original is None:
                continue
            traced = self.wrap(target, self._wrap_statistic(original)
                               if target == "resample.bootstrap_statistic"
                               else original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for cls in (CommunityTable, PredictorBlock):
            cls.__post_init__ = self.wrap("tables.build", cls.__post_init__)
        numpy.linalg.svd = self.wrap("ordination.svd", numpy.linalg.svd, svd_flops)

    def _wrap_statistic(self, bootstrap_statistic):
        """Give each replicate's statistic call its own span."""
        statistic_span = functools.partial(self.wrap, "resample.statistic")

        @functools.wraps(bootstrap_statistic)
        def wrapped(table, blocks, statistic, *args, **kwargs):
            return bootstrap_statistic(table, blocks, statistic_span(statistic),
                                       *args, **kwargs)
        return wrapped

    def dump(self, path: str, run_id: str, errors=()) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": run_id, "errors": list(errors),
                       "names": list(self.codes),
                       "spans": [s for s in self.spans if s is not None]}, fh)


def probe(seed: int, workdir: str) -> list[str]:
    """Call every traced function a few times on a small fixed input.

    Runs after the timed loop with ``Tracer.op`` set to -1. A function the
    workload never calls still gets a measured per-call time from these
    calls; shares and counts leave them out. Returns the steps that failed.
    """
    from vpboot import analysis, experiments, io, synth
    from vpboot.tables import PredictorBlock

    config = synth.ScenarioConfig(seed=seed, n_sites=25, replicates=2)
    path = os.path.join(workdir, "probe.csv")
    state = {}

    def generate():
        state["table"], env = synth.generate_dataset(config)
        state["x"] = PredictorBlock("env", env.site_ids, env.values[:, :1])
        state["w"] = PredictorBlock("spatial", env.site_ids, env.values[:, 1:])

    def round_trip():
        io.write_table_csv(path, state["table"])
        state["table"] = io.read_table_csv(path)

    steps = [generate, round_trip] + [
        lambda method=method: analysis.run_analysis(
            state["table"], state["x"], state["w"], seed=seed, method=method,
            m_replicates=10) for method in ("rda", "cca")] + [
        lambda: experiments.run_replicated_scenario(config),
        lambda: experiments.cca_proportion(
            *synth.generate_complex_dataset(20, seed=seed))]
    failed = []
    for step in steps:
        try:
            step()
        except Exception as exc:  # a probe step the program no longer supports
            failed.append(f"layer probe: {type(exc).__name__}: {exc}")
    return failed


def layer_metrics(trace: dict, op_seconds: float, ops_per_pass: int,
                  units_per_pass: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run.

    Per-call timings are medians (or p99) over the workload's calls of a
    function, or over the probe's calls when the workload made none.
    Shares divide by ``op_seconds``, the wall time of every operation in
    the run, and leave the probe out. Counts cover the first pass only,
    which does the same work in every run of one seed; ``units_per_pass``
    (bootstrap replicates plus datasets) turns them into per-replicate
    figures.
    """
    names = trace["names"]
    cols = np.array(trace["spans"], dtype=float).reshape(-1, 7)
    code, start, end, parent, op, raised, work = cols.T
    code, parent = code.astype(int), parent.astype(int)
    name = np.array(names, dtype=object)[code]
    layer = np.array([n.split(".")[0] for n in names], dtype=object)[code]
    dur = end - start
    has_parent = parent >= 0
    children = np.zeros(len(dur))
    np.add.at(children, parent[has_parent], dur[has_parent])
    own = dur - children
    run = op >= 0
    first = run & (op < ops_per_pass)
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], "")
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
    total_ns = op_seconds * 1e9

    def calls(span_name):
        mask = name == span_name
        return mask & run if (mask & run).any() else mask & ~run

    def stat(values, q=50.0, scale=1e-3):
        return float(np.percentile(values, q)) * scale if values.size else 0.0

    def count(mask):
        return float(np.count_nonzero(mask & first))

    def share(mask):
        return float(dur[mask & run].sum()) / total_ns

    generate = calls("synth.generate_dataset")
    sites = (name == "rng.stream") & np.isin(parent, np.flatnonzero(generate))
    outer_synth = (layer == "synth") & (parent_layer != "synth")
    boot = calls("resample.bootstrap_statistic")
    statistic = (name == "resample.statistic") & run
    cells = np.isin(name, CELLS)
    svd = name == "ordination.svd"

    # One replicate attempt runs from its stream's start to its statistic's end.
    replicate = []
    pending = None
    for i in np.flatnonzero(boot[np.maximum(parent, 0)] & has_parent):
        if name[i] == "rng.stream":
            pending = start[i]
        elif name[i] == "resample.statistic" and pending is not None:
            replicate.append(end[i] - pending)
            pending = None
    replicate = np.array(replicate)

    m = {
        "synth.generate_dataset_ms": (stat(dur[generate], scale=1e-6), "ms"),
        "synth.generate_dataset_p99_ms": (stat(dur[generate], 99, 1e-6), "ms"),
        "synth.site_us": (float(dur[generate].sum()) * 1e-3
                          / max(np.count_nonzero(sites), 1), "us"),
        "synth.datasets": (count(name == "synth.generate_dataset"), "count"),
        "synth.sites": (count(sites), "count"),
        "synth.share": (share(outer_synth), "ratio"),
        "rng.stream_us": (stat(dur[calls("rng.stream")]), "us"),
        "rng.streams": (count(name == "rng.stream"), "count"),
        "resample.resample_rows_us": (stat(dur[calls("resample.resample_rows")]), "us"),
        "resample.replicate_us": (stat(replicate), "us"),
        "resample.replicate_p99_us": (stat(replicate, 99), "us"),
        "resample.summary_ms": (stat(own[boot], scale=1e-6), "ms"),
        "resample.attempts": (count(name == "resample.resample_rows"), "count"),
        "resample.redraw_frac": (
            float(raised[statistic].sum()) / max(np.count_nonzero(statistic), 1), "ratio"),
        "resample.share": (share(name == "resample.bootstrap_statistic"), "ratio"),
        "tables.builds": (count(name == "tables.build") / units_per_pass, "count"),
        "tables.build_us": (stat(dur[calls("tables.build")]), "us"),
        "ordination.varpart_two_us": (stat(dur[calls("ordination.varpart_two")]), "us"),
        "ordination.rda_r2_us": (stat(dur[calls("ordination.rda_r2")]), "us"),
        "ordination.cca_explained_us": (stat(dur[calls("ordination.cca_explained")]), "us"),
        "ordination.numerical_rank_us": (stat(dur[calls("ordination.numerical_rank")]), "us"),
        "ordination.svd_calls_per_rep": (count(svd) / units_per_pass, "count"),
        "ordination.svd_flops_computed": (
            float(work[svd & first].sum()) / units_per_pass, "flop"),
        "analysis.partition_tables_us": (stat(dur[calls("analysis.partition_tables")]), "us"),
        "analysis.point_ms": (stat(dur[calls("analysis.partition_tables")
                                       & (parent_name == "analysis.run_analysis")],
                                   scale=1e-6), "ms"),
        "experiments.predictor_effect_r2_us": (
            stat(dur[calls("experiments.predictor_effect_r2")]), "us"),
        "experiments.cca_proportion_us": (stat(dur[calls("experiments.cca_proportion")]), "us"),
        "experiments.cell_s": (stat(dur[cells & run] if (cells & run).any()
                                    else dur[cells], scale=1e-9), "s"),
        "experiments.gen_share": (
            float(dur[outer_synth & run].sum()) / float(dur[cells & run].sum())
            if (cells & run).any() else 0.0, "ratio"),
        "io.read_table_csv_ms": (stat(dur[calls("io.read_table_csv")], scale=1e-6), "ms"),
        "io.write_table_csv_ms": (stat(dur[calls("io.write_table_csv")], scale=1e-6), "ms"),
    }
    for lay in LAYERS:
        m[f"{lay}.self_share"] = (float(own[(layer == lay) & run].sum()) / total_ns,
                                  "ratio")
    m["other.self_share"] = (1.0 - share(~has_parent), "ratio")
    return {key: (float(value), unit) for key, (value, unit) in m.items()}

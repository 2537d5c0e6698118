"""Command-line interface.

Exit codes: 0 success, 2 invalid input, 3 numerical degeneracy,
4 reproduction checks failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from ._version import __version__
from .analysis import format_report, report_to_dict, run_analysis, trend_surface
from .errors import (DegenerateDataError, ReproductionCheckError,
                     ValidationError)
from .io import (_write_csv, config_digest, provenance_pairs,
                 read_scenario_config, read_table_csv, write_table_csv)
from .reproduce import FIGURE_IDS, SCALE_REPLICATES, build_figure
from .resample import _check_bootstrap
from .svgplot import write_svg
from .synth import generate_dataset

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_CHECKS_FAILED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpboot",
        description="Variance partitioning of site-by-species tables with "
                    "bootstrap uncertainty estimates.")
    parser.add_argument("--version", action="version",
                        version=f"vpboot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="partition one table between two predictor blocks")
    analyze.add_argument("community", help="community table CSV")
    analyze.add_argument("env", help="environmental predictor CSV")
    analyze.add_argument("spatial", help="spatial predictor CSV")
    analyze.add_argument("--method", choices=("cca", "rda"), default="cca")
    analyze.add_argument("--bootstrap", type=int, default=1000, metavar="M",
                         help="bootstrap replicates (default 1000)")
    analyze.add_argument("--seed", type=int, required=True,
                         help="master seed (required; no default anywhere)")
    analyze.add_argument("--log1p", action=argparse.BooleanOptionalAction,
                         default=None,
                         help="ln(1+x) transform (default: on for cca)")
    analyze.add_argument("--trend-surface",
                         action=argparse.BooleanOptionalAction, default=None,
                         help="expand the spatial block to x, y, x^2, xy, y^2 "
                              "(default: on when it has exactly 2 columns, "
                              "i.e. raw coordinates)")
    analyze.add_argument("--out", metavar="PATH",
                         help="also write the report as JSON")
    analyze.set_defaults(func=_cmd_analyze)

    reproduce = sub.add_parser(
        "reproduce", help="run a canned simulation study")
    reproduce.add_argument("figure", choices=FIGURE_IDS)
    reproduce.add_argument("--scale", choices=tuple(SCALE_REPLICATES),
                           default="desk",
                           help="replicates per scenario: desk=200, paper=1000")
    reproduce.add_argument("--seed", type=int, required=True)
    reproduce.add_argument("--out", default=".", metavar="DIR",
                           help="output directory (default: current)")
    reproduce.add_argument("--threads", type=int, default=1,
                           help="worker processes; affects speed only")
    reproduce.set_defaults(func=_cmd_reproduce)

    simulate = sub.add_parser(
        "simulate", help="generate one synthetic dataset from a config file")
    simulate.add_argument("config", help="scenario document (key = value lines)")
    simulate.add_argument("--replicate", type=int, default=0,
                          help="replicate index (default 0)")
    simulate.add_argument("--out", default="simulated", metavar="PREFIX",
                          help="output prefix (default 'simulated')")
    simulate.set_defaults(func=_cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds on first use and reuses: each parse
    returns a new namespace and leaves the parser as it was."""
    return build_parser()


def _strict(value):
    """``value`` with every float that is not finite (a relative
    uncertainty of a zero mean, say) as None, so it dumps as strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_json(path: str, payload) -> None:
    """``payload`` as strict JSON (``_strict``), indented, at ``path``."""
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _require_file(path: str) -> None:
    if not os.path.isfile(path):
        raise ValidationError(f"no such file: {path}")


def _cmd_analyze(args) -> int:
    for path in (args.community, args.env, args.spatial):
        _require_file(path)
    _check_bootstrap(args.bootstrap, args.seed)
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValidationError(f"no such directory for --out: {args.out}")
    table = read_table_csv(args.community, kind="community")
    env = read_table_csv(args.env, kind="predictor", name="env")
    spatial = read_table_csv(args.spatial, kind="predictor", name="spatial")
    expand = args.trend_surface
    if expand is None:
        expand = spatial.n_columns == 2
    if expand:
        spatial = trend_surface(spatial)
    name = os.path.splitext(os.path.basename(args.community))[0]
    report = run_analysis(
        table, env, spatial, seed=args.seed, method=args.method,
        m_replicates=args.bootstrap, log1p=args.log1p, dataset_name=name)
    print(format_report(report))
    if args.out:
        payload = report_to_dict(report)
        payload["provenance"] = dict(provenance_pairs(
            args.seed, [("bootstrap", args.bootstrap), ("method", args.method),
                        ("trend_surface", "on" if expand else "off")]))
        _write_json(args.out, payload)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    if args.threads < 1:
        raise ValidationError("--threads must be at least 1")
    if args.seed < 0:  # before --out is created
        raise ValidationError("seed must be non-negative")
    os.makedirs(args.out, exist_ok=True)
    result = build_figure(args.figure, seed=args.seed, scale=args.scale,
                          threads=args.threads)
    prov = provenance_pairs(args.seed, [
        ("figure", args.figure), ("scale", args.scale),
        ("replicates", SCALE_REPLICATES[args.scale])])
    csv_path = os.path.join(args.out, f"{args.figure}_results.csv")
    _write_csv(csv_path, prov, result.columns,
               ([row[c] for c in result.columns] for row in result.rows))
    checks_path = os.path.join(args.out, f"{args.figure}_checks.json")
    _write_json(checks_path, {
        "figure": args.figure,
        "scale": args.scale,
        "seed": args.seed,
        "checks": result.checks,
        "passed": result.passed,
    })
    write_svg(os.path.join(args.out, f"{args.figure}.svg"), result.svg)
    print(f"wrote {csv_path}, {checks_path}, {args.figure}.svg")
    for check in result.checks:
        status = "PASS" if check["passed"] else "FAIL"
        detail = ", ".join(
            f"{k}={v}" for k, v in check.items() if k not in ("name", "passed"))
        print(f"check {check['name']}: {status} ({detail})")
    if not result.passed:
        raise ReproductionCheckError(
            f"{args.figure}: "
            f"{sum(not c['passed'] for c in result.checks)} check(s) failed")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    _require_file(args.config)
    config = read_scenario_config(args.config)
    table, env = generate_dataset(config, replicate=args.replicate)
    prov = provenance_pairs(config.seed, [
        ("replicate", args.replicate),
        ("config_sha256", config_digest(config)),
        ("n_sites", config.n_sites),
        ("n_species", config.n_species)])
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    community_path = f"{args.out}.community.csv"
    env_path = f"{args.out}.env.csv"
    write_table_csv(community_path, table, provenance=prov)
    write_table_csv(env_path, env, provenance=prov)
    print(f"wrote {community_path} ({table.n_sites} sites x "
          f"{table.n_species} species) and {env_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ReproductionCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKS_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: not enough memory for this request; ask for fewer "
              "sites, species or replicates", file=sys.stderr)
        return EXIT_INVALID

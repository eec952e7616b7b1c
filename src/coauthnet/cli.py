"""Command-line interface.

Subcommands wire the pipeline ingest -> graph -> centrality -> evolve ->
stats into deterministic file outputs: identical inputs and flags produce
byte-identical files. A command computes all of its outputs before any file
is written; ``main`` then writes each one atomically and, last, a
``run.json`` manifest with the resolved configuration. ``--whole-graph``
(``centrality``, ``correlate``, ``fit``) computes on the whole graph instead
of its largest component.

Exit codes: 0 success, 1 usage or configuration error (a ``--tol`` that is
not a positive finite number, NaN and infinity included, a ``--start-year``
outside the years a record may carry, more ``--histogram-bins`` than
``stats.MAX_HISTOGRAM_BINS``, ``evolve`` without ``--slices`` or with
boundaries that are not strictly increasing or lie outside those years,
an ``--output-dir`` that is, or lies under, an existing path that is not a
directory, an input path that is missing or not a file, or a merge map
that is not UTF-8; once the corpus is read, a
``--start-year`` after its last year, for ``fit`` one before its first
year or after its last year minus 2, or for ``evolve`` a ``--slices``
boundary before the start year), 2 data error (an input or series file
that is not UTF-8; the message names a series ``fit`` cannot fit and an
empty ``evolve`` slice's years), 3 convergence error. ``stats`` on a
corpus where no record has two authors reports a mean distance of 0.0.
A UTF-8 byte order mark at the start of any file read is dropped.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .centrality import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    betweenness_centrality,
    check_count,
    check_solver,
    closeness_centrality,
    degree_centrality,
    pagerank,
    rank_table,
    render_rank_csv,
    render_vector_csv,
)
from .errors import CoauthNetError, ConfigError, ConvergenceError, DataError, ParseError
from .evolve import (
    check_boundaries,
    cumulative_slices,
    growth_series,
    parse_growth_csv,
    render_growth_csv,
    render_slice_csv,
    slice_report,
)
from .graph import (
    build_graph,
    largest_component,
    render_edge_list,
    render_isolated_vertices,
    render_summary_csv,
    summary_stats,
)
from .ingest import (
    DEFAULT_DOC_TYPES,
    YEAR_MAX,
    YEAR_MIN,
    AuthorMergeMap,
    BiblioRecord,
    apply_merge_map,
    author_citations,
    check_doc_types,
    filter_documents,
    normalize_records,
    parse_records,
)
from .stats import (
    PowerFit,
    _degree_rows,
    _largest_degrees,
    check_bins,
    correlation_matrix,
    degree_distribution,
    histogram,
    power_fit,
    ranking_profile,
    render_correlation_csv,
    render_fit_csv,
    render_histogram_csv,
    render_profile_csv,
    render_significance_csv,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_CONVERGENCE = 3

DEFAULT_TOP_N = 30


@dataclass
class RunConfig:
    """Resolved run configuration, serialized into the run.json manifest.
    Each field is the ``dest`` of the flag that sets it."""

    command: str
    output_dir: str
    input_path: str | None = None
    merge_map_path: str | None = None
    doc_types: tuple[str, ...] = DEFAULT_DOC_TYPES
    start_year: int | None = None
    slice_boundaries: tuple[int, ...] = ()
    damping: float = DEFAULT_DAMPING
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    top_n: int = DEFAULT_TOP_N
    restrict_to_largest: bool = True
    histogram_bins: int | None = None
    series_path: str | None = None


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap onto ConfigError
    so usage problems surface as exit code 1. A flag left out sets no
    attribute, so its RunConfig default applies."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _comma_tokens(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coauthnet",
        description="Coauthorship-network analysis: summary statistics, "
        "centrality rankings, network evolution, correlations, curve fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--input", dest="input_path", metavar="INPUT",
                        help="tab-delimited bibliography export")
    common.add_argument("--output-dir", required=True, help="directory for result files")
    common.add_argument("--merge-map", dest="merge_map_path", metavar="MERGE_MAP",
                        help="CSV of variant,canonical author names")
    common.add_argument(
        "--doc-types",
        type=_comma_tokens,
        help="comma-separated document types to keep (default: Article,Review)",
    )

    solver = _Parser(add_help=False)
    solver.add_argument("--damping", type=float)
    solver.add_argument("--tol", type=float)
    solver.add_argument("--max-iter", type=int)

    whole_graph = _Parser(add_help=False)
    whole_graph.add_argument(
        "--whole-graph",
        dest="restrict_to_largest",
        action="store_false",
        help="compute on the whole graph instead of the largest component",
    )

    start_year = _Parser(add_help=False)
    start_year.add_argument("--start-year", type=int)

    p_stats = sub.add_parser(
        "stats", parents=[common], help="summary statistics and graph export"
    )
    p_stats.set_defaults(handler=cmd_stats)

    p_cent = sub.add_parser(
        "centrality",
        parents=[common, solver, whole_graph],
        help="centrality vectors and top-N tables",
    )
    p_cent.add_argument("--top-n", type=int)
    p_cent.add_argument(
        "--histogram-bins",
        type=int,
        help="also write a score histogram per measure with this many bins",
    )
    p_cent.set_defaults(handler=cmd_centrality)

    p_evolve = sub.add_parser(
        "evolve",
        parents=[common, start_year],
        help="growth series and cumulative slice reports",
    )
    p_evolve.add_argument(
        "--slices",
        dest="slice_boundaries",
        metavar="SLICES",
        type=_comma_ints,
        help="comma-separated boundary years, e.g. 1992,1997,2002,2007",
    )
    p_evolve.set_defaults(handler=cmd_evolve)

    p_corr = sub.add_parser(
        "correlate",
        parents=[common, solver, whole_graph],
        help="Spearman correlations of centralities vs citations, ranking profile",
    )
    p_corr.set_defaults(handler=cmd_correlate)

    p_fit = sub.add_parser(
        "fit",
        parents=[common, start_year, whole_graph],
        help="power-curve fits for growth and degrees",
    )
    p_fit.add_argument(
        "--series",
        dest="series_path",
        metavar="SERIES",
        help="pre-tabulated year,papers,authors CSV (replaces --input)",
    )
    p_fit.set_defaults(handler=cmd_fit)

    return parser


# The corpus flags by dest: fit --series reads no corpus, so none of them could take effect.
_CORPUS_FLAGS = {"input_path": "--input", "merge_map_path": "--merge-map",
                 "doc_types": "--doc-types", "start_year": "--start-year",
                 "restrict_to_largest": "--whole-graph"}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    cfg = RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})
    clash = [flag for dest, flag in _CORPUS_FLAGS.items() if dest in given]
    if cfg.series_path is not None and clash:
        raise ConfigError("--series cannot be combined with " + ", ".join(clash))
    check_doc_types(cfg.doc_types, "--doc-types")
    check_solver(cfg.damping, cfg.tol, cfg.max_iter, ("--damping", "--tol", "--max-iter"))
    check_count(cfg.top_n, "--top-n")
    if cfg.histogram_bins is not None:
        check_bins(cfg.histogram_bins, "--histogram-bins")
    if cfg.start_year is not None and not YEAR_MIN <= cfg.start_year <= YEAR_MAX:
        raise ConfigError(
            f"--start-year must lie in [{YEAR_MIN}, {YEAR_MAX}], got {cfg.start_year}")
    for year in cfg.slice_boundaries:
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise ConfigError(f"--slices boundary {year} must lie in [{YEAR_MIN}, {YEAR_MAX}]")
    out = Path(cfg.output_dir)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--output-dir {out}: {path} is not a directory")
    return cfg


def _read_text(path_str: str, what: str, error: type[CoauthNetError] = ConfigError) -> str:
    path = Path(path_str)
    if not path_str or not path.exists():  # Path("") is the working directory
        raise ConfigError(f"{what} not found: {path}")
    if not path.is_file():
        raise ConfigError(f"{what} {path} is not a file")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path}: not valid UTF-8 at byte offset {exc.start}") from None


def _load_corpus(cfg: RunConfig) -> list[BiblioRecord]:
    if not cfg.input_path:
        raise ConfigError("--input is required for this command")
    records = parse_records(_read_text(cfg.input_path, "input file", ParseError))
    logger.info("parsed %d record(s) from %s", len(records), cfg.input_path)
    kept = filter_documents(records, cfg.doc_types)
    dropped = len(records) - len(kept)
    if dropped:
        logger.info(
            "dropped %d record(s) outside document types {%s}",
            dropped,
            ", ".join(cfg.doc_types),
        )
    kept = normalize_records(kept)
    if cfg.merge_map_path:
        merge_map = AuthorMergeMap.from_csv(_read_text(cfg.merge_map_path, "merge map"))
        kept = apply_merge_map(kept, merge_map)
        logger.info("applied merge map with %d entries", len(merge_map))
    if not kept:
        raise DataError("no records after filtering")
    return kept


def _write_atomic(path: Path, text: str) -> None:
    """Write-then-rename so partial runs never leave a corrupt file."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _log_restricted(size: int, n: int) -> None:
    logger.info("restricted to largest component: %d of %d author(s) (%.2f%%)",
                size, n, 100.0 * (size / n))


def _restrict(cfg: RunConfig, g):
    if cfg.restrict_to_largest:
        sub, _ = largest_component(g)
        _log_restricted(len(sub), len(g))
        return sub
    return g


def _largest_degree_rows(g) -> list[tuple[int, float]]:
    """``degree_distribution(largest_component(g)[0])``, without the copy."""
    degrees = _largest_degrees(g)
    _log_restricted(len(degrees), len(g))
    return _degree_rows(degrees)


def _year_range(cfg: RunConfig, records: list[BiblioRecord],
                fit: bool = False) -> tuple[int, int]:
    """``--start-year`` (default: the first year in the corpus) and the last.

    A given start after the corpus's last year counts no record. ``fit``
    also refuses one before the first year, whose growth rows are zero, or
    one leaving fewer than 3 growth rows to fit; a corpus of fewer than 3
    years leaves no such start, flag or not, and is a data error.
    """
    first, last = min(r.year for r in records), max(r.year for r in records)
    if fit and last - first < 2:
        raise DataError(f"fit needs a corpus of at least 3 years to fit growth, "
                        f"got years {first}-{last}")
    if cfg.start_year is None:
        return first, last
    low, high = (first, last - 2) if fit else (YEAR_MIN, last)
    if not low <= cfg.start_year <= high:
        raise ConfigError(f"--start-year must lie in [{low}, {high}] for {cfg.command} on a "
                          f"corpus of years {first}-{last}, got {cfg.start_year}")
    return cfg.start_year, last


# A command returns its output files as {file name: text}, in write order,
# and the fields it resolved for run.json beyond the RunConfig.
Outputs = tuple[dict[str, str], dict[str, object]]


def cmd_stats(cfg: RunConfig) -> Outputs:
    g = build_graph(_load_corpus(cfg))
    files = {
        "summary.csv": render_summary_csv(summary_stats(g)),
        "edges.tsv": render_edge_list(g),
        "isolated_vertices.txt": render_isolated_vertices(g),
    }
    return files, {}


def _all_centralities(cfg: RunConfig, g):
    return (
        degree_centrality(g),
        closeness_centrality(g),
        betweenness_centrality(g),
        pagerank(g, damping=cfg.damping, tol=cfg.tol, max_iter=cfg.max_iter),
    )


def cmd_centrality(cfg: RunConfig) -> Outputs:
    g = _restrict(cfg, build_graph(_load_corpus(cfg)))
    files = {}
    for cv in _all_centralities(cfg, g):
        files[f"{cv.measure}.csv"] = render_vector_csv(cv)
        files[f"top_{cv.measure}.csv"] = render_rank_csv(rank_table(cv, cfg.top_n))
        if cfg.histogram_bins:
            hist = histogram(list(cv.scores.values()), bins=cfg.histogram_bins)
            files[f"hist_{cv.measure}.csv"] = render_histogram_csv(hist)
    return files, {}


def cmd_evolve(cfg: RunConfig) -> Outputs:
    check_boundaries(cfg.slice_boundaries, name="--slices")
    records = _load_corpus(cfg)
    start, end = _year_range(cfg, records)
    check_boundaries(cfg.slice_boundaries, start, "--slices")
    reports = [slice_report(ts) for ts in cumulative_slices(records, start, cfg.slice_boundaries)]
    files = {
        "growth.csv": render_growth_csv(growth_series(records, start, end)),
        "slices.csv": render_slice_csv(reports),
    }
    return files, {"start_year": start, "end_year": end}


def cmd_correlate(cfg: RunConfig) -> Outputs:
    records = _load_corpus(cfg)
    g = _restrict(cfg, build_graph(records))
    citations = author_citations(records)
    cited = {v: citations[v] for v in g.vertices()}  # every vertex is a record's author
    deg, clo, bet, pr = _all_centralities(cfg, g)
    series = {"citations": list(cited.values())}  # each series in g.vertices() order
    series.update((cv.measure, list(cv.scores.values())) for cv in (clo, bet, deg, pr))
    report = correlation_matrix(series)
    profile = ranking_profile(pr, [clo, bet, deg], cited)
    files = {
        "correlation.csv": render_correlation_csv(report),
        "correlation_sig.csv": render_significance_csv(report),
        "ranking_profile.csv": render_profile_csv(profile),
    }
    return files, {"n": report.n}


def _named_fit(name: str, points: list[tuple[int, float]]) -> tuple[str, PowerFit]:
    """``(name, power_fit(points))``; a DataError names the series that failed."""
    try:
        return name, power_fit(points)
    except DataError as exc:
        raise DataError(f"{name}: {exc}") from exc


def cmd_fit(cfg: RunConfig) -> Outputs:
    resolved: dict[str, object] = {}
    if cfg.series_path is not None:
        rows = parse_growth_csv(_read_text(cfg.series_path, "series file", ParseError))
        records = None
    else:
        records = _load_corpus(cfg)
        start, end = _year_range(cfg, records, fit=True)
        rows = growth_series(records, start, end)
        resolved.update(start_year=start, end_year=end)
    fits = [_named_fit(name, [(t, row[col]) for t, row in enumerate(rows, start=1)])
            for col, name in ((1, "papers"), (2, "authors"))]
    if records is not None:
        g = build_graph(records)
        degree_rows = (_largest_degree_rows(g) if cfg.restrict_to_largest
                       else degree_distribution(g))
        fits.append(_named_fit("degree_distribution", degree_rows))
    return {"fits.csv": render_fit_csv(fits)}, resolved


def main(argv: list[str] | None = None) -> int:
    """Run one command from argv (default: the process's) and return its exit code.

    No command does BLAS work, so OpenBLAS's worker threads would only spin
    idle: unless it is already set, ``OPENBLAS_NUM_THREADS`` is 1 while main
    runs, which numpy reads when a kernel first loads it, and is unset again
    on return. Records, rows and CSR arrays make no reference cycles, so the
    cyclic garbage collector is paused while main runs; if it was on, it is
    back on at return and frees the few hundred cyclic objects a run leaves.
    """
    blas_preset = "OPENBLAS_NUM_THREADS" in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc_enabled = gc.isenabled()
    gc.disable()
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s"
    )
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        files, resolved = args.handler(cfg)
        manifest = {**asdict(cfg), **resolved}
        files["run.json"] = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            _write_atomic(outdir / name, text)
        logger.info("wrote %s to %s", ", ".join(files), outdir)
    except (CoauthNetError, OSError) as exc:
        logger.error("%s", exc)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        return EXIT_CONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_DATA
    finally:
        if not blas_preset:
            del os.environ["OPENBLAS_NUM_THREADS"]
        if gc_enabled:
            gc.enable()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

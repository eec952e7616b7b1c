"""Undirected coauthorship graph and structural statistics.

The graph keeps integer edge weights (number of jointly authored papers) but
every distance-based computation treats it as unweighted and simple. All
iteration happens in lexicographic vertex order, so results are deterministic
and repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from ._csvtext import csv_text
from .errors import DataError
from .ingest import BiblioRecord, _dedupe

__all__ = ["CoauthGraph", "SummaryStats", "build_graph", "clustering_coefficient",
           "connected_components", "largest_component", "mean_distance", "summary_stats"]


class CoauthGraph:
    """Undirected simple graph over canonical author keys.

    The graph stores names and rows, which every kernel reads: ``_names``
    holds the vertex names in sorted order, and ``_adj[i]`` maps each
    neighbour index of vertex i to the edge weight, in ascending index order.
    Index order is lexicographic order, decided once here, so ``vertices()``
    and ``edges()`` always come back in lexicographic order. ``_fill`` alone
    stores this form, for every graph (constructed, built from records or
    induced): each row ascending, each index one int shared by all its rows.
    The mapping constructor sorts each row once it is validated,
    ``build_graph`` fills its rows in ascending order, and an induced
    graph's rows are its parent's rows relabeled in order, so already are.
    ``paper_count`` and ``authorship_count`` describe the record set a graph
    was built from; derived subgraphs reset them to 0.

    Raises DataError unless the mapping is a symmetric simple graph: every
    neighbour is a vertex, no vertex is its own neighbour, and both
    directions of an edge carry the same positive weight.
    """

    __slots__ = ("_names", "_adj", "paper_count", "authorship_count")

    def __init__(self, adjacency: Mapping[str, Mapping[str, int]],
                 paper_count: int = 0, authorship_count: int = 0):
        names = sorted(adjacency)
        index = {v: i for i, v in enumerate(names)}
        rows: list[dict[int, int]] = []
        for v in names:
            try:
                rows.append({index[u]: w for u, w in adjacency[v].items()})
            except KeyError as exc:
                raise DataError(f"neighbour {exc.args[0]!r} of {v!r} is not a vertex") from None
        for i, row in enumerate(rows):
            for j, w in row.items():
                if i == j or rows[j].get(i) != w or not w > 0:
                    raise DataError(f"edge {names[i]!r}-{names[j]!r} needs distinct ends and one "
                                    f"positive weight both ways, got {w!r} and {rows[j].get(i)!r}")
        self._fill(names, [dict(sorted(row.items())) for row in rows],
                   paper_count, authorship_count)

    def _fill(self, names: list[str], adj: list[dict[int, int]],
              paper_count: int = 0, authorship_count: int = 0) -> "CoauthGraph":
        """Store sorted names and rows in ascending index order."""
        self._names, self._adj = names, adj
        self.paper_count, self.authorship_count = paper_count, authorship_count
        return self

    def __len__(self) -> int:
        return len(self._names)

    def vertices(self) -> list[str]:
        return list(self._names)

    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """Yield (a, b, weight) with a < b, in sorted order."""
        names = self._names
        for i, nbrs in enumerate(self._adj):
            for j, w in nbrs.items():
                if j > i:
                    yield names[i], names[j], w

    def _induced(self, old: list[int]) -> "CoauthGraph":
        """Subgraph on the ascending vertex indices ``old``; the relabeling is
        monotone, so every row stays ascending."""
        new = dict(zip(old, range(len(old))))  # old index -> new, one int object each
        rows = [{new[j]: w for j, w in self._adj[i].items() if j in new} for i in old]
        return CoauthGraph.__new__(CoauthGraph)._fill([self._names[i] for i in old], rows)


#: Largest number of distinct authors one record may have. A record with k
#: authors adds k(k-1)/2 author pairs to a graph build (1,000 authors: about
#: 500,000 pairs and 50 MB), so a larger team is refused before any pair is
#: counted. The largest team in the test fixture has 3 authors, and in the
#: paper-scale benchmark corpus 12.
MAX_TEAM_SIZE = 1000


def build_graph(records: Iterable[BiblioRecord]) -> CoauthGraph:
    """Clique-expand records into a coauthorship graph.

    Every unordered author pair of a record gains +1 edge weight; a
    single-author record contributes an isolated vertex. Author names are
    expected normalized and merged; a record that repeats a key is read as
    a copy without the repeats, so no self-loop can arise.

    Raises DataError, naming the record, when a record has more than
    ``MAX_TEAM_SIZE`` distinct authors; no pair is counted before that check.

    Each pair is counted once, in the row of its smaller index. Walking
    those rows in index order, each sorted once, then writes both arcs of
    every edge, so every row fills ascending without a second pass.
    """
    teams = []
    for rec in records:
        team = rec.authors if len(set(rec.authors)) == len(rec.authors) else _dedupe(rec.authors)
        if len(team) > MAX_TEAM_SIZE:
            raise DataError(f"record {rec.record_id!r} has {len(team)} distinct authors, "
                            f"more than the {MAX_TEAM_SIZE} a graph build accepts")
        teams.append(team)
    names = sorted(set().union(*teams))
    ids = list(range(len(names)))  # one int object per index, shared by all rows
    index = dict(zip(names, ids)).__getitem__
    upper: list[dict[int, int]] = [{} for _ in ids]  # upper[a][b], a < b: the pair's count
    for team in teams:
        for a, b in combinations(sorted(map(index, team)), 2):
            row = upper[a]
            row[b] = row.get(b, 0) + 1
    rows: list[dict[int, int]] = [{} for _ in ids]
    for a in ids:  # rows[a] gains its smaller neighbours before its larger ones
        counts, upper[a] = upper[a], None
        row = rows[a]
        for b in sorted(counts):
            row[b] = rows[b][a] = counts[b]
    g = CoauthGraph.__new__(CoauthGraph)
    return g._fill(names, rows, len(teams), sum(map(len, teams)))


def connected_components(g: CoauthGraph) -> list[list[int]]:
    """Components as lists of vertex positions (indices into ``g.vertices()``).

    Each list is ascending; the largest comes first, and size ties go to
    the smallest position, hence the smallest key. One _bfs per unreached
    vertex in index order, all sharing one distance list, finds them. It is
    the one labeler: largest_component and fit's degree read call it.
    """
    dist = [-1] * len(g._adj)
    groups = [sorted(_bfs(g._adj, s, dist)[0]) for s in range(len(dist)) if dist[s] < 0]
    groups.sort(key=lambda group: (-len(group), group[0]))
    return groups


def largest_component(g: CoauthGraph) -> tuple[CoauthGraph, float]:
    """Induced subgraph of the largest component and its vertex-count ratio."""
    if len(g) == 0:
        raise DataError("largest_component: graph has no vertices")
    group = connected_components(g)[0]
    return g._induced(group), len(group) / len(g)


def _bfs(adj: list[dict[int, int]], s: int,
         dist: list[int] | None = None) -> tuple[list[int], list[int]]:
    """Hop distances from s over a graph's integer adjacency (``g._adj``).

    Returns the vertices in BFS visiting order (s first, neighbours in
    index order) and the distances, -1 where unreached. A given ``dist`` is
    filled in place and the search enters no vertex it already reaches, so
    connected_components shares one list across its searches.
    The exact per-source loops and mean_distance's connectivity check run
    on it; the numpy sweep behind the distance measures equals it.
    """
    if dist is None:
        dist = [-1] * len(adj)
    dist[s] = 0
    order = [s]
    for v in order:  # order doubles as the FIFO queue
        step = dist[v] + 1
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = step
                order.append(u)
    return order, dist


def mean_distance(g: CoauthGraph) -> float:
    """Mean hop distance over unordered vertex pairs of the largest component.

    A connected graph is its own largest component: one _bfs from vertex 0
    settles that, and only a disconnected graph is labeled and copied. The
    integer distance sum comes from _numeric's bit-parallel sweep, which
    searches one source per closed-twin class and pendant group: a twin's
    sum is its group's first member's, a pendant's n - 2 more than its
    anchor's.
    """
    if not len(g) or len(_bfs(g._adj, 0)[0]) < len(g):
        g = largest_component(g)[0]
    n = len(g)
    if n < 2:
        raise DataError("mean_distance: largest component has no vertex pair")
    pairs = n * (n - 1) // 2
    from . import _numeric
    return (_numeric.distance_sum(g) // 2) / pairs


def _largest_with_distance(g: CoauthGraph) -> tuple[CoauthGraph, float, float]:
    """Largest component, its ratio and mean distance (0.0 with no vertex pair)."""
    largest, ratio = largest_component(g)  # connected, so mean_distance labels no components
    return largest, ratio, mean_distance(largest) if len(largest) >= 2 else 0.0


def clustering_coefficient(g: CoauthGraph) -> float:
    """Average local clustering over vertices of degree >= 2 (0.0 if none).

    Local coefficient of a vertex is the fraction of its neighbor pairs
    that are themselves adjacent.
    """
    adj = g._adj
    locals_: list[float] = []
    for nbrs in adj:
        k = len(nbrs)
        if k < 2:
            continue
        # each adjacent pair of neighbours is counted from both of its ends
        closed = sum(len(nbrs.keys() & adj[j].keys()) for j in nbrs)
        locals_.append(closed / (k * (k - 1)))
    if not locals_:
        return 0.0
    return sum(locals_) / len(locals_)


@dataclass(frozen=True)
class SummaryStats:
    """Whole-network summary row (papers, authors, ratios, distances)."""

    papers: int
    authors: int
    papers_per_author: float
    authors_per_paper: float
    avg_collaborators: float
    largest_component_ratio: float
    mean_distance: float
    clustering_coefficient: float


def summary_stats(g: CoauthGraph) -> SummaryStats:
    """Summary statistics of a graph built from a record set.

    papers_per_author and authors_per_paper divide the authorship count
    (author-paper incidences) by authors and by papers; avg_collaborators is
    the mean unweighted degree; mean_distance is 0.0 for a graph with no edge.
    """
    papers = g.paper_count
    if papers == 0:
        raise DataError("summary_stats: no papers")
    n = len(g)
    if n == 0:
        raise DataError("summary_stats: graph has no vertices")
    _, ratio, distance = _largest_with_distance(g)
    return SummaryStats(
        papers=papers,
        authors=n,
        papers_per_author=g.authorship_count / n,
        authors_per_paper=g.authorship_count / papers,
        avg_collaborators=2 * g.edge_count() / n,
        largest_component_ratio=ratio,
        mean_distance=distance,
        clustering_coefficient=clustering_coefficient(g),
    )


def render_summary_csv(stats: SummaryStats) -> str:
    """One-row CSV with the summary statistics, headed by their field names."""
    return csv_text([f.name for f in fields(stats)], [astuple(stats)])


def render_edge_list(g: CoauthGraph) -> str:
    """Tab-separated edge list, one ``a<TAB>b<TAB>weight`` line per edge.

    Vertices are ordered within each line and lines are sorted, so output
    is byte-for-byte deterministic.
    """
    return "".join(f"{a}\t{b}\t{w}\n" for a, b, w in g.edges())


def render_isolated_vertices(g: CoauthGraph) -> str:
    """Degree-0 vertices, one per line, sorted."""
    return "".join(f"{v}\n" for v, row in zip(g._names, g._adj) if not row)

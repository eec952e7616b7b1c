"""Mid-scale differential tier: coauthnet's measures against networkx.

Seeded coauthorship-like graphs of a few hundred vertices, one connected
and one with several components, are scored and split into components by
coauthnet and by networkx as an independent implementation. The same graphs
rebuilt from shuffled edges must score bit-identically, and induced
subgraphs must equal the graphs built from the filtered adjacency.
"""

from __future__ import annotations

from random import Random

import pytest

from coauthnet import (
    CoauthGraph,
    betweenness_centrality,
    closeness_centrality,
    clustering_coefficient,
    connected_components,
    largest_component,
    mean_distance,
    pagerank,
)
from oracles import adjacency, from_edges, positions, random_coauthor_graph, stored_form

nx = pytest.importorskip("networkx")

GRAPHS = {
    "connected": random_coauthor_graph(Random(2010), (520,)),
    "components": random_coauthor_graph(Random(2011), (230, 120, 60, 25, 3, 1)),
}


def to_networkx(g: CoauthGraph):
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from((a, b) for a, b, _ in g.edges())
    return h


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def pair(request):
    g = GRAPHS[request.param]
    return g, to_networkx(g)


def test_closeness_matches_harmonic_centrality(pair):
    g, h = pair
    assert closeness_centrality(g).scores == pytest.approx(
        nx.harmonic_centrality(h), rel=1e-12
    )


def test_betweenness_matches_unnormalized_networkx(pair):
    g, h = pair
    expected = nx.betweenness_centrality(h, normalized=False)
    assert max(expected.values()) > 0.0
    assert betweenness_centrality(g).scores == pytest.approx(expected, rel=1e-12)


def test_mean_distance_matches_networkx_on_largest_component(pair):
    g, h = pair
    lcc = h.subgraph(max(nx.connected_components(h), key=len))
    assert mean_distance(g) == pytest.approx(
        nx.average_shortest_path_length(lcc), rel=1e-12
    )


def test_pagerank_matches_networkx(pair):
    g, h = pair
    # networkx stops once the L1 change is below len(h) * tol
    expected = nx.pagerank(h, alpha=0.85, tol=1e-14 / len(h), max_iter=1000)
    assert pagerank(g).scores == pytest.approx(expected, rel=1e-10)


def test_clustering_matches_networkx_over_degree_two_vertices(pair):
    g, h = pair
    local = nx.clustering(h)
    eligible = [local[v] for v in h if h.degree(v) >= 2]
    assert clustering_coefficient(g) == pytest.approx(sum(eligible) / len(eligible), rel=1e-10)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_edge_order_does_not_change_any_score(name):
    g = GRAPHS[name]
    rng = Random(4242)
    edges = [(b, a, w) if rng.random() < 0.5 else (a, b, w) for a, b, w in g.edges()]
    rng.shuffle(edges)
    vertices = g.vertices()
    rng.shuffle(vertices)
    rebuilt = from_edges(edges, vertices=vertices)
    for measure in (closeness_centrality, betweenness_centrality, pagerank):
        assert list(measure(rebuilt).scores.items()) == list(measure(g).scores.items())
    assert mean_distance(rebuilt) == mean_distance(g)
    assert clustering_coefficient(rebuilt) == clustering_coefficient(g)


@pytest.mark.parametrize("sizes", [None, (40, 40, 7, 7, 7, 1, 1)], ids=["components", "size-ties"])
def test_components_match_networkx(sizes):
    g = GRAPHS["components"] if sizes is None else random_coauthor_graph(Random(2012), sizes)
    parts = connected_components(g)
    groups: dict[int, set[str]] = {}
    for v, cid in parts.assignment.items():
        groups.setdefault(cid, set()).add(v)
    assert sorted(groups) == list(range(len(groups)))
    assert parts.sizes == {cid: len(members) for cid, members in groups.items()}
    assert set(map(frozenset, groups.values())) == set(
        map(frozenset, nx.connected_components(to_networkx(g)))
    )
    # sizes descending, ties broken by smallest key
    order = [(-len(groups[cid]), min(groups[cid])) for cid in sorted(groups)]
    assert order == sorted(order)


def test_largest_component_equals_induced_largest_group():
    g = random_coauthor_graph(Random(2012), (40, 40, 7, 7, 7, 1, 1))  # the size-ties graph
    largest = [v for v, cid in connected_components(g).assignment.items() if cid == 0]
    lcc, ratio = largest_component(g)
    assert stored_form(lcc) == stored_form(g._induced(positions(g, largest)))
    assert ratio == 40 / len(g)


@pytest.mark.parametrize("seed", range(8))
def test_induced_equals_graph_of_filtered_mapping(seed):
    rng = Random(7000 + seed)
    g = random_coauthor_graph(rng, (rng.randint(1, 300), rng.randint(1, 60), 2, 1))
    share = (0.0, 0.1, 0.5, 0.9, 1.0)[seed % 5]
    keep = {v for v in g.vertices() if rng.random() < share}
    sub = g._induced(positions(g, keep))
    rows = adjacency(g)
    expected = CoauthGraph({v: {u: w for u, w in rows[v].items() if u in keep} for v in keep})
    assert sub.vertices() == expected.vertices()
    assert list(adjacency(sub).items()) == list(adjacency(expected).items())
    assert list(sub.edges()) == list(expected.edges())
    # the stored form itself, order included
    assert stored_form(sub) == stored_form(expected)
    assert (sub.paper_count, sub.authorship_count) == (0, 0)

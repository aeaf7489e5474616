"""The mutation guard shared by the graph-keyed caches."""

from repro.graphs.adjacency import graph_signature
from repro.graphs.generators import grid_graph


def test_signature_counts_nodes_and_edge_endpoints():
    graph = grid_graph(4, 3)
    assert graph_signature(graph) == (
        graph.number_of_nodes(), 2 * graph.number_of_edges()
    )


def test_adding_or_removing_an_edge_or_node_changes_it():
    graph = grid_graph(4, 3)
    before = graph_signature(graph)
    graph.remove_edge(0, 1)
    assert graph_signature(graph) != before
    graph.add_edge(0, 1)
    assert graph_signature(graph) == before
    graph.add_node(99)
    assert graph_signature(graph) != before

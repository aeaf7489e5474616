"""``G[P_i] + H_i`` has one neighbour order.

The packet scheduler plans its routing trees by BFS over
:meth:`Shortcut.augmented_adjacency`, and BFS parents depend on neighbour
order, so the plain adjacency must list nodes and neighbours exactly as the
``nx.Graph`` of :meth:`Shortcut.augmented_subgraph` does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.full import build_full_shortcut
from repro.core.shortcut import Shortcut
from repro.graphs.trees import bfs_tree

from tests.conftest import graphs_with_partitions


def _orders(adjacency) -> list:
    return [(node, list(neighbors)) for node, neighbors in adjacency.items()]


@given(graphs_with_partitions(min_nodes=2, max_nodes=30), st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_adjacency_order_equals_the_augmented_subgraph(graph_and_partition, full):
    graph, partition = graph_and_partition
    if full:
        tree = bfs_tree(graph, root=0)
        shortcut = build_full_shortcut(graph, tree, partition, delta=3.0).shortcut
    else:
        shortcut = Shortcut(graph, partition, [[] for _ in range(len(partition))])
    for index in range(len(partition)):
        adjacency = shortcut.augmented_adjacency(index)
        augmented = shortcut.augmented_subgraph(index)
        assert _orders(adjacency) == _orders(augmented.adj)


def test_steiner_neighbours_keep_shortcut_edge_order(small_grid):
    # Steiner node 7 joins part {0, 1} through two shortcut edges; its
    # neighbour order is theirs, not the order of the part's nodes.
    from repro.graphs.partition import Partition

    partition = Partition(small_grid, [[0, 1]])
    shortcut = Shortcut(small_grid, partition, [[(1, 7), (0, 6), (6, 7)]])
    adjacency = shortcut.augmented_adjacency(0)
    assert _orders(adjacency) == _orders(shortcut.augmented_subgraph(0).adj)
    assert set(adjacency) == {0, 1, 6, 7}

"""Tree shape arithmetic: pure-data invariants the overlay relies on."""

from repro.federation import TreeTopology


def test_parent_child_inverse():
    topology = TreeTopology(15, fanout=2)
    for name in topology.names:
        for child in topology.children(name):
            assert topology.parent(child) == name
    assert topology.parent(topology.root) is None


def test_bfs_heap_layout():
    topology = TreeTopology(7, fanout=2)
    assert topology.root == "fed0"
    assert topology.children("fed0") == ("fed1", "fed2")
    assert topology.children("fed1") == ("fed3", "fed4")
    assert topology.leaves() == ("fed3", "fed4", "fed5", "fed6")
    assert topology.depth == 3
    assert topology.depth_of("fed0") == 0
    assert topology.depth_of("fed6") == 2


def test_left_packed_incomplete_tree():
    topology = TreeTopology(5, fanout=2)
    assert topology.children("fed1") == ("fed3", "fed4")
    assert topology.children("fed2") == ()
    assert topology.is_leaf("fed2")
    assert topology.link_count == 4
    assert len(list(topology.links())) == 4


def test_path_to_root_and_links():
    topology = TreeTopology(15, fanout=2)
    assert topology.path_to_root("fed11") == ("fed11", "fed5", "fed2", "fed0")
    links = list(topology.links())
    assert links[0] == ("fed0", "fed1")
    assert ("fed5", "fed11") in links
    assert len(links) == topology.link_count
    # every non-root broker appears exactly once as a child
    children = [child for _, child in links]
    assert sorted(children) == sorted(topology.names[1:])


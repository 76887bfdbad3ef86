import itertools

import pytest

from phyloag import treecore
from phyloag.treecore import (NewickError, Subforest, display_edge_order,
                              edge_split, enumerate_subforests, parse_newick)

from conftest import fibonacci, is_subforest


def test_parse_and_roundtrip():
    t = parse_newick("((1,2),(3,4));")
    assert t.num_leaves == 4
    assert t.num_edges == 6
    assert t.leaf_labels == ["1", "2", "3", "4"]
    assert t.to_newick() == "((1,2),(3,4));"


def test_parse_degree_two_root():
    t = parse_newick("(1,(2,3));")
    assert t.num_edges == 4
    assert len(t.children[t.root]) == 2


@pytest.mark.parametrize("bad, snippet", [
    ("((1,2),3)", "';'"),
    ("((1,2,3);", "unbalanced"),
    ("(1,,2);", "empty"),
    ("(1,1);", "duplicate"),
    ("(1,2)x;", "root label"),
    ("(1,2));", "trailing"),
    ("(1:0.1,(2:0.2,3:0.3):0.4);",
     "branch length ':0.1' is not supported (at position 2)"),
    ("((1,2)x,3);", "internal node label 'x' is not supported (at position 6)"),
    ("(1,(2,3))root;", "root label 'root' is not supported (at position 9)"),
])
def test_parse_errors(bad, snippet):
    with pytest.raises(NewickError) as err:
        parse_newick(bad)
    assert snippet in str(err.value)


def _deep_caterpillar():
    # deeper than the interpreter's recursion limit
    text = "1"
    for leaf in range(2, 1500):
        text = f"({text},{leaf})"
    return text + ";"


def test_parse_deep_caterpillar():
    t = parse_newick(_deep_caterpillar())
    assert t.num_edges == 2996
    assert t.leaf_labels == [str(i) for i in range(1, 1500)]
    # pre-order: the root's first edge leads down the spine
    assert t.edges[:2] == [(0, 1), (1, 2)]
    assert t.edges[-1] == (0, 2996)


def test_edge_id_lookup():
    t = parse_newick("((1,2),(3,(4,5)));")
    for eid, (p, c) in enumerate(t.edges):
        assert t.edge_id(p, c) == eid
    p, c = t.edges[0]
    with pytest.raises(ValueError):
        t.edge_id(c, p)


def test_newick_file_roundtrip(tmp_path):
    p = tmp_path / "t.nwk"
    p.write_text("(a,(b,c));\n", encoding="utf-8")
    assert treecore.read_newick(p).leaf_labels == ["a", "b", "c"]


def test_edge_split():
    t = parse_newick("((1,2),(3,4));")
    # edge 0 = root -> first cherry
    s = edge_split(t, 0)
    assert s.below == frozenset({"1", "2"})
    assert s.above == frozenset({"3", "4"})
    with pytest.raises(KeyError):
        edge_split(t, 99)


def test_is_subforest_brute_force():
    # compare the predicate against the definition on every edge subset
    for nwk in ["(1,(2,3));", "((1,2),(3,4));"]:
        t = parse_newick(nwk)
        listed = {sf.indicator for sf in enumerate_subforests(t)}
        for bits in itertools.product((0, 1), repeat=t.num_edges):
            edges = [e for e, b in enumerate(bits) if b]
            assert is_subforest(t, edges) == (bits in listed)


def test_deep_caterpillar_prints_draws_and_splits():
    text = _deep_caterpillar()
    t = parse_newick(text)
    assert t.to_newick() == text
    again = parse_newick(t.to_newick())
    assert (again.edges, again.labels) == (t.edges, t.labels)
    x = t.node_x()
    assert len(x) == 2997
    # the root sits between the spine below it and the last leaf
    assert x[t.root] == (x[1] + 1498) / 2
    split = edge_split(t, 0)
    assert split.above == {"1499"}
    assert split.below == {str(i) for i in range(1, 1499)}
    assert len(display_edge_order(t)) == 2996


def test_subforest_counts_fibonacci():
    cases = [("(1,(2,3));", 3), ("((1,2),(3,4));", 4),
             ("((1,2),(3,(4,5)));", 5)]
    for nwk, n in cases:
        t = parse_newick(nwk)
        assert len(enumerate_subforests(t)) == fibonacci(2 * n - 1)


def test_subforests_sorted_and_unique():
    t = parse_newick("((1,2),(3,4));")
    sfs = enumerate_subforests(t)
    inds = [sf.indicator for sf in sfs]
    assert inds == sorted(inds)
    assert len(set(inds)) == len(inds)
    assert Subforest((0,) * t.num_edges) in sfs


def test_empty_set_is_subforest():
    t = parse_newick("(1,2);")
    assert is_subforest(t, [])


def test_display_edge_order():
    # edges sorted by drawing midpoint: cherry edges come before the root edge
    t = parse_newick("(1,(2,3));")
    assert display_edge_order(t) == [0, 1, 2, 3]
    t4 = parse_newick("((1,2),(3,4));")
    order = display_edge_order(t4)
    assert sorted(order) == list(range(6))
    assert order == [1, 2, 0, 3, 4, 5]


def test_fibonacci():
    assert [fibonacci(i) for i in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]

import itertools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from phyloag import fourier, make_model, paramap, treecore
from phyloag.treecore import (NewickError, display_edge_order, edge_split,
                              enumerate_subforests, parse_newick)

from conftest import draw_newick, fibonacci, is_subforest


def test_parse_and_roundtrip():
    t = parse_newick("((1,2),(3,4));")
    assert t.num_leaves == 4
    assert t.num_edges == 6
    assert t.leaf_labels == ["1", "2", "3", "4"]
    assert t.to_newick() == "((1,2),(3,4));"


@given(st.data())
@settings(max_examples=50)
def test_node_ids_are_the_pre_order(data):
    # the circuit build and the Fourier flattenings rely on this order
    nwk = draw_newick(data.draw, 2, 9)
    tree = parse_newick(nwk)
    # children are in source order
    assert tree.to_newick() == nwk
    order, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(tree.children[v]))
    assert order == list(range(len(tree.children)))
    leaves = [v for v in order if tree.is_leaf(v)]
    assert tree.leaves == leaves
    assert tree.leaf_labels == re.findall(r"[^(),;]+", nwk)
    for no_hidden, observed in [(False, leaves), (True, order)]:
        model = make_model(tree, "jc-binary", no_hidden=no_hidden)
        assert paramap.observed_nodes(model) == observed


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
    ("(A,B):1;", "branch length ':1' is not supported (at position 5)"),
    ("(A,[B]);", "empty subtree or missing label (at position 3)"),
    ("(A,B)(C);", "trailing characters after tree (at position 5)"),
])
def test_parse_errors(bad, snippet):
    with pytest.raises(NewickError) as err:
        parse_newick(bad)
    assert snippet in str(err.value)


@pytest.mark.parametrize("text", [
    "( (A, B) ,(C ,D) ) ;",
    "((A,\nB),\n (C,D))\n;\n",
    "\t((A,B),\r\n(C,D));",
], ids=["spaced", "wrapped", "tab-crlf"])
def test_parse_allows_whitespace_between_tokens(tmp_path, text):
    compact = parse_newick("((A,B),(C,D));")
    path = tmp_path / "t.nwk"
    path.write_bytes(text.encode("utf-8"))
    for tree in (parse_newick(text), treecore.read_newick(path)):
        assert tree.to_newick() == compact.to_newick()
        assert (tree.children, tree.edges, tree.labels) == \
            (compact.children, compact.edges, compact.labels)


@pytest.mark.parametrize("bad, message", [
    ("(A B,C);", "whitespace inside leaf label 'A' (at position 3)"),
    ("  (1, ,2);", "empty subtree or missing label (at position 6)"),
    ("(A,B)C D;", "root label 'C' is not supported (at position 5)"),
    ("A B;", "whitespace inside leaf label 'A' (at position 2)"),
])
def test_parse_errors_count_the_whitespace(bad, message):
    # positions are offsets into the text as given
    with pytest.raises(NewickError) as err:
        parse_newick(bad)
    assert str(err.value) == message


NEWICK_ALPHABET = "(),;: AB1x.\t\n_é²-[]'"


@given(st.one_of(st.text(NEWICK_ALPHABET, max_size=30),
                 st.lists(st.sampled_from(["(", ")", ",", ";", ":1", " ", "\n",
                                           "A", "B", "x", "1", "A B", "[B]"]),
                          max_size=20).map("".join)))
@settings(max_examples=500)
def test_parse_rejects_or_round_trips(text):
    # a text parses to the tree it spells out, or raises NewickError
    try:
        tree = parse_newick(text)
    except NewickError:
        return
    assert tree.to_newick() == re.sub(r"\s", "", text)


def test_parse_unicode_labels_and_a_single_leaf():
    assert parse_newick("(é,²,x_1.5);").to_newick() == "(é,²,x_1.5);"
    t = parse_newick("A;")
    assert (t.children, t.edges, t.leaf_labels) == ({0: []}, [], ["A"])


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
    with pytest.raises(ValueError):
        t.edge_id(None, t.root)


def test_newick_file_roundtrip(tmp_path):
    p = tmp_path / "t.nwk"
    p.write_text("(a,(b,c));\n", encoding="utf-8")
    assert treecore.read_newick(p).leaf_labels == ["a", "b", "c"]


def test_edge_split():
    t = parse_newick("((1,2),(3,4));")
    # edge 0 = root -> first cherry
    assert edge_split(t, 0) == (frozenset({"1", "2"}), frozenset({"3", "4"}))
    with pytest.raises(KeyError):
        edge_split(t, 99)


def test_is_subforest_brute_force():
    # compare the predicate against the definition on every edge subset
    for nwk in ["(1,(2,3));", "((1,2),(3,4));"]:
        t = parse_newick(nwk)
        listed = set(enumerate_subforests(t))
        for bits in itertools.product((0, 1), repeat=t.num_edges):
            edges = [e for e, b in enumerate(bits) if b]
            assert is_subforest(t, edges) == (bits in listed)


@st.composite
def newick_trees(draw):
    return draw_newick(draw, 2, 6)


@given(newick_trees())
@example("(1,2,3,4,5);")
@example("((1,2,3,4),5);")
@example("(1,(2));")
@example("(((1,2)),3);")
@settings(max_examples=60, deadline=None)
def test_pre_order_ranges_match_their_definitions(nwk):
    t = parse_newick(nwk)
    E = t.num_edges
    want = sorted(bits for bits in itertools.product((0, 1), repeat=E)
                  if is_subforest(t, [e for e in range(E) if bits[e]]))
    assert enumerate_subforests(t) == want

    def dfs_leaves(v):
        found, stack = set(), [v]
        while stack:
            u = stack.pop()
            if t.is_leaf(u):
                found.add(t.labels[u])
            stack.extend(t.children[u])
        return found

    for v in t.children:
        assert t.leaves_below(v) == dfs_leaves(v)
    position = {label: i for i, label in enumerate(t.leaf_labels)}
    assert fourier.edge_leaf_positions(t) == [
        sorted(position[label] for label in dfs_leaves(c)) for _, c in t.edges]


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
    below, above = edge_split(t, 0)
    assert above == {"1499"}
    assert below == {str(i) for i in range(1, 1499)}
    assert len(display_edge_order(t)) == 2996


def test_subforest_counts_fibonacci():
    cases = [("(1,(2,3));", 3), ("((1,2),(3,4));", 4),
             ("((1,2),(3,(4,5)));", 5)]
    for nwk, n in cases:
        t = parse_newick(nwk)
        assert len(enumerate_subforests(t)) == fibonacci(2 * n - 1)


def test_subforests_sorted_and_unique():
    t = parse_newick("((1,2),(3,4));")
    inds = enumerate_subforests(t)
    assert inds == sorted(inds)
    assert len(set(inds)) == len(inds)
    assert (0,) * t.num_edges in inds


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

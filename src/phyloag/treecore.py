"""Rooted leaf-labeled trees: Newick parsing, edge splits and subforest
enumeration.

Node ids are pre-order numbers from the root 0 with children in source
order, so a subtree is the id range v..last(v) and the edge into node c
has id c - 1: edge ids 0..E-1 follow the same pre-order, which every
edge/indicator vector downstream uses.  Leaves keep their source order,
which is pre-order.  A subforest is a plain tuple of 0/1 edge indicators,
one per edge id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class NewickError(ValueError):
    """Malformed Newick input; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class Tree:
    """Rooted tree with ordered labeled leaves and pre-order node ids: a
    subtree is the id range v..last(v), and the edge into c has id c - 1."""

    root: int
    children: dict
    parent: dict
    edges: list            # list of (parent, child); index = edge id
    leaves: list           # leaf node ids in source order
    labels: dict           # leaf node id -> label

    # -- construction ------------------------------------------------------

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_leaves(self):
        return len(self.leaves)

    @property
    def leaf_labels(self):
        return [self.labels[v] for v in self.leaves]

    def is_leaf(self, v):
        return not self.children[v]

    def edge_id(self, parent, child):
        # nodes are numbered in pre-order, so the edge into child c has id c-1
        if child not in self.parent or self.parent[child] != parent:
            raise ValueError(f"({parent}, {child}) is not an edge")
        return child - 1

    def child_of_edge(self, eid):
        return self.edges[eid][1]

    def postorder(self):
        """All nodes, each child before its parent: the pre-order of the
        edge ids, reversed."""
        return [c for _, c in reversed(self.edges)] + [self.root]

    def last(self, v):
        """The subtree's last pre-order id: follow last children to a leaf."""
        while self.children[v]:
            v = self.children[v][-1]
        return v

    def leaves_below(self, v):
        """Leaf labels of the subtree under v, the id range v..last(v)."""
        return frozenset(self.labels[u] for u in range(v, self.last(v) + 1)
                         if u in self.labels)

    # -- layout ------------------------------------------------------------

    def node_x(self):
        """Horizontal drawing position: leaf index, internal = child mean."""
        x = {v: float(i) for i, v in enumerate(self.leaves)}
        for v in self.postorder():
            if v not in x:
                x[v] = sum(x[c] for c in self.children[v]) / \
                    len(self.children[v])
        return x

    def to_newick(self):
        text = {}
        for v in self.postorder():
            if self.is_leaf(v):
                text[v] = self.labels[v]
            else:
                text[v] = "(" + ",".join(text.pop(c)
                                         for c in self.children[v]) + ")"
        return text[self.root] + ";"


# a token: punctuation, a label, a branch length, or any other character
_TOKEN = re.compile(r"\s*(?:([(),])|([\w.]+)|(:[^,();]*)|(\S))")


def parse_newick(text):
    """Parse a Newick expression (terminated by ';') into a Tree.

    Leaf labels must be nonempty alphanumeric (plus '_' and '.') and unique;
    branch lengths and internal or root labels are rejected.  Whitespace may
    stand between tokens, not inside a label.  One loop reads the _TOKEN
    matches in two states: a subtree is due ('(' opens a node, a label makes
    a leaf) or one was just read (',' makes a sibling due, ')' closes the
    open node, the final ';' ends the tree).  Any other token raises
    NewickError at its start; a tree of any depth parses.
    """
    s = text.rstrip()
    if not s.endswith(";"):
        raise NewickError("missing terminating ';'", len(text))
    children = {}
    parent = {}
    labels = {}
    seen = set()
    open_nodes = []        # internal nodes whose ')' is still to come
    node = None            # the subtree just read; None while one is due
    for m in _TOKEN.finditer(s):
        punct, label, length = m.group(1, 2, 3)
        pos = m.start(m.lastindex)
        if node is None:
            v = len(children)          # nodes are numbered in pre-order
            children[v] = []
            if open_nodes:
                parent[v] = open_nodes[-1]
                children[parent[v]].append(v)
            if punct == "(":
                open_nodes.append(v)
                continue
            if not label:
                raise NewickError("empty subtree or missing label", pos)
            if label in seen:
                raise NewickError(f"duplicate leaf label {label!r}", pos)
            seen.add(label)
            labels[v] = label
            node = v
        elif length:
            raise NewickError(f"branch length {length!r} is not supported",
                              pos)
        elif label:
            where = "internal node" if node in parent else "root"
            raise NewickError(f"whitespace inside leaf label {labels[node]!r}"
                              if node in labels else
                              f"{where} label {label!r} is not supported", pos)
        elif not open_nodes:
            if m.end() < len(s):
                raise NewickError("trailing characters after tree", pos)
            break          # the terminating ';'
        elif punct == ",":
            node = None
        elif punct == ")":
            node = open_nodes.pop()
        else:
            raise NewickError("unbalanced parentheses", pos)

    # pre-order edge ids: a child's id is its pre-order number
    edges = [(parent[c], c) for c in range(1, len(children))]
    return Tree(root=0, children=children, parent=parent, edges=edges,
                leaves=list(labels), labels=labels)


def read_newick(path):
    """One tree per file, UTF-8."""
    with open(path, encoding="utf-8") as fh:
        return parse_newick(fh.read())


def edge_split(tree, edge):
    """The (below, above) frozenset pair of leaf labels that an edge splits
    the leaf set into; below = leaves under the child endpoint."""
    if not 0 <= edge < tree.num_edges:
        raise KeyError(f"unknown edge id {edge}")
    below = tree.leaves_below(tree.child_of_edge(edge))
    above = frozenset(tree.leaf_labels) - below
    return below, above


def enumerate_subforests(tree):
    """All subforests, the edge sets in which no internal vertex has degree
    1, as edge-indicator tuples in lexicographic order.

    One loop over the pre-order edge ids grows the partial sets, each row
    followed by its two extensions, so the rows stay in lex order.  At the
    edge into a node's last child all the node's edges are placed (its
    child edges, and its parent edge unless it is the root), and the rows
    where it has degree 1 are dropped.
    """
    sets = np.zeros((1, 0), dtype=np.int8)
    for p, c in tree.edges:
        sets = np.column_stack([np.repeat(sets, 2, axis=0),
                                np.tile(np.int8([0, 1]), len(sets))])
        if c == tree.children[p][-1]:
            incident = [d - 1 for d in tree.children[p]] + \
                ([p - 1] if p != tree.root else [])
            sets = sets[sets[:, incident].sum(axis=1) != 1]
    return list(map(tuple, sets.tolist()))


def display_edge_order(tree):
    """Edge ids sorted by the left-to-right position of the edge midpoint in
    the standard drawing (ties broken by pre-order id)."""
    x = tree.node_x()
    mids = [((x[p] + x[c]) / 2, i) for i, (p, c) in enumerate(tree.edges)]
    mids.sort()
    return [i for _, i in mids]

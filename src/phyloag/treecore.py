"""Rooted leaf-labeled trees: Newick parsing, edge splits and subforest
enumeration.

Node ids are pre-order numbers from the root 0 with children in source
order, and edge ids 0..E-1 follow the same pre-order; every edge/indicator
vector downstream of this module uses that order.  Leaves keep their
first-appearance order from the source text, which is pre-order.  A
subforest is a plain tuple of 0/1 edge indicators, one per edge id.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field


class NewickError(ValueError):
    """Malformed Newick input; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class Tree:
    """Rooted tree with ordered labeled leaves and pre-order edge ids."""

    root: int
    children: dict
    parent: dict
    edges: list            # list of (parent, child); index = edge id
    leaves: list           # leaf node ids in source order
    labels: dict           # leaf node id -> label
    _below: dict = field(default_factory=dict, repr=False)

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

    def leaves_below(self, v):
        """Set of leaf labels in the subtree under node v (cached)."""
        if v not in self._below:
            found = []
            stack = [v]
            while stack:
                u = stack.pop()
                if self.is_leaf(u):
                    found.append(self.labels[u])
                stack.extend(self.children[u])
            self._below[v] = frozenset(found)
        return self._below[v]

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
    """All subforests as edge-indicator tuples, in lexicographic order.

    Recursive two-state enumeration: for each node, collect edge sets that are
    valid standalone versus valid once the parent edge is attached.
    """
    def collect(v):
        # returns (standalone, attachable): lists of frozensets of edge ids
        if tree.is_leaf(v):
            return [frozenset()], [frozenset()]
        options = []  # per child: list of (included?, edge set)
        for c in tree.children[v]:
            eid = tree.edge_id(v, c)
            c_stand, c_attach = collect(c)
            opts = [(0, s) for s in c_stand]
            opts += [(1, s | {eid}) for s in c_attach]
            options.append(opts)
        standalone, attachable = [], []
        for combo in itertools.product(*options):
            inc = sum(flag for flag, _ in combo)
            merged = frozenset().union(*(s for _, s in combo))
            if inc != 1:
                standalone.append(merged)
            if inc >= 1:
                attachable.append(merged)
        return standalone, attachable

    standalone, _ = collect(tree.root)
    E = tree.num_edges
    return sorted(
        tuple(1 if e in s else 0 for e in range(E)) for s in standalone
    )


def display_edge_order(tree):
    """Edge ids sorted by the left-to-right position of the edge midpoint in
    the standard drawing (ties broken by pre-order id)."""
    x = tree.node_x()
    mids = [((x[p] + x[c]) / 2, i) for i, (p, c) in enumerate(tree.edges)]
    mids.sort()
    return [i for _, i in mids]

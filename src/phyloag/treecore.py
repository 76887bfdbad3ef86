"""Rooted leaf-labeled trees: Newick parsing, edge splits and subforest
enumeration.

Edge ids are assigned 0..E-1 in pre-order from the root with children in
source order; every edge/indicator vector downstream of this module uses that
order.  Leaves keep their first-appearance order from the source text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class NewickError(ValueError):
    """Malformed Newick input; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Split:
    """Leaf bipartition induced by removing one edge."""

    edge: int
    below: frozenset
    above: frozenset


@dataclass(frozen=True)
class Subforest:
    """Edge-indicator vector of a subforest (one bit per edge id)."""

    indicator: tuple

    def edges(self):
        return [i for i, b in enumerate(self.indicator) if b]

    def __str__(self):
        return "".join(str(b) for b in self.indicator)


@dataclass
class Tree:
    """Rooted tree with ordered labeled leaves and pre-order edge ids."""

    root: int
    children: dict
    parent: dict
    edges: list            # list of (parent, child); index = edge id
    leaves: list           # leaf node ids in source order
    labels: dict           # leaf node id -> label
    source: str = ""
    _below: dict = field(default_factory=dict, repr=False)
    _edge_ids: dict = field(init=False, repr=False)   # (parent, child) -> id

    def __post_init__(self):
        self._edge_ids = {e: eid for eid, e in enumerate(self.edges)}

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
        try:
            return self._edge_ids[parent, child]
        except KeyError:
            raise ValueError(f"({parent}, {child}) is not an edge") from None

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


def parse_newick(text):
    """Parse a Newick expression (terminated by ';') into a Tree.

    Leaf labels must be nonempty alphanumeric (plus '_' and '.') and unique;
    branch lengths and internal or root labels are rejected.  Raises
    NewickError with the offending position on malformed input.  The parse
    is iterative, so a tree of any depth parses.
    """
    s = text.strip()
    if not s.endswith(";"):
        raise NewickError("missing terminating ';'", len(text))
    s = s[:-1]
    children = {}
    parent = {}
    labels = {}
    seen = set()
    open_nodes = []        # internal nodes whose ')' is still to come
    pos = 0

    def label_at(start):
        end = start
        while end < len(s) and (s[end].isalnum() or s[end] in "_."):
            end += 1
        return s[start:end]

    def reject_annotation(node):
        # a label or branch length written after a subtree's ')' or a leaf
        if s[pos:pos + 1] == ":":
            end = pos + 1
            while end < len(s) and s[end] not in ",();":
                end += 1
            raise NewickError(f"branch length {s[pos:end]!r} is not "
                              "supported", pos)
        label = label_at(pos)
        if label:
            where = "internal node" if node in parent else "root"
            raise NewickError(f"{where} label {label!r} is not supported", pos)

    while True:
        # a subtree starts at pos; nodes are numbered in pre-order
        v = len(children)
        children[v] = []
        if open_nodes:
            parent[v] = open_nodes[-1]
            children[open_nodes[-1]].append(v)
        if s[pos:pos + 1] == "(":
            open_nodes.append(v)
            pos += 1
            continue
        label = label_at(pos)
        if not label:
            raise NewickError("empty subtree or missing label", pos)
        if label in seen:
            raise NewickError(f"duplicate leaf label {label!r}", pos)
        seen.add(label)
        labels[v] = label
        pos += len(label)
        reject_annotation(v)
        while open_nodes and s[pos:pos + 1] != ",":
            if s[pos:pos + 1] != ")":
                raise NewickError("unbalanced parentheses", pos)
            pos += 1
            reject_annotation(open_nodes.pop())
        if not open_nodes:
            break
        pos += 1
    if pos != len(s):
        raise NewickError("trailing characters after tree", pos)

    # pre-order edge ids: a child's id is its pre-order number
    edges = [(parent[c], c) for c in range(1, len(children))]
    return Tree(root=0, children=children, parent=parent, edges=edges,
                leaves=list(labels), labels=labels, source=text.strip())


def read_newick(path):
    """One tree per file, UTF-8."""
    with open(path, encoding="utf-8") as fh:
        return parse_newick(fh.read())


def edge_split(tree, edge):
    """Split of the leaf set induced by an edge; below = leaves under the
    child endpoint."""
    if not 0 <= edge < tree.num_edges:
        raise KeyError(f"unknown edge id {edge}")
    below = tree.leaves_below(tree.child_of_edge(edge))
    above = frozenset(tree.leaf_labels) - below
    return Split(edge=edge, below=below, above=above)


def enumerate_subforests(tree):
    """All subforests, ordered lexicographically by indicator vector.

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
    indicators = sorted(
        tuple(1 if e in s else 0 for e in range(E)) for s in standalone
    )
    return [Subforest(ind) for ind in indicators]


def display_edge_order(tree):
    """Edge ids sorted by the left-to-right position of the edge midpoint in
    the standard drawing (ties broken by pre-order id)."""
    x = tree.node_x()
    mids = [((x[p] + x[c]) / 2, i) for i, (p, c) in enumerate(tree.edges)]
    mids.sort()
    return [i for _, i in mids]

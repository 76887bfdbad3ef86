"""The joint-probability map of a (tree, model) pair, or of a mixture of
several such models.

A mixture's map is the coordinate-wise sum of its models' maps, each
weighted by a mixing-weight symbol when it has one; a single model is the
mixture with one component.  Either is held as one factored sum-product
circuit with subexpression sharing by structural hashing, built by
Felsenstein's pruning recursion as one post-order pass of per-node integer
tables per model, each sum or product made once per distinct table row, and
its outputs are the weighted sums.  A single evaluation pass over the
circuit serves every ring: exact or float values, dual numbers over the ints
modulo a prime for the Jacobian, and polynomials for the expanded
coordinates (read off lazily, once per output node).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .exactalg import Poly, Rat, residue
from . import models as _models

SYM = "sym"
CONST = "const"
ADD = "add"
MUL = "mul"
_RING_OPS = {ADD: operator.add, MUL: operator.mul}


@dataclass(frozen=True)
class LeafPattern:
    states: tuple

    def flat_index(self, k):
        idx = 0
        for s in self.states:
            idx = idx * k + s
        return idx


def pattern_of_flat(idx, n, k):
    states = []
    for _ in range(n):
        states.append(idx % k)
        idx //= k
    return tuple(reversed(states))


def pattern_label(model, states):
    return "".join(_models.state_label(model, s) for s in states)


def parse_pattern(model, text):
    return tuple(_models.state_index(model, ch) for ch in text)


class Circuit:
    """DAG of +, x, constant and symbol nodes with one output per coordinate:
    `outputs` is an int64 array of node ids indexed by flat coordinate.

    Nodes are hash-consed: commutative children are sorted, so a0*a0 built
    twice is a single node.  Constants are free in the operation counters.
    A node's children always have smaller ids than the node itself.
    """

    def __init__(self):
        self.ops = []        # (kind, payload) payload: name | Rat | child ids
        self._memo = {}
        self.outputs = np.zeros(0, dtype=np.int64)

    def _node(self, kind, payload):
        key = (kind, payload)
        nid = self._memo.get(key)
        if nid is None:
            nid = len(self.ops)
            self.ops.append((kind, payload))
            self._memo[key] = nid
        return nid

    def sym(self, name):
        return self._node(SYM, name)

    def const(self, value):
        return self._node(CONST, Rat(value))

    def add(self, children):
        children = tuple(sorted(children))
        if len(children) == 1:
            return children[0]
        return self._node(ADD, children)

    def mul(self, children):
        # drop unit constants, fold in a single constant factor
        flat = []
        for c in children:
            kind, payload = self.ops[c]
            if kind == CONST and payload == 1:
                continue
            flat.append(c)
        if not flat:
            return self.const(1)
        flat = tuple(sorted(flat))
        if len(flat) == 1:
            return flat[0]
        return self._node(MUL, flat)

    # -- traversal ---------------------------------------------------------

    def _reachable(self, roots):
        seen = set()
        stack = list(roots)
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            kind, payload = self.ops[v]
            if kind in _RING_OPS:
                stack.extend(payload)
        return seen

    def _pass(self, roots, leaf):
        """Values of the nodes `roots` in one ring: `leaf(kind, payload)` maps
        a SYM or CONST node into the ring, sums and products use the ring's
        + and *.  Children have smaller ids, so ascending ids are a
        topological order."""
        val = {}
        for v in sorted(self._reachable(roots)):
            kind, payload = self.ops[v]
            if kind in _RING_OPS:
                val[v] = reduce(_RING_OPS[kind], [val[c] for c in payload])
            else:
                val[v] = leaf(kind, payload)
        return [val[r] for r in roots]

    def op_counts(self, nid):
        """(multiplications, additions) for one output, shared nodes counted
        once; constants are free."""
        mults = adds = 0
        for v in self._reachable([nid]):
            kind, payload = self.ops[v]
            if kind == ADD:
                adds += len(payload) - 1
            elif kind == MUL:
                priced = [c for c in payload if self.ops[c][0] != CONST]
                mults += max(len(priced) - 1, 0)
        return mults, adds

    def eval(self, assignment, mode="exact"):
        """Evaluate the outputs at a symbol assignment, in flat index order;
        exact mode uses Rat."""
        conv = Rat if mode == "exact" else float

        def leaf(kind, payload):
            if kind == CONST:
                return conv(payload)
            if payload not in assignment:
                raise KeyError(f"missing symbol {payload!r}")
            return conv(assignment[payload])

        return self._pass(self.outputs.tolist(), leaf)

    def jacobian(self, assignment, symbols, prime):
        """Forward-mode derivatives modulo `prime` of the distinct output
        nodes w.r.t. symbols: one dense row per node, in ascending node id,
        in the given symbol order.  Every symbol value and constant enters
        the pass as its residue, a plain int, and each row is reduced once at
        the end.
        """
        sym_pos = {s: j for j, s in enumerate(symbols)}

        def leaf(kind, payload):
            if kind == CONST:
                return _Dual(residue(payload, prime), {})
            grad = {sym_pos[payload]: 1} if payload in sym_pos else {}
            return _Dual(residue(Rat(assignment[payload]), prime), grad)

        rows = []
        for d in self._pass(sorted(set(self.outputs.tolist())), leaf):
            row = [0] * len(symbols)
            for j, g in d.grad.items():
                row[j] = g % prime
            rows.append(row)
        return rows


@dataclass(slots=True)
class _Dual:
    """Value with a sparse gradient {symbol position: derivative} over the
    ints; the ring in which the circuit pass is forward-mode
    differentiation."""

    val: object
    grad: dict

    def __add__(self, other):
        grad = dict(self.grad)
        for j, g in other.grad.items():
            grad[j] = grad.get(j, 0) + g
        return _Dual(self.val + other.val, grad)

    def __mul__(self, other):
        grad = {j: g * other.val for j, g in self.grad.items()}
        for j, g in other.grad.items():
            grad[j] = grad.get(j, 0) + self.val * g
        return _Dual(self.val * other.val, grad)


def _poly_leaf(kind, payload):
    return Poly.var(payload) if kind == SYM else Poly.const(payload)


class JointMap:
    """Joint-probability map of one model, or of a mixture of models on the
    same leaves and states: the shared circuit (see build_circuit) plus
    expanded polynomials per coordinate, read off the circuit on first
    access."""

    def __init__(self, *models, weight_symbols=()):
        self.models = models
        self.weight_symbols = tuple(weight_symbols)
        self.k = models[0].k
        self.n = models[0].tree.num_leaves
        self._polys = {}
        self.circuit = build_circuit(models, self.weight_symbols)

    @property
    def num_coordinates(self):
        return len(self.circuit.outputs)

    def coordinate(self, flat_index):
        """Expanded polynomial of one coordinate, cached by output node, so
        coordinates that share a node are expanded once."""
        node = int(self.circuit.outputs[flat_index])
        if node not in self._polys:
            self._polys[node] = self.circuit._pass([node], _poly_leaf)[0]
        return self._polys[node]

    def coordinates(self):
        return [self.coordinate(i) for i in range(self.num_coordinates)]

    def eval(self, params, mode="exact"):
        return self.circuit.eval(params, mode=mode)

    def symbols(self):
        """The models' symbols in order, then the weight symbols."""
        return [s for m in self.models for s in m.symbols] + \
            list(self.weight_symbols)


def expand_map(*models, weight_symbols=()):
    """JointMap of the models (coordinates expand lazily on access)."""
    return JointMap(*models, weight_symbols=weight_symbols)


def degree_profile(joint_map):
    """Common total degree of the coordinates (edge count plus one with a free
    root, edge count with a uniform root), read from one coordinate per
    symmetry class."""
    degs = {joint_map.coordinate(g[0]).degree()
            for g in symmetry_classes(joint_map)}
    degs.discard(-1)
    if len(degs) != 1:
        raise ValueError(f"coordinates are not equigraded: {sorted(degs)}")
    return degs.pop()


def build_circuit(models, weight_symbols=()):
    """One circuit for the coordinate-wise sum of the models' maps (see
    _build_into): output i is the sum over j of s_j * (output i of model j)
    with a weight symbol s_j per model, the plain sum without weight
    symbols.  Every product and sum is made once per distinct row of
    component nodes.  With one model there is nothing to sum: the outputs
    are that model's (weighted) outputs."""
    circ = Circuit()
    outs = np.stack([_build_into(circ, m) for m in models], axis=1)
    for j, w in enumerate(weight_symbols):
        pairs = np.stack([np.full(len(outs), circ.sym(w)), outs[:, j]], axis=1)
        outs[:, j] = _per_distinct_row(pairs, circ.mul)
    circ.outputs = outs[:, 0] if len(models) == 1 else \
        _per_distinct_row(outs, circ.add)
    return circ


def _build_into(circ, model):
    """Node ids in `circ` of the model's coordinates, by flat index, built by
    Felsenstein's pruning recursion as one post-order pass of integer tables
    over the tree nodes.  Several models built into one circuit share every
    node they have in common.

    An observed node contributes its weight and its children's factors for
    its one state, a hidden node a sum over its states of weight times
    message.  A node's table holds, per node state and per pattern of the
    observed states below it, the node ids of its children's factors, built
    from the children's tables with `np.repeat`/`np.tile`.  Messages,
    weight-times-message products and sums are each made once per distinct
    sorted row of their tables, never pattern by pattern.  The root's table
    gives the outputs.
    """
    tree, k = model.tree, model.k
    # without hidden nodes every node is observed and indexes the output
    observed = sorted(tree.children) if model.no_hidden else tree.leaves
    tables = {}   # node -> (observed nodes below it, (k, patterns, factors))

    def entered(rows, c):
        """Factors of node c entered through the weight `rows` (parent state
        by state of c): the observed nodes that index the patterns, and the
        node ids as an array (parent states, patterns, factors)."""
        w = np.array([[circ.const(x) if isinstance(x, Rat) else circ.sym(x)
                       for x in row] for row in rows], dtype=np.int64)
        below, table = tables.pop(c)
        ps, patterns, width = len(w), table.shape[1], table.shape[2]
        if c in observed:
            out = np.concatenate(
                [np.broadcast_to(w[:, :, None, None], (ps, k, patterns, 1)),
                 np.broadcast_to(table, (ps, k, patterns, width))], axis=3)
            return [c] + below, out.reshape(ps, k * patterns, width + 1)
        msg = _per_distinct_row(table.reshape(k * patterns, width), circ.mul)
        pairs = np.stack(np.broadcast_arrays(
            w[:, :, None], msg.reshape(1, k, patterns)), axis=3)
        pair = _per_distinct_row(pairs.reshape(-1, 2), circ.mul)
        sums = _per_distinct_row(pair.reshape(ps, k, patterns)
                                 .transpose(0, 2, 1).reshape(-1, k), circ.add)
        return below, sums.reshape(ps, patterns, 1)

    for v in tree.postorder():
        below, table = [], np.zeros((k, 1, 0), dtype=np.int64)
        for c in tree.children[v]:
            c_below, factors = entered(
                model.templates[tree.edge_id(v, c)], c)
            below += c_below
            table = np.concatenate(
                [np.repeat(table, factors.shape[1], axis=1),
                 np.tile(factors, (1, table.shape[1], 1))], axis=2)
        tables[v] = below, table
    below, factors = entered([model.root.weights(k)], tree.root)
    out = _per_distinct_row(factors[0], circ.mul)
    # patterns run over `below` lexicographically, flat indices over
    # `observed`
    axes = [below.index(v) for v in observed]
    return out.reshape((k,) * len(observed)).transpose(axes).reshape(-1)


def _per_distinct_row(rows, make):
    """Node ids for the rows of a 2-D array of child ids, made by `make`
    (Circuit.add or .mul) once per distinct sorted row.  Rows are keyed a
    column at a time, renumbered densely by `np.unique` so keys stay small."""
    rows = np.sort(rows, axis=1)
    key = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        _, first, key = np.unique(key * (int(col.max()) + 1) + col,
                                  return_index=True, return_inverse=True)
    made = np.array([make(r) for r in rows[first].tolist()], dtype=np.int64)
    return made[key]


def expanded_op_count(poly):
    """(multiplications, additions) for naive evaluation of an expanded
    polynomial; powers count as repeated multiplication, unit coefficients are
    free."""
    mults = 0
    for m, c in poly.terms.items():
        deg = sum(e for _, e in m)
        mults += max(deg - 1, 0)
        if abs(c) != 1 and deg > 0:
            mults += 1
    adds = max(poly.num_terms() - 1, 0)
    return mults, adds


def symmetry_classes(joint_map):
    """Partition of flat coordinate indices by equality of the expanded
    polynomials, classes ordered by smallest member.  Coordinates with the
    same output node are one polynomial, so one coordinate per node is
    expanded, and nodes with equal expansions are merged."""
    nodes = {}
    for i, node in enumerate(joint_map.circuit.outputs.tolist()):
        nodes.setdefault(node, []).append(i)
    classes = {}
    for g in nodes.values():
        key = frozenset(joint_map.coordinate(g[0]).terms.items())
        classes.setdefault(key, []).extend(g)
    return [sorted(c) for c in classes.values()]


def accumulate_classes(joint_map, classes=None):
    """Per symmetry class, class size times the representative polynomial."""
    if classes is None:
        classes = symmetry_classes(joint_map)
    return [joint_map.coordinate(g[0]) * len(g) for g in classes]

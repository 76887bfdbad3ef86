"""The joint-probability map of a (tree, model) pair.

The map is held as one factored sum-product circuit, built by Felsenstein's
pruning recursion up the tree with memoized factors and messages and
subexpression sharing by structural hashing.  A single evaluation pass over
the circuit serves every ring: exact or float values, dual numbers (exact or
over the ints modulo a prime) for the Jacobian, and polynomials for the
expanded coordinates (read off lazily, per coordinate).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import reduce

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
    """DAG of +, x, constant and symbol nodes with one output per coordinate.

    Nodes are hash-consed: commutative children are sorted, so a0*a0 built
    twice is a single node.  Constants are free in the operation counters.
    A node's children always have smaller ids than the node itself.
    """

    def __init__(self):
        self.ops = []        # (kind, payload) payload: name | Rat | child ids
        self._memo = {}
        self.outputs = {}    # flat coordinate index -> node id

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

    def eval(self, assignment, mode="exact", outputs=None):
        """Evaluate outputs at a symbol assignment; exact mode uses Rat."""
        conv = Rat if mode == "exact" else float

        def leaf(kind, payload):
            if kind == CONST:
                return conv(payload)
            if payload not in assignment:
                raise KeyError(f"missing symbol {payload!r}")
            return conv(assignment[payload])

        keys = sorted(self.outputs) if outputs is None else outputs
        return self._pass([self.outputs[i] for i in keys], leaf)

    def jacobian(self, assignment, symbols, prime=None):
        """Forward-mode derivatives of every output w.r.t. symbols, exact, or
        modulo `prime` when one is given.

        Returns (values, rows) where rows[i] is the dense gradient of output
        i in the given symbol order.  The pass and the dense rows are built
        once per distinct output node; outputs that share a node get copies
        of its row.  Modulo a prime, every symbol value and constant enters
        the pass as its residue, a plain int, and values and rows are reduced
        once at the end.
        """
        sym_pos = {s: j for j, s in enumerate(symbols)}
        conv = Rat if prime is None else lambda x: residue(Rat(x), prime)
        zero, one = conv(0), conv(1)

        def leaf(kind, payload):
            if kind == CONST:
                return _Dual(conv(payload), {})
            grad = {sym_pos[payload]: one} if payload in sym_pos else {}
            return _Dual(conv(assignment[payload]), grad)

        nodes = [self.outputs[i] for i in sorted(self.outputs)]
        distinct = list(dict.fromkeys(nodes))
        duals = dict(zip(distinct, self._pass(distinct, leaf)))
        if prime is not None:
            for d in duals.values():
                d.val %= prime
                for j in d.grad:
                    d.grad[j] %= prime
        dense = {v: [d.grad.get(j, zero) for j in range(len(symbols))]
                 for v, d in duals.items()}
        return [duals[v].val for v in nodes], [list(dense[v]) for v in nodes]


@dataclass(slots=True)
class _Dual:
    """Value with a sparse gradient {symbol position: derivative}, over Rat
    or over the ints; the ring in which the circuit pass is forward-mode
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
    """Joint-probability map of a model: the shared circuit plus expanded
    polynomials per coordinate, read off the circuit on first access."""

    def __init__(self, model):
        self.model = model
        self.k = model.k
        self.n = model.tree.num_leaves
        self._polys = {}
        self.circuit = build_circuit(model)

    @property
    def num_coordinates(self):
        return len(self.circuit.outputs)

    def coordinate(self, flat_index):
        """Expanded polynomial of one coordinate (cached)."""
        if flat_index not in self._polys:
            self._polys[flat_index] = self.circuit._pass(
                [self.circuit.outputs[flat_index]], _poly_leaf)[0]
        return self._polys[flat_index]

    def coordinates(self):
        return [self.coordinate(i) for i in range(self.num_coordinates)]

    def eval(self, params, mode="exact"):
        return self.circuit.eval(params, mode=mode)

    def coordinate_keys(self):
        """One key per coordinate, equal for coordinates that are the same
        polynomial: the output node of the hash-consed circuit."""
        return [self.circuit.outputs[i] for i in range(self.num_coordinates)]

    def jacobian(self, params, symbols=None, prime=None):
        symbols = symbols or self.model.symbols
        _, rows = self.circuit.jacobian(params, symbols, prime)
        return rows

    def symbols(self):
        return self.model.symbols


def expand_map(model):
    """JointMap for the model (coordinates expand lazily on access)."""
    return JointMap(model)


def degree_profile(joint_map):
    """Common total degree of the coordinates (edge count plus one with a free
    root, edge count with a uniform root)."""
    degs = {joint_map.coordinate(i).degree()
            for i in range(joint_map.num_coordinates)}
    degs.discard(-1)
    if len(degs) != 1:
        raise ValueError(f"coordinates are not equigraded: {sorted(degs)}")
    return degs.pop()


def build_circuit(model):
    """Sum-product circuit by Felsenstein's pruning recursion.

    Each coordinate is the root weight times the messages below the root.  An
    observed node contributes the factors of its one state, a hidden node a
    sum over its k states.  The factors of a node entered through an edge
    row are memoized on (row, node, observed states below the node), the
    message of a hidden node on (node, node state, observed states below the
    node), and each weight node is made on first use.  A leaf pattern thus
    stops at every subtree whose observed states an earlier pattern had, and
    the nodes are created in the same order as by a full walk per pattern.
    """
    tree = model.tree
    k = model.k
    circ = Circuit()
    # without hidden nodes every node is observed and indexes the output
    observed = sorted(tree.children) if model.no_hidden else tree.leaves
    rows = {None: model.root.weights(k)}   # row key -> weight per state
    kids = {v: [] for v in tree.children}  # node -> [(edge id, child)]
    below = {v: [v] if v in observed else [] for v in tree.children}
    for eid, (p, c) in enumerate(tree.edges):
        kids[p].append((eid, c))
        for s, row in enumerate(model.templates[eid]):
            rows[eid, s] = row
    for p, c in reversed(tree.edges):      # children before parents
        below[p] = below[p] + below[c]
    # observed states below a node, read off the state dict
    states_below = {v: operator.itemgetter(*b) for v, b in below.items()}
    weight_ids = {}
    factor_memo = {}
    message_memo = {}

    def weight(row, t):
        nid = weight_ids.get((row, t))
        if nid is None:
            w = rows[row][t]
            nid = weight_ids[row, t] = \
                circ.const(w) if isinstance(w, Rat) else circ.sym(w)
        return nid

    def factors(row, node, state):
        """Factors for `node` entered through the row of weights `row`
        (an (edge id, parent state) pair, or None at the root), indexed by
        the node's state."""
        key = (row, node, states_below[node](state))
        out = factor_memo.get(key)
        if out is None:
            if node in state:
                s = state[node]
                out = [weight(row, s)] + children(node, s, state)
            else:
                out = [circ.add([circ.mul([weight(row, t),
                                           message(node, t, state)])
                                 for t in range(k)])]
            factor_memo[key] = out
        return out

    def children(node, s, state):
        return [f for eid, c in kids[node] for f in factors((eid, s), c, state)]

    def message(node, s, state):
        key = (node, s, states_below[node](state))
        nid = message_memo.get(key)
        if nid is None:
            nid = message_memo[key] = circ.mul(children(node, s, state))
        return nid

    # lexicographic order of the patterns is the order of their flat indices
    patterns = itertools.product(range(k), repeat=len(observed))
    for flat, states in enumerate(patterns):
        state = dict(zip(observed, states))
        circ.outputs[flat] = circ.mul(factors(None, tree.root, state))
    return circ


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
    polynomials, classes ordered by smallest member."""
    groups = {}
    for i in range(joint_map.num_coordinates):
        p = joint_map.coordinate(i)
        key = frozenset(p.terms.items())
        groups.setdefault(key, []).append(i)
    classes = sorted(groups.values(), key=lambda g: g[0])
    return classes


def accumulate_classes(joint_map, classes=None):
    """Per symmetry class, class size times the representative polynomial."""
    if classes is None:
        classes = symmetry_classes(joint_map)
    return [joint_map.coordinate(g[0]) * len(g) for g in classes]

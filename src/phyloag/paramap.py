"""The joint-probability map of a (tree, model) pair, or of a mixture of
several such models.

A mixture's map is the coordinate-wise sum of its models' maps, each
weighted by a mixing-weight symbol when it has one; a single model is the
mixture with one component.  Either is held as one factored sum-product
circuit with subexpression sharing by structural hashing, built by
Felsenstein's pruning recursion as one post-order pass of per-node integer
tables per model; each sorted table row is keyed by one int64, and each sum
or product is made once per distinct key (Circuit.per_row).  Its outputs
are the weighted sums.  The circuit is built on first use.  Its one pass
expands coordinates into polynomials, lazily, once per output node;
Circuit.eval and Circuit.jacobian read values and derivatives off them.

The numeric questions need no circuit; each is Felsenstein's pruning in
some ring.  pattern_weights gives a model's exact distribution as Python
ints over one common denominator, every pattern in one pass.  The
Jacobian's rank needs neither the circuit nor the k^n coordinates:
projected_jacobian runs the pruning with soft leaf vectors, once forward and
once in reverse per component, on residues modulo a prime, and its rows are
random combinations of the Jacobian's rows.

This module also owns the site-pattern format.  A pattern is one state per
observed node (observed_nodes), in pre-order; its flat index is leaf-major
(the first node's state is the most significant digit in base k), its
label is one character of models.alphabet per state, and the coordinate it
indexes is named "p" and the label.
"""

from __future__ import annotations

import collections
import math
import operator
from functools import cached_property, reduce

import numpy as np

from .exactalg import Poly, Rat, residue
from . import models as _models

SYM = "sym"
CONST = "const"
ADD = "add"
MUL = "mul"
_RING_OPS = {ADD: operator.add, MUL: operator.mul}


def flat_index(states, k):
    """Flat index of leaf states: an int from n ints, an int64 array from n
    int arrays of equal shape."""
    idx = np.ravel_multi_index(tuple(states), (k,) * len(states))
    return int(idx) if np.ndim(idx) == 0 else idx


def pattern_of_flat(idx, n, k):
    """Leaf states of a flat index, the inverse of flat_index: a tuple of n
    ints from an int, of n int64 arrays from an int array."""
    states = np.unravel_index(idx, (k,) * n)
    return tuple(map(int, states)) if np.ndim(idx) == 0 else states


def pattern_label(states, k):
    """Text of a sequence of states (ints or an int array), one alphabet
    character each: a pattern's label, or one leaf's alignment row."""
    chars = np.frombuffer(_models.alphabet(k).encode("ascii"), dtype=np.uint8)
    return chars[np.asarray(states, dtype=np.int64)].tobytes().decode("ascii")


def parse_states(text, k):
    """States of the characters of a text, the inverse of pattern_label, as
    an int8 array; raises ValueError on the first character outside the
    k-state alphabet."""
    alphabet = _models.alphabet(k)
    table = np.full(256, -1, dtype=np.int8)
    table[list(alphabet.encode("ascii"))] = np.arange(k)
    # a character outside ASCII encodes to bytes >= 128, which map to -1
    states = table[np.frombuffer(text.encode("utf-8"), dtype=np.uint8)]
    if (states < 0).any():
        ch = next(ch for ch in text if ch not in alphabet)
        raise ValueError(f"character {ch!r} is not in the {k}-state "
                         f"alphabet {alphabet}")
    return states


def parse_pattern(text, n, k):
    """Leaf states of a pattern label such as 'ACGT': n characters of the
    k-state alphabet, as a tuple of ints."""
    if len(text) != n or not set(text) <= set(_models.alphabet(k)):
        raise ValueError(f"bad pattern {text!r}")
    return tuple(parse_states(text, k).tolist())


def coordinate_name(states, k):
    return "p" + pattern_label(states, k)


def coordinate_index(name, n, k):
    """Flat index of a coordinate name such as 'pACGT'; raises ValueError
    unless the name is "p" and the label of a pattern of n leaves."""
    if not name.startswith("p"):
        raise ValueError(f"bad coordinate name {name!r}")
    return flat_index(parse_pattern(name[1:], n, k), k)


class Circuit:
    """DAG of +, x, constant and symbol nodes with one output per coordinate:
    `outputs` is an int64 array of node ids indexed by flat coordinate.

    Nodes are hash-consed: commutative children are sorted, so a0*a0 built
    twice is a single node.  Constants are free in the operation counters.
    A node's children always have smaller ids than the node itself.  Its one
    pass is _expand; eval and jacobian read off the expanded outputs.
    """

    def __init__(self):
        self.ops = []        # (kind, payload) payload: name | Rat | child ids
        self._memo = {}
        self.outputs = np.zeros(0, dtype=np.int64)

    def _node(self, kind, payload):
        op = (kind, payload)
        nid = self._memo.setdefault(op, len(self.ops))
        if nid == len(self.ops):
            self.ops.append(op)
        return nid

    def sym(self, name):
        return self._node(SYM, name)

    def const(self, value):
        return self._node(CONST, Rat(value))

    def per_row(self, kind, rows):
        """Node ids of ADD or MUL nodes over the rows of a 2-D int64 array of
        child ids, one per row.  Each distinct sorted row is keyed by one
        int64 and made once: a unit constant is dropped from a product, an
        empty product is the constant 1, one child is that child, and more
        make the hash-consed (kind, sorted children) node.  A row folds into
        its key a column at a time, key * base + child; before a fold would
        reach 2^62 the keys are renumbered densely, which keeps their order,
        so distinct rows are made in lexicographic order."""
        rows = np.sort(rows, axis=1)
        base = int(rows.max(initial=0)) + 1
        key, top = np.zeros(len(rows), dtype=np.int64), 1  # keys below top
        for col in rows.T:
            if top * base > 2 ** 62:
                distinct, key = np.unique(key, return_inverse=True)
                top = len(distinct)
            key, top = key * base + col, top * base
        _, first, key = np.unique(key, return_index=True, return_inverse=True)
        unit = self._memo.get((CONST, Rat(1))) if kind == MUL else None
        made, node = [], self._node
        for row in rows[first].tolist():
            if unit is not None and unit in row:
                row = [c for c in row if c != unit]
            made.append(row[0] if len(row) == 1 else
                        node(kind, tuple(row)) if row else self.const(1))
        return np.array(made, dtype=np.int64)[key]

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

    def _expand(self, roots):
        """Expanded polynomials of the nodes `roots`, in one pass over the
        nodes they reach.  Children have smaller ids, so ascending ids are a
        topological order."""
        val = {}
        for v in sorted(self._reachable(roots)):
            kind, payload = self.ops[v]
            if kind in _RING_OPS:
                val[v] = reduce(_RING_OPS[kind], [val[c] for c in payload])
            else:
                val[v] = Poly.var(payload) if kind == SYM else \
                    Poly.const(payload)
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

    # No library caller: exact distributions use pattern_weights and
    # dimensions projected_jacobian; perfbench/spans.py traces both by name,
    # so they go together with those spans.
    def eval(self, assignment):
        """Exact values (Rat) of the outputs at a symbol assignment, in flat
        index order."""
        point = {s: Rat(v) for s, v in assignment.items()}
        nodes = sorted(set(self.outputs.tolist()))
        values = {node: Rat(p.eval(point))
                  for node, p in zip(nodes, self._expand(nodes))}
        return [values[node] for node in self.outputs.tolist()]

    def jacobian(self, assignment, symbols, prime):
        """Derivatives modulo `prime` of the distinct output nodes w.r.t.
        symbols: one dense row per node, in ascending node id, in the given
        symbol order."""
        polys = self._expand(sorted(set(self.outputs.tolist())))
        x = {s: residue(Rat(assignment[s]), prime)
             for s in set().union(*(p.variables() for p in polys))}
        return [[p.derivative(s).eval_mod(x, prime) for s in symbols]
                for p in polys]


class JointMap:
    """Joint-probability map of one model, or of a mixture of models on the
    same leaves and states: the shared circuit (see build_circuit), built on
    first access, plus expanded polynomials per coordinate, read off the
    circuit on first access.

    The components must share k and leaf labels and observe the same nodes
    (the same no_hidden, and the same Newick when it is set), and every
    component symbol and weight symbol must be distinct; otherwise, or with
    no component, ValueError.
    """

    def __init__(self, *models, weight_symbols=()):
        if not models:
            raise ValueError("a mixture needs at least one model")
        first = models[0]
        if any(m.k != first.k or m.tree.leaf_labels != first.tree.leaf_labels
               for m in models):
            raise ValueError("mixture components must share leaf set and k")
        if len({(m.no_hidden, m.no_hidden and m.tree.to_newick())
                for m in models}) > 1:
            raise ValueError("mixture components must observe the same nodes")
        self.models = models
        self.weight_symbols = tuple(weight_symbols)
        self.k = first.k
        self._polys = {}
        names = self.symbols()
        shared = [s for s, n in collections.Counter(names).items() if n > 1]
        if shared:
            raise ValueError(f"mixture symbols repeat: {', '.join(shared)}; "
                             "build the components with distinct prefixes")

    @cached_property
    def circuit(self):
        return build_circuit(self.models, self.weight_symbols)

    @property
    def num_coordinates(self):
        return self.k ** len(observed_nodes(self.models[0]))

    def coordinate(self, flat_index):
        """Expanded polynomial of one coordinate, cached by output node, so
        coordinates that share a node are expanded once."""
        node = int(self.circuit.outputs[flat_index])
        if node not in self._polys:
            self._polys[node] = self.circuit._expand([node])[0]
        return self._polys[node]

    def coordinates(self):
        return [self.coordinate(i) for i in range(self.num_coordinates)]

    def symbols(self):
        """The models' symbols in order, then the weight symbols."""
        return [s for m in self.models for s in m.symbols] + \
            list(self.weight_symbols)


def expand_map(*models, weight_symbols=()):
    """JointMap of the models (coordinates expand lazily on access)."""
    return JointMap(*models, weight_symbols=weight_symbols)


def degree_profile(joint_map):
    """Total degree of the coordinates, from the models alone: every template
    cell is a symbol and every constant is positive, so a component's part
    of each coordinate has degree num_edges, plus one with a free root, plus
    one for its weight symbol when the map has weights, and a coordinate's
    degree is the largest over the components.  Builds no circuit.
    """
    models = joint_map.models
    return (models[0].tree.num_edges
            + max(isinstance(m.root[0], str) for m in models)
            + bool(joint_map.weight_symbols))


def observed_nodes(model):
    """The nodes whose states make a pattern, in flat-index digit order: the
    leaves, or every node of a model without hidden nodes, in pre-order."""
    tree = model.tree
    return sorted(tree.children) if model.no_hidden else tree.leaves


def projected_jacobian(joint_map, assignment, leaf_vectors, prime):
    """Rows of the Jacobian modulo `prime` at a symbol assignment, projected
    by soft leaf vectors, without the circuit or the k^n coordinates.

    leaf_vectors is an int64 array of residues of shape (observed nodes, R,
    k), its first axis in observed_nodes order.  Row r is the sum over flat
    indices x of prod_i leaf_vectors[i, r, x_i] times the Jacobian row of
    coordinate x, in the order of joint_map.symbols(): the gradient of the
    network polynomial (Darwiche, JACM 50(3), 2003), which is Felsenstein's
    pruning with leaf_vectors[i, r] in place of a one-hot state at observed
    node i.  Returns an int64 array (R, symbols) with entries in [0, prime).

    Each component takes one forward and one reverse pass over its tree for
    all R rows together (_pruning_gradient); every component sees the same
    leaf vectors, its gradient is scaled by its mixing weight, and the
    weight's column is its projected coordinate sum.
    """
    symbols = joint_map.symbols()
    column = {s: j for j, s in enumerate(symbols)}
    values = np.array([residue(Rat(assignment[s]), prime) for s in symbols],
                      dtype=np.int64)
    rows = np.zeros((leaf_vectors.shape[1], len(symbols)), dtype=np.int64)
    weights = joint_map.weight_symbols or (None,) * len(joint_map.models)
    for model, weight in zip(joint_map.models, weights):
        total, grads, cols = _pruning_gradient(model, column, values,
                                               leaf_vectors, prime)
        if weight is not None:
            rows[:, column[weight]] = total
            grads = grads * values[column[weight]] % prime
        # each cell's gradient is added to its symbol's column
        np.add.at(rows, (slice(None), cols), grads)
    return rows % prime


def _pruning_gradient(model, column, values, leaf_vectors, prime):
    """(total, grads, cols) of one model, all modulo prime: its projected
    coordinate sum per row (R,), the derivative of that sum per row and
    parameter cell (R, cells), and each cell's column in `values`.  The
    cells are the template entries by edge id, row and column, then the
    root weights when they are symbols.

    Forward, the message of node v is beta_v = e_v * prod over children c of
    mu_c, with mu_c = beta_c T^t for the edge's matrix T and e_v the node's
    leaf vector (observed) or all ones (hidden).  In reverse, the adjoint of
    mu_c is alpha_v * e_v * prod over c's siblings of their mu, with
    alpha_root the root weights; the sibling product is taken directly, with
    no division, since a residue can be 0.  The edge's gradient is the outer
    product of that adjoint and beta_c, and alpha_c is the adjoint times T.
    Both passes walk the pre-order edges, the forward one in reverse.  Every
    product of two residues is below 2^46 and a matrix product sums k of
    them, so int64 stays exact.
    """
    tree, k = model.tree, model.k
    rows = leaf_vectors.shape[1]
    cols = np.array([column[s] for tpl in model.templates for row in tpl
                     for s in row], dtype=np.int64)
    mats = values[cols].reshape(-1, k, k)
    pi = np.array([values[column[w]] if isinstance(w, str) else
                   residue(w, prime) for w in model.root], dtype=np.int64)
    evidence = dict(zip(observed_nodes(model), leaf_vectors))

    beta, mu = dict(evidence), {}
    for e in reversed(range(len(tree.edges))):
        v, c = tree.edges[e]
        mu[c] = beta[c] @ mats[e].T % prime
        beta[v] = beta[v] * mu[c] % prime if v in beta else mu[c]
    total = beta[0] @ pi % prime

    grads = np.empty((rows, len(mats), k, k), dtype=np.int64)
    alpha = {0: np.broadcast_to(pi, (rows, k))}
    for e, (v, c) in enumerate(tree.edges):
        adjoint = alpha[v] * evidence[v] % prime if v in evidence else alpha[v]
        for sib in tree.children[v]:
            if sib != c:
                adjoint = adjoint * mu[sib] % prime
        grads[:, e] = adjoint[:, :, None] * beta[c][:, None, :] % prime
        if tree.children[c]:
            alpha[c] = adjoint @ mats[e] % prime
    grads = grads.reshape(rows, -1)
    if isinstance(model.root[0], str):
        grads = np.concatenate([grads, beta[0]], axis=1)
        cols = np.concatenate([cols, [column[w] for w in model.root]])
    return total, grads, cols


def pattern_weights(model, params):
    """(weights, D): every coordinate of one model at rational parameter
    values as an integer over one common denominator, coordinate x being
    weights[x] / D, in flat index order.  weights is a 1-D numpy object
    array of Python ints.

    Each edge's matrix, and the root weights, are scaled by the lcm of their
    entries' denominators, so they hold integers, and D is the product of
    those lcms.  Felsenstein's pruning then runs once over all patterns,
    a node's state on the last axis as in projected_jacobian.  An observed
    node starts as evidence, the k x k identity with its own state as the
    pattern digit, a hidden one as a row of ones, and the root's table is
    scaled by the root weights.  Child c sends beta_c @ T.T, and siblings
    combine by outer products over the pattern axis, the earlier one more
    significant, so patterns come out in observed_nodes order.  The root's
    last child folds in with one (patterns, k) @ (k, patterns) product, so
    no (k, k^n) table is held.  Raises KeyError on a missing symbol.
    """
    tree, k, denominator = model.tree, model.k, 1
    last = tree.children[0][-1]

    def scaled(rows):
        nonlocal denominator
        vals = [[Rat(params[s] if isinstance(s, str) else s) for s in row]
                for row in rows]
        lcm = math.lcm(*(x.denominator for row in vals for x in row))
        denominator *= lcm
        return np.array([[x.numerator * (lcm // x.denominator) for x in row]
                         for row in vals], dtype=object)

    one = np.ones((1, k), dtype=object)
    beta = {v: np.identity(k, dtype=object) for v in observed_nodes(model)}
    beta[0] = beta.get(0, one) * scaled([model.root])
    for v in tree.postorder():
        b = beta.get(v, one)
        for c in tree.children[v]:
            mu = beta.pop(c) @ scaled(model.templates[c - 1]).T
            if c == last:
                return (b @ mu.T).reshape(-1), denominator
            b = (b[:, None, :] * mu[None, :, :]).reshape(-1, k)
        beta[v] = b


def build_circuit(models, weight_symbols=()):
    """One circuit for the coordinate-wise sum of the models' maps (see
    _build_into): output i is the sum over j of s_j * (output i of model j)
    with a weight symbol s_j per model, the plain sum without weight
    symbols.  Every product and sum is made once per distinct row of
    component nodes (Circuit.per_row).  With one model there is nothing to
    sum: the outputs are that model's (weighted) outputs."""
    circ = Circuit()
    outs = np.stack([_build_into(circ, m) for m in models], axis=1)
    for j, w in enumerate(weight_symbols):
        pairs = np.stack([np.full(len(outs), circ.sym(w)), outs[:, j]], axis=1)
        outs[:, j] = circ.per_row(MUL, pairs)
    circ.outputs = outs[:, 0] if len(models) == 1 else \
        circ.per_row(ADD, outs)
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
    weight-times-message products and sums are each made by one
    Circuit.per_row call per table, never pattern by pattern.  The root's
    table gives the outputs.
    """
    tree, k = model.tree, model.k
    observed = set(observed_nodes(model))
    tables = {}   # node -> node ids (k, patterns below it, factors)

    def entered(rows, c):
        """Factors of node c entered through the weight `rows` (parent state
        by state of c), as an array of node ids (parent states, patterns,
        factors)."""
        w = np.array([[circ.const(x) if isinstance(x, Rat) else circ.sym(x)
                       for x in row] for row in rows], dtype=np.int64)
        table = tables.pop(c)
        ps, patterns, width = len(w), table.shape[1], table.shape[2]
        if c in observed:
            out = np.concatenate(
                [np.broadcast_to(w[:, :, None, None], (ps, k, patterns, 1)),
                 np.broadcast_to(table, (ps, k, patterns, width))], axis=3)
            return out.reshape(ps, k * patterns, width + 1)
        msg = circ.per_row(MUL, table.reshape(k * patterns, width))
        pairs = np.stack(np.broadcast_arrays(
            w[:, :, None], msg.reshape(1, k, patterns)), axis=3)
        pair = circ.per_row(MUL, pairs.reshape(-1, 2))
        sums = circ.per_row(ADD, pair.reshape(ps, k, patterns)
                             .transpose(0, 2, 1).reshape(-1, k))
        return sums.reshape(ps, patterns, 1)

    for v in tree.postorder():
        table = np.zeros((k, 1, 0), dtype=np.int64)
        for c in tree.children[v]:
            factors = entered(model.templates[c - 1], c)
            table = np.concatenate(
                [np.repeat(table, factors.shape[1], axis=1),
                 np.tile(factors, (1, table.shape[1], 1))], axis=2)
        tables[v] = table
    # the root's patterns run over the observed nodes in pre-order, which
    # parse_newick makes node-id order: the flat-index order of observed_nodes
    factors = entered([model.root], 0)
    return circ.per_row(MUL, factors[0])


def expanded_op_count(poly):
    """(multiplications, additions) for naive evaluation of an expanded
    polynomial; powers count as repeated multiplication, unit coefficients are
    free."""
    mults = 0
    for m, c in poly.terms.items():
        mults += max(len(m) - 1, 0)
        if abs(c) != 1 and m:
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
        classes.setdefault(joint_map.coordinate(g[0]), []).extend(g)
    return [sorted(c) for c in classes.values()]


def accumulate_classes(joint_map, classes):
    """Per class (symmetry_classes), class size times its first coordinate."""
    return [joint_map.coordinate(g[0]) * len(g) for g in classes]

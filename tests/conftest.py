import itertools
import random

import pytest

from phyloag import parse_newick
from phyloag.exactalg import Poly, Rat


@pytest.fixture
def tree3():
    return parse_newick("(1,(2,3));")


@pytest.fixture
def tree4():
    return parse_newick("((1,2),(3,4));")


@pytest.fixture
def tree5():
    return parse_newick("((1,2),(3,(4,5)));")


def _brute_force_terms(model, leaf_states):
    """Per full assignment of the hidden nodes: the root weight and the
    template symbol of every edge."""
    tree = model.tree
    k = model.k
    hidden = [] if model.no_hidden else tree.internal_nodes()
    weights = model.root.weights(k)
    state = {leaf: s for leaf, s in zip(tree.leaves, leaf_states)}
    for assign in itertools.product(range(k), repeat=len(hidden)):
        state.update(zip(hidden, assign))
        yield weights[state[tree.root]], [
            model.templates[eid][state[p]][state[c]]
            for eid, (p, c) in enumerate(tree.edges)]


def brute_force_eval(model, params, leaf_states):
    """Direct summation over all hidden-node assignments, no circuit.

    Independent oracle for the joint-probability map: iterates the full state
    space of the internal nodes and multiplies template entries.
    """
    total = Rat(0)
    for w, edge_symbols in _brute_force_terms(model, leaf_states):
        term = Rat(w) if isinstance(w, (Rat, int)) else Rat(params[w])
        for s in edge_symbols:
            term *= Rat(params[s])
        total += term
    return total


def brute_force_expand(model, leaf_states):
    """The same direct summation over polynomials: one coordinate expanded
    without the circuit."""
    total = Poly()
    for w, edge_symbols in _brute_force_terms(model, leaf_states):
        term = Poly.const(w) if isinstance(w, (Rat, int)) else Poly.var(w)
        for s in edge_symbols:
            term = term * Poly.var(s)
        total = total + term
    return total


def random_rat(rng):
    return Rat(rng.randint(1, 97), rng.randint(1, 97))


def random_params(symbols, seed):
    rng = random.Random(seed)
    return {s: random_rat(rng) for s in symbols}


def stochastic_jc_params(tree, k, seed=0, denom_base=17):
    """Row-stochastic Jukes-Cantor parameter values, one rate per edge."""
    params = {}
    from phyloag.models import edge_letter
    for eid in range(tree.num_edges):
        letter = edge_letter(eid)
        a1 = Rat(1, denom_base + 2 * eid)
        params[f"{letter}1"] = a1
        params[f"{letter}0"] = 1 - (k - 1) * a1
    return params


def rational_scan_inverse_cdf(probs, u):
    """Inverse CDF by a linear scan over exact rational cumulative sums, one
    draw at a time.

    Independent oracle for the sampler's integer-threshold search: returns,
    per draw x, the first index whose cumulative probability is >= x.
    """
    cum = list(itertools.accumulate(probs))
    out = []
    for x in u:
        x = Rat(x.item())
        idx = 0
        while cum[idx] < x:
            idx += 1
        out.append(idx)
    return out


def rref_nullspace_mod_p(rows, p):
    """Gauss-Jordan mod p on Python ints, one row operation at a time.

    Independent oracle for the blocked modular elimination: returns the
    pivot columns and, per free column, the nullspace vector with 1 there
    and 0 at the other free columns.
    """
    A = [[x % p for x in row] for row in rows]
    n = len(A[0])
    pivots = []
    for c in range(n):
        r = len(pivots)
        i = next((i for i in range(r, len(A)) if A[i][c]), None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for j, row in enumerate(A):
            if j != r and row[c]:
                A[j] = [(x - row[c] * y) % p for x, y in zip(row, A[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -A[r][f] % p
        basis.append(v)
    return pivots, basis

import itertools
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from phyloag import fourier, parse_newick, treecore
from phyloag.exactalg import (Poly, Rat, mat_rank_nullspace, normalize_poly,
                              residue)


@pytest.fixture
def tree3():
    return parse_newick("(1,(2,3));")


@pytest.fixture
def tree4():
    return parse_newick("((1,2),(3,4));")


@pytest.fixture
def tree5():
    return parse_newick("((1,2),(3,(4,5)));")


def fresh_process_env():
    """The environment with this checkout's `src` first on PYTHONPATH, for
    running phyloag in a fresh interpreter."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def draw_newick(draw, min_leaves, max_leaves):
    """Inside a hypothesis composite strategy: a random tree in Newick form
    with leaves 1..n, n in [min_leaves, max_leaves], and a root of degree 2
    or 3."""
    n = draw(st.integers(min_leaves, max_leaves))
    parts = [str(i + 1) for i in range(n)]
    top = draw(st.sampled_from([2, 3]))
    while len(parts) > top:
        i, j = sorted(draw(st.lists(st.integers(0, len(parts) - 1),
                                    min_size=2, max_size=2, unique=True)))
        parts[i] = f"({parts[i]},{parts.pop(j)})"
    return "(" + ",".join(parts) + ");"


def _brute_force_terms(model, leaf_states):
    """Per full assignment of the hidden nodes: the root weight and the
    template symbol of every edge.  Without hidden nodes `leaf_states` holds
    the state of every node, in node order."""
    tree = model.tree
    k = model.k
    if model.no_hidden:
        observed, hidden = sorted(tree.children), []
    else:
        observed = tree.leaves
        hidden = [v for v in tree.children if tree.children[v]]
    weights = model.root.weights(k)
    state = dict(zip(observed, leaf_states))
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


def first_flat_index(joint_map):
    """{output node: smallest flat index with that node}, in ascending node
    id."""
    first = {}
    for i, node in enumerate(joint_map.circuit.outputs.tolist()):
        first.setdefault(node, i)
    return dict(sorted(first.items()))


def brute_force_jacobian(joint_map, params, symbols, prime):
    """Jacobian rows modulo prime, one per distinct output node of the joint
    map's circuit, in ascending node id: the derivatives of the direct sum
    that brute_force_expand expands (for a mixture, of the weighted sum over
    its component models), at a point whose parameters are nonzero modulo
    the prime.

    Independent oracle for Circuit.jacobian: the circuit only picks one
    coordinate per output node.  Each term of the sum, one per full
    assignment of the hidden nodes, is a product of symbols and at most one
    constant; its derivative in a symbol is the term over that symbol, once
    per factor, so each symbol sums the terms it divides and is divided once
    at the end.  All rows and assignments are numpy arrays of residues.
    """
    names = sorted(params)
    index = {s: j for j, s in enumerate(names)}
    x = np.array([residue(Rat(params[s]), prime) for s in names])
    models = joint_map.models
    weights = joint_map.weight_symbols or [None] * len(models)
    k, tree = joint_map.k, models[0].tree
    observed = sorted(tree.children) if models[0].no_hidden else tree.leaves
    hidden = [v for v in tree.children if v not in observed]
    first = list(first_flat_index(joint_map).values())
    width = len(observed)
    patterns = np.array([[i // k ** e % k for e in reversed(range(width))]
                         for i in first])
    assignments = np.array(list(itertools.product(range(k),
                                                  repeat=len(hidden))),
                           dtype=np.int64).reshape(k ** len(hidden), -1)
    shape = (len(first), len(assignments))
    state = {v: np.broadcast_to(patterns[:, [j]], shape)
             for j, v in enumerate(observed)}
    state.update({v: np.broadcast_to(assignments[:, j], shape)
                  for j, v in enumerate(hidden)})
    sums = np.zeros((len(first), len(names)), dtype=np.int64)
    rows = np.arange(len(first))[:, None]
    for model, weight in zip(models, weights):
        root = model.root.weights(k)
        at_root = state[tree.root]
        if isinstance(root[0], str):
            term = np.ones(shape, dtype=np.int64)
            factors = [np.array([index[s] for s in root])[at_root]]
        else:
            term = np.array([residue(w, prime) for w in root])[at_root]
            factors = []
        for eid, (p, c) in enumerate(tree.edges):
            cells = [[index[s] for s in row] for row in model.templates[eid]]
            factors.append(np.array(cells)[state[p], state[c]])
        if weight is not None:
            factors.append(np.full(shape, index[weight]))
        for f in factors:
            term = term * x[f] % prime
        for f in factors:
            np.add.at(sums, (rows, f), term)
    inverse = np.array([pow(int(v), -1, prime) for v in x])
    return (sums % prime * inverse % prime)[:, [index[s] for s in symbols]] \
        .tolist()


def exact_interpolation(coords, degree, rng=None, extra_points=10):
    """Degree-d vanishing forms from the exact sample matrix: the coordinates
    evaluated over Q at #monomials + extra_points random points, the
    nullspace found by Bareiss elimination, each form normalized.

    Independent oracle for invariants.interpolate_vanishing_forms, which
    samples and eliminates modulo primes and reconstructs rationally.
    """
    rng = rng or random.Random(0)
    names = [nm for nm, _ in coords]
    polys = [p for _, p in coords]
    params = sorted(set().union(*[p.variables() for p in polys]))
    combos = list(itertools.combinations_with_replacement(range(len(coords)),
                                                          degree))
    rows = []
    for _ in range(len(combos) + extra_points):
        pt = {s: random_rat(rng) for s in params}
        values = [p.eval(pt) for p in polys]
        rows.append([math.prod((values[i] for i in c), start=Rat(1))
                     for c in combos])
    forms = []
    for vec in mat_rank_nullspace(rows)[1]:
        form = Poly()
        for c, coef in zip(combos, vec):
            if coef == 0:
                continue
            mono = Poly.const(coef)
            for i in c:
                mono = mono * Poly.var(names[i])
            form = form + mono
        forms.append(normalize_poly(form))
    return forms


def exact_witness(form, coords):
    """The first of 25 random points at which the form, in the
    coordinates' polynomials, is nonzero over Q, or None; the points are
    drawn as invariants.vanishing_check draws them.

    Independent oracle for vanishing_check, which evaluates modulo a prime:
    here every used coordinate and the form are evaluated exactly
    (Poly.eval).
    """
    rng = random.Random(0)
    used = {name: coords[name] for name in form.variables()}
    params = sorted(set().union(*[p.variables() for p in used.values()]))
    for pt in [{s: random_rat(rng) for s in params} for _ in range(25)]:
        if form.eval({name: p.eval(pt) for name, p in used.items()}) != 0:
            return pt
    return None


def expansion_classes(joint_map):
    """Flat indices grouped by equal expanded polynomials, every coordinate
    expanded, classes ordered by smallest member.

    Independent oracle for paramap.symmetry_classes, which expands one
    coordinate per circuit output node.
    """
    groups = {}
    for i in range(joint_map.num_coordinates):
        key = frozenset(joint_map.coordinate(i).terms.items())
        groups.setdefault(key, []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def stride_flatten(tensor, leaf_order, split, k):
    """Flattening matrix of a leaf-major k^n tensor, one cell at a time:
    each cell's flat index is accumulated digit by digit from its states.

    Independent oracle for invariants.flatten, which reshapes and transposes
    the tensor.  split is a (below, above) pair of leaf-label collections.
    """
    below = [l for l in leaf_order if l in set(split[0])]
    above = [l for l in leaf_order if l in set(split[1])]
    n = len(leaf_order)
    pos = {l: i for i, l in enumerate(leaf_order)}
    mat = []
    for rstates in itertools.product(range(k), repeat=len(below)):
        row = []
        for cstates in itertools.product(range(k), repeat=len(above)):
            states = [0] * n
            for l, s in zip(below, rstates):
                states[pos[l]] = s
            for l, s in zip(above, cstates):
                states[pos[l]] = s
            flat = 0
            for s in states:
                flat = flat * k + s
            row.append(tensor[flat])
        mat.append(row)
    return mat


def stride_transform(p, k, n):
    """Character transform of a leaf-major k^n tensor, one leaf axis at a
    time, walking each axis by its stride k^(n - 1 - axis).

    Independent oracle for fourier.transform_tensor, which contracts the
    character table with each axis of the reshaped tensor.
    """
    out = list(p)
    for axis in range(n):
        stride = k ** (n - 1 - axis)
        nxt = list(out)
        for base in range(0, k ** n, stride * k):
            for off in range(stride):
                vals = [out[base + s * stride + off] for s in range(k)]
                for g in range(k):
                    nxt[base + g * stride + off] = sum(
                        fourier.char(g, s) * vals[s] for s in range(k))
        out = nxt
    return out


def stride_pattern(idx, n, k):
    """Leaf states of a leaf-major flat index, digit by digit (independent
    oracle for paramap.pattern_of_flat)."""
    return tuple(idx // k ** (n - 1 - i) % k for i in range(n))


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


def is_subforest(tree, edge_set):
    """True when every degree-1 vertex of the edge-induced subgraph is a leaf
    of the original tree (the empty set qualifies)."""
    deg = {}
    for e in edge_set:
        p, c = tree.edges[e]
        deg[p] = deg.get(p, 0) + 1
        deg[c] = deg.get(c, 0) + 1
    return all(d != 1 or tree.is_leaf(v) for v, d in deg.items())


def fibonacci(m):
    a, b = 1, 1
    for _ in range(m - 1):
        a, b = b, a + b
    return a


def support(labels):
    """The 0/1 indicator tuple of the non-identity labels."""
    return tuple(1 if l else 0 for l in labels)


def support_classes(tree, group):
    """Indicator vectors realizable by zero-sum leaf labelings; for JC-type
    symmetry this equals the set of subforest indicators."""
    out = set()
    for leaf_labels in itertools.product(range(group),
                                         repeat=tree.num_leaves):
        labels = fourier.leaf_to_edge_labels(tree, leaf_labels, group)
        if labels is not None:
            out.add(support(labels))
    return out


def lex_scan_leaf_labeling(tree, subforest, group):
    """The first of all k^n leaf labelings in lex order that sums to the
    identity and whose edge indicator equals the subforest's, or None.

    Independent oracle for fourier.subforest_leaf_labeling, which searches
    the table of zero-sum labelings.
    """
    for leaf_labels in itertools.product(range(group),
                                         repeat=tree.num_leaves):
        labels = fourier.leaf_to_edge_labels(tree, leaf_labels, group)
        if labels is not None and support(labels) == subforest:
            return leaf_labels
    return None


def poly_product_monomial_map(model):
    """The monomial map from Poly products, with the edge labels of every
    one of the k^n leaf labelings found by walking the tree.

    Independent oracle for fourier.monomial_map, which writes each monomial
    from its edge labels and enumerates only the zero-sum labelings.
    """
    group = fourier.group_for_model(model)
    tree = model.tree
    E = tree.num_edges
    reduced = model.kind == "jc-dna"
    if reduced:
        keys = treecore.enumerate_subforests(tree)
    else:
        seen = set()
        for leaf_labels in itertools.product(range(group),
                                             repeat=tree.num_leaves):
            labels = fourier.leaf_to_edge_labels(tree, leaf_labels, group)
            if labels is not None:
                seen.add(labels)
        keys = sorted(seen)
    n_idx = 2 if reduced else group
    symbols = [fourier.transformed_symbol(model, e, i)
               for e in range(E) for i in range(n_idx)]
    sym_row = {s: r for r, s in enumerate(symbols)}
    monos = []
    matrix = [[0] * len(keys) for _ in symbols]
    for col, labels in enumerate(keys):
        mono = Poly.const(1)
        for e, h in enumerate(labels):
            s = fourier.transformed_symbol(model, e, h)
            mono = mono * Poly.var(s)
            matrix[sym_row[s]][col] += 1
        monos.append(mono)
    return fourier.MonomialMap(
        model=model, coord_keys=keys,
        coord_names=[fourier.coord_name(k) for k in keys], monomials=monos,
        symbols=symbols, exponent_matrix=matrix)


def poly_product_binomials(mono_map, d):
    """Binomials of degree <= d from Poly products, hashing image tuples
    A.alpha and deduplicating normalized forms up to sign.

    Independent oracle for fourier.binomials_up_to_degree, which hashes
    packed ints and writes each binomial as two terms.
    """
    A = mono_map.exponent_matrix
    ncoords = len(mono_map.coord_names)
    out = []
    seen = set()
    for deg in range(1, d + 1):
        buckets = {}
        for combo in itertools.combinations_with_replacement(range(ncoords),
                                                             deg):
            image = tuple(sum(A[r][c] for c in combo) for r in range(len(A)))
            buckets.setdefault(image, []).append(combo)
        for image in sorted(buckets):
            for a, b in itertools.combinations(buckets[image], 2):
                if set(a) & set(b):
                    continue
                pa = Poly.const(1)
                for c in a:
                    pa = pa * Poly.var(mono_map.coord_names[c])
                pb = Poly.const(1)
                for c in b:
                    pb = pb * Poly.var(mono_map.coord_names[c])
                form = normalize_poly(pa - pb)
                key = frozenset(form.terms.items())
                if key not in seen:
                    seen.add(key)
                    out.append(form)
    return out

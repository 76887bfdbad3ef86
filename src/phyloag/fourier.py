"""Group-based change of coordinates: character transforms of parameters and
probability tensors, the toric monomial map, and degree-bounded binomial
invariants.

Supported groups are Z2 (binary states) and Z2 x Z2 (DNA states with the
fixed bijection A=(0,0), C=(0,1), G=(1,0), T=(1,1), so state i is the
element whose bit tuple is i in binary).  A group Z2^m is named by its
order k = 2^m, a group-based model's number of states, and its operations
act on element indices bitwise: the sum is XOR.  Its character table is the
m-fold tensor power of [[1, 1], [1, -1]], which transform_tensor applies as
one Walsh-Hadamard butterfly (a + b, a - b) per bit.  A coordinate's key is
the tuple of its edge labels, the group sums of the leaf labels below each
edge, in edge-id order; under the Jukes-Cantor DNA reduction only whether a
label is the identity matters, and the key is the 0/1 indicator tuple of a
subforest, the labels' support.  coord_name writes a key as a name.  The
monomial map, the binomial search and the flattening minors work on
integer exponent data (edge labels, packed exponent-matrix columns, known
names), not on polynomial products.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .exactalg import Poly, Rat, monomial_binomial
from . import treecore
from .models import edge_letter


Z2, Z2xZ2 = 2, 4


def char(g, h):
    """Character value chi_g(h) = (-1)^(g.h) for element indices g, h."""
    return -1 if (g & h).bit_count() & 1 else 1


def group_for_model(model):
    """The order of a group-based model's group: its number of states."""
    if model.kind not in ("jc-binary", "jc-dna", "kimura2", "kimura3"):
        raise ValueError(f"model kind {model.kind!r} is not group-based")
    return model.k


# ---------------------------------------------------------------------------
# tensor transforms


def transform_tensor(p, k, n):
    """q[(g_1..g_n)] = sum_sigma p[sigma] * prod_i chi_{g_i}(sigma_i).

    p has length k^n with leaf-major flat indexing (paramap.flat_index);
    state i is the binary digits of i, so p is the tensor of n*log2(k) bit
    axes of length 2 and one butterfly (a + b, a - b) per axis applies the
    characters, exact when the input is exact.  k must be a power of two.
    """
    if k < 1 or k & (k - 1):
        raise ValueError(f"k = {k} is not a power of two, the order of Z2^m")
    if len(p) != k ** n:
        raise ValueError(f"tensor length {len(p)} != {k}^{n}")
    # object entries: ints grow instead of wrapping, Rat and Poly stay exact
    q = np.array(p, dtype=object)
    for bit in range(n * (k.bit_length() - 1)):
        q = q.reshape(2 ** bit, 2, -1)
        q = np.stack([q[:, 0] + q[:, 1], q[:, 0] - q[:, 1]], axis=1)
    return q.reshape(-1).tolist()


def inverse_transform(q, k, n):
    """Exact inverse: the character matrix is symmetric with H^2 = kI."""
    p = transform_tensor(q, k, n)
    scale = Rat(1, k ** n)
    return [scale * v for v in p]


def edge_leaf_positions(tree):
    """Per edge id, the positions in tree.leaves of the leaves below it."""
    pos = {v: i for i, v in enumerate(tree.leaves)}
    return [[pos[u] for u in range(c, tree.last(c) + 1) if u in pos]
            for _, c in tree.edges]


def zero_sum_labelings(tree, group):
    """Every leaf labeling whose labels sum to the identity, in lex order,
    and its edge labels: int arrays of shape (k^(n-1), n) and (k^(n-1), E).

    The group addition is XOR on element indices.  The last leaf's label is
    the XOR of the others, so the rows follow the lex order of the first
    n - 1 labels, which is the lex order of the whole labelings.
    """
    heads = np.array(list(itertools.product(
        range(group), repeat=tree.num_leaves - 1)), dtype=np.int64)
    leaf = np.column_stack([heads, np.bitwise_xor.reduce(heads, axis=1)])
    edge = np.zeros((len(leaf), tree.num_edges), dtype=np.int64)
    for e, below in enumerate(edge_leaf_positions(tree)):
        edge[:, e] = np.bitwise_xor.reduce(leaf[:, below], axis=1)
    return leaf, edge


def leaf_to_edge_labels(tree, leaf_labels, group):
    """The tuple of edge labels h_e = sum (XOR) of leaf labels below e, or
    None when the labels do not sum to the identity (the coordinate vanishes
    on the model)."""
    if functools.reduce(operator.xor, leaf_labels, 0):
        return None
    return tuple(
        functools.reduce(operator.xor, (leaf_labels[i] for i in below), 0)
        for below in edge_leaf_positions(tree))


# ---------------------------------------------------------------------------
# parameter transform and the monomial map


def transformed_symbol(model, eid, idx):
    return f"u{model.prefix}{edge_letter(eid)}{idx}"


def jc_reduced(model):
    """The Jukes-Cantor reduction, for jc-dna only: its three non-identity
    characters agree on every edge, so index 1 stands for all of them and
    coordinates are indexed by subforests.  Other models keep all k indices
    and coordinates indexed by edge labels."""
    return model.kind == "jc-dna"


def transformed_indices(model, group):
    return range(2 if jc_reduced(model) else group)


def transform_params(model):
    """Linear forms u_e(g) = sum_h chi_g(h) * (template row-0 cell for h).

    Returns {transformed symbol: Poly in the original edge symbols}, for g
    over transformed_indices.
    """
    group = group_for_model(model)
    out = {}
    for eid, tpl in enumerate(model.templates):
        forms = transform_tensor([Poly.var(s) for s in tpl[0]], group, 1)
        for g in transformed_indices(model, group):
            out[transformed_symbol(model, eid, g)] = forms[g]
    return out


@dataclass
class MonomialMap:
    """The toric parameterization of a group-based model in transformed
    coordinates: one monomial in the transformed parameters per coordinate."""

    model: object
    coord_keys: list         # edge-label tuples (indicators if jc_reduced)
    coord_names: list        # sorted, as the keys are
    monomials: list          # Poly, one per coordinate
    symbols: list            # transformed symbol names (matrix rows)
    exponent_matrix: list    # rows follow symbols, columns follow coords

    def coords(self):
        return dict(zip(self.coord_names, self.monomials))


def coord_name(key):
    """q followed by the digits of an edge-label tuple."""
    return "q" + "".join(map(str, key))


def monomial_map(model):
    """Monomial parameterization q_index = prod_e u_e(h_e).

    Requires a group-based model with uniform root and hidden internal
    nodes.  Under the Jukes-Cantor reduction (jc_reduced) the coordinates
    are the subforests; otherwise they are the distinct edge labelings of
    the zero-sum leaf labelings.
    Each monomial is written directly from its edge labels.
    """
    group = group_for_model(model)
    if isinstance(model.root[0], str):
        raise ValueError("monomial map requires a uniform root")
    if model.no_hidden:
        raise ValueError("monomial map requires hidden internal nodes")
    tree = model.tree
    if jc_reduced(model):
        keys = treecore.enumerate_subforests(tree)
    else:
        keys = sorted(set(map(tuple, zero_sum_labelings(
            tree, group)[1].tolist())))

    indices = transformed_indices(model, group)
    symbols = [transformed_symbol(model, e, i)
               for e in range(tree.num_edges) for i in indices]
    rows = np.array(keys) + len(indices) * np.arange(tree.num_edges)
    matrix = np.zeros((len(symbols), len(keys)), dtype=np.int64)
    matrix[rows, np.arange(len(keys))[:, None]] = 1
    monos = [Poly({tuple(sorted(symbols[r] for r in col)): 1})
             for col in rows.tolist()]
    return MonomialMap(model=model, coord_keys=keys,
                       coord_names=[coord_name(k) for k in keys],
                       monomials=monos, symbols=symbols,
                       exponent_matrix=matrix.tolist())


def binomials_up_to_degree(mono_map, d):
    """All binomials q^alpha - q^beta of degree <= d with disjoint supports
    and equal exponent-matrix image, up to sign; 1 <= d <= 3.

    Exhaustive multiset enumeration, hashing the image A.alpha packed into
    one int (field base d*max(A)+1, row 0 most significant): a multiset's
    packed image is the sum of its columns', and int order is image order.
    No form comes out twice: within one degree each unordered pair gives
    +-(q^a - q^b), different pairs give different term sets, and different
    degrees never collide.
    """
    if d < 1:
        raise ValueError(f"binomial degree must be at least 1, got {d}")
    if d > 3:
        raise ValueError("binomial search supports degree <= 3")
    A = mono_map.exponent_matrix
    names = mono_map.coord_names
    base = d * max(map(max, A), default=0) + 1
    packed = [0] * len(names)
    for row in A:
        packed = [p * base + x for p, x in zip(packed, row)]
    out = []
    for deg in range(1, d + 1):
        buckets = {}
        for combo, cols in zip(
                itertools.combinations_with_replacement(range(len(names)),
                                                        deg),
                itertools.combinations_with_replacement(packed, deg)):
            buckets.setdefault(sum(cols), []).append(combo)
        for image in sorted(i for i, c in buckets.items() if len(c) > 1):
            # names are sorted, so a combo's (sorted indices) names are its
            # monomial
            terms = [(set(c), tuple(names[i] for i in c))
                     for c in buckets[image]]
            for (a, ma), (b, mb) in itertools.combinations(terms, 2):
                if a.isdisjoint(b):
                    out.append(monomial_binomial(ma, mb))
    return out


# ---------------------------------------------------------------------------
# accumulated-coordinate convention


def subforest_leaf_labeling(tree, subforest, group):
    """First zero-sum leaf labeling (lex order) whose edge labels have the
    subforest (an indicator tuple) as support."""
    leaf, edge = zero_sum_labelings(tree, group)
    want = np.array(subforest, dtype=bool)
    match = ((edge != 0) == want).all(axis=1)
    if not match.any():
        raise ValueError("no consistent labeling for "
                         + "".join(map(str, subforest)))
    return tuple(leaf[match.argmax()].tolist())


def accumulated_combination(tree, subforest, classes, group):
    """Coefficients expressing a transformed coordinate as a linear form in
    the accumulated (class-sum) coordinates.

    classes is a partition of flat pattern indices; coefficient for class C is
    (sum over C of the character product) / |C|.
    """
    leaf_labels = subforest_leaf_labeling(tree, subforest, group)
    # the character product of every pattern, leaf-major as the flat index
    chi = functools.reduce(np.multiply.outer, (
        [char(g, s) for s in range(group)] for g in leaf_labels),
        np.array(1)).reshape(-1)
    return [Rat(int(chi[cls].sum()), len(cls)) for cls in classes]


# ---------------------------------------------------------------------------
# coordinate matrices attached to edges (flattenings in transformed
# coordinates); their 2x2 minors are the quadratic invariants


def fourier_flattening(tree, edge, h):
    """Matrix of subforest coordinates for one split edge and one indicator
    value h.

    Rows are the distinct restrictions of the subforests with bit h at the
    edge to the edges below it, in lex order, and columns their restrictions
    to the edges above.  Whether a vertex has degree 1 depends on one side
    and the edge only, so every row and column make a subforest and the
    matrix is the full product.  Every entry is rank-one on the monomial
    model, so the 2x2 minors are invariants.  Returns (row_configs,
    col_configs, matrix of indicator tuples), a config mapping edge id to
    bit.
    """
    return _fourier_flattening(tree, edge, h,
                               treecore.enumerate_subforests(tree))


def _fourier_flattening(tree, edge, h, indicators):
    """fourier_flattening from the indicators of every subforest."""
    # the edges below are those into the child's range c+1..last(c)
    last = tree.last(edge + 1)
    below = list(range(edge + 1, last))
    above = [*range(edge), *range(last, tree.num_edges)]
    cells = {(tuple(ind[e] for e in below), tuple(ind[e] for e in above)):
             ind for ind in indicators if ind[edge] == h}
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    matrix = [[cells[r, c] for c in cols] for r in rows]
    return ([dict(zip(below, r)) for r in rows],
            [dict(zip(above, c)) for c in cols], matrix)


def all_fourier_flattenings(tree):
    """(edge, h, matrix) for every split edge and h in {0,1}, skipping
    matrices without a 2x2 minor and duplicate leaf partitions (edges in
    series induce the same split)."""
    indicators = treecore.enumerate_subforests(tree)
    seen_splits = set()
    out = []
    for edge in range(tree.num_edges):
        key = frozenset(treecore.edge_split(tree, edge))
        if key in seen_splits:
            continue
        seen_splits.add(key)
        for h in (0, 1):
            rows, cols, matrix = _fourier_flattening(tree, edge, h,
                                                     indicators)
            if len(rows) >= 2 and len(cols) >= 2:
                out.append((edge, h, matrix))
    return out


def _name_product(a, b):
    """The monomial a*b of two distinct coordinate names."""
    return (a, b) if a < b else (b, a)


def flattening_minors(tree):
    """Quadratic binomials from the 2x2 minors of every coordinate matrix,
    deduplicated up to sign (the independent route to the degree-2 part of
    binomials_up_to_degree).

    The cells of a matrix are distinct coordinates, so a minor's two
    monomials are products of two distinct names and never cancel.
    """
    out = []
    seen = set()
    for _, _, matrix in all_fourier_flattenings(tree):
        names = [[coord_name(ind) for ind in line] for line in matrix]
        for top, bottom in itertools.combinations(names, 2):
            for c1, c2 in itertools.combinations(range(len(top)), 2):
                ma = _name_product(top[c1], bottom[c2])
                mb = _name_product(top[c2], bottom[c1])
                key = (ma, mb) if ma < mb else (mb, ma)
                if key not in seen:
                    seen.add(key)
                    out.append(monomial_binomial(ma, mb))
    return out


def mixture_monomial_coords(mono_maps):
    """Coordinate polynomials of a sum of monomial maps on one tree with fresh
    mixing weights s0, s1, ...: q_f = sum_i s_i * (component-i monomial)."""
    if not mono_maps:
        raise ValueError("a mixture needs at least one model")
    names = mono_maps[0].coord_names
    newick = mono_maps[0].model.tree.to_newick()
    if any(mm.coord_names != names or mm.model.tree.to_newick() != newick
           for mm in mono_maps[1:]):
        raise ValueError("mixture components index different coordinates")
    coords = {}
    for idx, name in enumerate(names):
        total = Poly()
        for i, mm in enumerate(mono_maps):
            total = total + Poly.var(f"s{i}") * mm.monomials[idx]
        coords[name] = total
    return coords


def exponent_matrix_csv(mono_map):
    lines = ["," + ",".join(mono_map.coord_names)]
    for sym, row in zip(mono_map.symbols, mono_map.exponent_matrix):
        lines.append(sym + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"

"""Group-based change of coordinates: character transforms of parameters and
probability tensors, subforest-indexed coordinates, the toric monomial map,
and degree-bounded binomial invariants.

Supported groups are Z2 (binary states) and Z2 x Z2 (DNA states with the
fixed bijection A=(0,0), C=(0,1), G=(1,0), T=(1,1)).  The monomial map and
the binomial search work on integer exponent data (edge labels, packed
exponent-matrix columns), not on polynomial products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exactalg import Poly, Rat, binomial
from . import treecore
from .models import edge_letter


@dataclass(frozen=True)
class GroupSpec:
    """A group Z2^m.  Its elements are bit tuples in binary order, so an
    element's index read in binary is its bit tuple, and the group
    operations act on the indices bitwise."""

    name: str
    elements: tuple          # bit tuples, identity first

    @property
    def k(self):
        return len(self.elements)

    def char(self, g, h):
        """Character value chi_g(h) = (-1)^(g.h) for element indices g, h."""
        return -1 if (g & h).bit_count() & 1 else 1

    def add(self, g, h):
        return g ^ h


Z2 = GroupSpec("Z2", ((0,), (1,)))
Z2xZ2 = GroupSpec("Z2xZ2", ((0, 0), (0, 1), (1, 0), (1, 1)))


def group_for_model(model):
    if model.kind == "jc-binary":
        return Z2
    if model.kind in ("jc-dna", "kimura2", "kimura3"):
        return Z2xZ2
    raise ValueError(f"model kind {model.kind!r} is not group-based")


@dataclass(frozen=True)
class FourierIndex:
    """Per-edge group labels (element indices), in edge-id order."""

    labels: tuple

    @property
    def indicator(self):
        return tuple(1 if l else 0 for l in self.labels)


# ---------------------------------------------------------------------------
# tensor transforms


def transform_tensor(p, group, n):
    """q[(g_1..g_n)] = sum_sigma p[sigma] * prod_i chi_{g_i}(sigma_i).

    p has length k^n with leaf-major flat indexing; exact when the input is
    exact.
    """
    k = group.k
    if len(p) != k ** n:
        raise ValueError(f"tensor length {len(p)} != {k}^{n}")
    out = list(p)
    # transform one axis at a time
    for axis in range(n):
        stride = k ** (n - 1 - axis)
        nxt = list(out)
        for base in range(0, k ** n, stride * k):
            for off in range(stride):
                vals = [out[base + s * stride + off] for s in range(k)]
                for g in range(k):
                    nxt[base + g * stride + off] = sum(
                        group.char(g, s) * vals[s] for s in range(k))
        out = nxt
    return out


def inverse_transform(q, group, n):
    """Exact inverse: the character matrix is symmetric with H^2 = kI."""
    k = group.k
    p = transform_tensor(q, group, n)
    scale = Rat(1, k ** n)
    return [scale * v for v in p]


def leaf_to_edge_labels(tree, leaf_labels, group):
    """Edge labels h_e = sum of leaf labels below e, or None when the labels
    do not sum to the identity (the coordinate vanishes on the model)."""
    total = 0
    for g in leaf_labels:
        total = group.add(total, g)
    if total != 0:
        return None
    by_leaf = dict(zip(tree.leaves, leaf_labels))
    labels = []
    for eid in range(tree.num_edges):
        below = tree.leaves_below(tree.child_of_edge(eid))
        h = 0
        for v in tree.leaves:
            if tree.labels[v] in below:
                h = group.add(h, by_leaf[v])
        labels.append(h)
    return FourierIndex(tuple(labels))


# ---------------------------------------------------------------------------
# parameter transform and the monomial map


def transformed_symbol(model, eid, idx):
    return f"u{model.prefix}{edge_letter(eid)}{idx}"


def transform_params(model):
    """Linear forms u_e(g) = sum_h chi_g(h) * (template row-0 cell for h).

    Returns {transformed symbol: Poly in the original edge symbols}.  For
    Jukes-Cantor models only indices 0 and 1 are used (the non-identity
    characters coincide).
    """
    group = group_for_model(model)
    out = {}
    reduced = model.kind in ("jc-binary", "jc-dna")
    for eid, tpl in enumerate(model.templates):
        indices = range(2) if reduced else range(group.k)
        for g in indices:
            # for the reduced convention index 1 stands for any non-identity g
            gg = g if not reduced or g == 0 else 1
            form = Poly()
            for h in range(group.k):
                form = form + Poly.var(tpl[0][h]) * group.char(gg, h)
            out[transformed_symbol(model, eid, g)] = form
    return out


@dataclass
class MonomialMap:
    """The toric parameterization of a group-based model in transformed
    coordinates: one monomial in the transformed parameters per coordinate."""

    model: object
    group: GroupSpec
    reduced: bool            # True: coordinates indexed by subforests
    coord_keys: list         # Subforest (reduced) or FourierIndex
    coord_names: list
    monomials: list          # Poly, one per coordinate
    symbols: list            # transformed symbol names (matrix rows)
    exponent_matrix: list    # rows follow symbols, columns follow coords

    def coords(self):
        return dict(zip(self.coord_names, self.monomials))


def coord_name(key):
    if isinstance(key, treecore.Subforest):
        return "q" + str(key)
    return "q" + "".join(map(str, key.labels))


def monomial_map(model):
    """Monomial parameterization q_index = prod_e u_e(h_e).

    Requires a group-based model with uniform root.  Jukes-Cantor models use
    the subforest-indicator convention with two transformed symbols per edge.
    Each monomial is written directly from its edge labels.
    """
    group = group_for_model(model)
    if model.root.mode != "uniform":
        raise ValueError("monomial map requires a uniform root")
    tree = model.tree
    reduced = model.kind in ("jc-binary", "jc-dna")
    if reduced:
        keys = treecore.enumerate_subforests(tree)
        label_vectors = [sf.indicator for sf in keys]
    else:
        # the zero-sum leaf labelings: the group addition is XOR on element
        # indices, so the last leaf's label is the XOR of the others, and an
        # edge's label the XOR of the labels of the leaves below it
        pos = {tree.labels[v]: i for i, v in enumerate(tree.leaves)}
        below = [[pos[l] for l in tree.leaves_below(tree.child_of_edge(e))]
                 for e in range(tree.num_edges)]
        heads = np.array(list(itertools.product(
            range(group.k), repeat=tree.num_leaves - 1)))
        leaf = np.column_stack([heads, np.bitwise_xor.reduce(heads, axis=1)])
        edge = np.column_stack([np.bitwise_xor.reduce(leaf[:, b], axis=1)
                                for b in below])
        label_vectors = sorted(set(map(tuple, edge.tolist())))
        keys = [FourierIndex(l) for l in label_vectors]

    n_idx = 2 if reduced else group.k
    symbols = [transformed_symbol(model, e, i)
               for e in range(tree.num_edges) for i in range(n_idx)]
    rows = np.array(label_vectors) + n_idx * np.arange(tree.num_edges)
    matrix = np.zeros((len(symbols), len(keys)), dtype=np.int64)
    matrix[rows, np.arange(len(keys))[:, None]] = 1
    one = Rat(1)
    monos = [Poly({tuple(sorted([(symbols[r], 1) for r in col])): one})
             for col in rows.tolist()]
    return MonomialMap(model=model, group=group, reduced=reduced,
                       coord_keys=keys,
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
            for a, b in itertools.combinations(buckets[image], 2):
                if set(a).isdisjoint(b):
                    out.append(binomial([names[c] for c in a],
                                        [names[c] for c in b]))
    return out


# ---------------------------------------------------------------------------
# accumulated-coordinate convention


def subforest_leaf_labeling(tree, subforest, group):
    """First zero-sum leaf labeling (lex order) whose edge indicator equals
    the subforest indicator."""
    for leaf_labels in itertools.product(range(group.k),
                                         repeat=tree.num_leaves):
        fi = leaf_to_edge_labels(tree, leaf_labels, group)
        if fi is not None and fi.indicator == subforest.indicator:
            return leaf_labels
    raise ValueError(f"no consistent labeling for {subforest}")


def accumulated_combination(tree, subforest, classes, group, n, k):
    """Coefficients expressing a transformed coordinate as a linear form in
    the accumulated (class-sum) coordinates.

    classes is a partition of flat pattern indices; coefficient for class C is
    (sum over C of the character product) / |C|.
    """
    from .paramap import pattern_of_flat
    leaf_labels = subforest_leaf_labeling(tree, subforest, group)
    coeffs = []
    for cls in classes:
        total = 0
        for flat in cls:
            states = pattern_of_flat(flat, n, k)
            prod = 1
            for g, s in zip(leaf_labels, states):
                prod *= group.char(g, s)
            total += prod
        coeffs.append(Rat(total, len(cls)))
    return coeffs


# ---------------------------------------------------------------------------
# coordinate matrices attached to edges (flattenings in transformed
# coordinates); their 2x2 minors are the quadratic invariants


def _side_configs(tree, side_edges, boundary_edge, h, exempt):
    """Labelings of one side of a split, given the split edge's indicator."""
    out = []
    extra = [boundary_edge] if h else []
    for bits in itertools.product((0, 1), repeat=len(side_edges)):
        chosen = [e for e, b in zip(side_edges, bits) if b] + extra
        deg = {}
        for e in chosen:
            p, c = tree.edges[e]
            deg[p] = deg.get(p, 0) + 1
            deg[c] = deg.get(c, 0) + 1
        ok = all(d != 1 or tree.is_leaf(v) or v == exempt
                 for v, d in deg.items())
        if ok:
            out.append(dict(zip(side_edges, bits)))
    return out


def fourier_flattening(tree, edge, h):
    """Matrix of subforest coordinates for one split edge and one indicator
    value h.

    Rows range over valid labelings of the child side, columns over the parent
    side; every entry is rank-one on the monomial model, so the 2x2 minors are
    invariants.  Returns (row_configs, col_configs, matrix of Subforests).
    """
    parent, child = tree.edges[edge]
    below = set()

    def collect(v):
        for c in tree.children[v]:
            below.add(tree.edge_id(v, c))
            collect(c)

    collect(child)
    below_edges = sorted(below)
    above_edges = [e for e in range(tree.num_edges)
                   if e != edge and e not in below]
    rows = _side_configs(tree, below_edges, edge, h, exempt=parent)
    cols = _side_configs(tree, above_edges, edge, h, exempt=child)
    E = tree.num_edges
    matrix = []
    for r in rows:
        line = []
        for c in cols:
            ind = [0] * E
            ind[edge] = h
            for e, b in r.items():
                ind[e] = b
            for e, b in c.items():
                ind[e] = b
            line.append(treecore.Subforest(tuple(ind)))
        matrix.append(line)
    return rows, cols, matrix


def all_fourier_flattenings(tree):
    """(edge, h, matrix) for every split edge and h in {0,1}, skipping
    matrices without a 2x2 minor and duplicate leaf partitions (edges in
    series induce the same split)."""
    seen_splits = set()
    out = []
    for edge in range(tree.num_edges):
        split = treecore.edge_split(tree, edge)
        key = frozenset((split.below, split.above))
        if key in seen_splits:
            continue
        seen_splits.add(key)
        for h in (0, 1):
            rows, cols, matrix = fourier_flattening(tree, edge, h)
            if len(rows) >= 2 and len(cols) >= 2:
                out.append((edge, h, matrix))
    return out


def flattening_minors(tree):
    """Quadratic binomials from the 2x2 minors of every coordinate matrix,
    deduplicated up to sign (the independent route to the degree-2 part of
    binomials_up_to_degree)."""
    out = []
    seen = set()
    for _, _, matrix in all_fourier_flattenings(tree):
        for r1, r2 in itertools.combinations(range(len(matrix)), 2):
            for c1, c2 in itertools.combinations(range(len(matrix[0])), 2):
                form = binomial(
                    [coord_name(matrix[r1][c1]), coord_name(matrix[r2][c2])],
                    [coord_name(matrix[r1][c2]), coord_name(matrix[r2][c1])])
                if form.is_zero():
                    continue
                key = frozenset(form.terms.items())
                if key not in seen:
                    seen.add(key)
                    out.append(form)
    return out


def mixture_monomial_coords(mono_maps):
    """Coordinate polynomials of a sum of monomial maps with fresh mixing
    weights s0, s1, ...: q_f = sum_i s_i * (component-i monomial)."""
    names = mono_maps[0].coord_names
    for mm in mono_maps[1:]:
        if [str(k) for k in mm.coord_keys] != \
           [str(k) for k in mono_maps[0].coord_keys]:
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

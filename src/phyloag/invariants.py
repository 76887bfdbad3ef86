"""Flattenings, rank tests, vanishing checks, Jacobian-based dimensions,
exact interpolation of vanishing forms, and mixture (secant) maps.

A mixture of models is one paramap.JointMap whose circuit outputs the
weighted sums of its components' coordinates; a single model is the
mixture with one component.

Interpolation finds the nullspace of a sample matrix: one row per random
rational point, one column per monomial, each monomial indexed by its
combination of coordinates (itertools.combinations_with_replacement order).
It never evaluates a coordinate over Q to build that matrix: per prime just
below 2^23, the points' parameters are reduced to residues once, the
coordinates and monomials are evaluated from them modulo the prime at all
points together, and the matrix is reduced by a recursive column-split PLE
on centered float64 residues (_nullspace_mod_p): leaves of _LEAF columns,
and otherwise triangular solves and BLAS matmuls whose sums of up to _CHUNK
products stay exact, reduced once each.  Bases from primes with the same
pivots are combined by CRT and rationally reconstructed.  Each form is then
verified at fresh random points by vanishing_check's evaluator, which reads
them the same way, modulo a prime that the basis was not found modulo.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import random
from math import comb, isqrt

import numpy as np

# mat_rank_nullspace is bound here for callers and tracers that look for it
# in this module (perfbench's self-test checks that every binding is traced)
from .exactalg import (Poly, Rat, mat_rank_nullspace,  # noqa: F401
                       normalize_poly, residue)
from . import models as _models
from . import paramap as _paramap

# Modular elimination holds centered residues in float64, |x| <= h with
# h = (p + 1)/2 + 2 < 2^22 + 3 for these primes below 2^23, so a product of
# two is below 2^44.1.  A GEMM adds _CHUNK of them to an entry below p
# before it is reduced: 256 * h^2 + p < 2^53 (511 would still fit), so every
# partial sum is an integer that float64 represents exactly, in any order.
# A leaf entry gathers at most _LEAF - 1 such products, and a leaf's inverse
# triangle multiplies at most _LEAF entries below p by ones below p (< 2^50).
_CHUNK = 256
_LEAF = 16
# points per block when building the sample matrix
_ROWS = 256
# vanishing_check tests a form at this many random points; interpolation
# verifies each form at _VERIFY_POINTS fresh ones, and draws new sample
# points at most _MAX_RETRIES times
_CHECK_POINTS = 25
_VERIFY_POINTS = 10
_MAX_RETRIES = 3
# numbers per block of _primes()'s sieve, about 4000 primes near 2^23
_SIEVE = 2 ** 16


def _primes():
    """Every prime below 2^23 in descending order, read lazily: sieved
    _SIEVE numbers at a time by the primes up to the square root of 2^23."""
    top = 2 ** 23
    small = np.ones(isqrt(top) + 1, dtype=bool)   # small[d]: d is prime
    small[:2] = False
    for d in range(2, isqrt(len(small)) + 1):
        small[d * d::d] = False
    divisors = np.flatnonzero(small).tolist()
    while top > 2:
        low = max(top - _SIEVE, 2)
        block = np.ones(top - low, dtype=bool)   # block[i]: low + i is prime
        for d in divisors:
            block[max(d * d, -(-low // d) * d) - low::d] = False
        yield from map(int, low + np.flatnonzero(block)[::-1])
        top = low


# the 32 largest primes below 2^23, in descending order; the modular paths
# read _primes(), which goes on below them
_PRIMES = tuple(itertools.islice(_primes(), 32))


def random_rat(rng):
    """Random exact rational with numerator and denominator uniform in
    [1, 97]."""
    return Rat(rng.randint(1, 97), rng.randint(1, 97))


def random_point(symbols, rng):
    return {s: random_rat(rng) for s in symbols}


# ---------------------------------------------------------------------------
# flattenings


def symbolic_tensor(n, k):
    """The coordinate symbols (paramap.coordinate_name) by flat index."""
    return [Poly.var(_paramap.coordinate_name(
        _paramap.pattern_of_flat(i, n, k), k)) for i in range(k ** n)]


def flatten(tensor, leaf_order, split, k):
    """Flattening matrix of a k^n tensor induced by a split of the leaf set.

    split is a (below, above) pair of leaf-label collections; rows are
    indexed lexicographically by the states of the below leaves, columns by
    the above leaves, both in leaf order.  The flat tensor is leaf-major
    (paramap.flat_index), so the matrix is its (k,)*n reshape with the below
    leaves' axes moved first.  A leaf named twice in the leaf order or in
    the split raises ValueError naming it.
    """
    for what, labels in (("leaf order", leaf_order),
                         ("split", [*split[0], *split[1]])):
        twice = [l for l, c in collections.Counter(labels).items() if c > 1]
        if twice:
            raise ValueError(f"the {what} names leaf {twice[0]!r} twice")
    below, above = map(set, split)
    if not below or not above:
        raise ValueError("trivial split")
    if below | above != set(leaf_order):
        raise ValueError("split is not a bipartition of the leaves")
    n = len(leaf_order)
    axes = [i for i, l in enumerate(leaf_order) if l in below] + \
        [i for i, l in enumerate(leaf_order) if l in above]
    t = np.array(tensor, dtype=object).reshape((k,) * n).transpose(axes)
    return t.reshape(k ** len(below), -1).tolist()


def dedup_matrix(mat):
    """Remove duplicate rows then duplicate columns, keeping first
    occurrences (used for symmetric specializations)."""
    seen = set()
    rows = []
    for row in mat:
        key = tuple(str(x) for x in row)
        if key not in seen:
            seen.add(key)
            rows.append(row)
    cols = []
    seen = set()
    for j in range(len(rows[0])):
        key = tuple(str(r[j]) for r in rows)
        if key not in seen:
            seen.add(key)
            cols.append(j)
    return [[r[j] for j in cols] for r in rows]


def hankel_matrix():
    """The 3x3 symmetric-tensor matrix [[p0,p1,p2],[p1,p2,p3],[p2,p3,p4]]."""
    v = [Poly.var(f"p{i}") for i in range(5)]
    return [[v[0], v[1], v[2]], [v[1], v[2], v[3]], [v[2], v[3], v[4]]]


# ---------------------------------------------------------------------------
# vanishing checks


def vanishing_check(form, coords):
    """(vanishes, witness): does a form in coordinate variables vanish on the
    image of the map, and if not, at which point?

    coords maps coordinate names to polynomials in the model parameters; only
    the coordinates the form uses are read.  The form is evaluated at
    _CHECK_POINTS random rational points from random.Random(0), with values
    drawn in sorted name order for the parameters of the used coordinates
    only, read modulo the first prime of _primes() that divides no
    denominator (ValueError if every one does).  A nonzero residue proves
    the form nonzero at that point, so the witness, the first such point, is
    exact.
    All residues zero is a Monte Carlo verdict: the form may vanish at every
    point drawn but not on the image, or the prime may divide the numerator
    of every value.
    """
    witness = _first_nonzero(form, coords, random.Random(0), _CHECK_POINTS,
                             _primes())
    return witness is None, witness


def _first_nonzero(form, coords, rng, points, primes):
    """vanishing_check's witness, or None, modulo the first usable prime of
    `primes`: the coordinates, then the form, at all points together."""
    used = sorted(form.variables())
    missing = set(used) - set(coords)
    if missing:
        raise KeyError(f"form uses unknown coordinates {sorted(missing)}")
    polys = [coords[name] for name in used]
    params = sorted(set().union(*[p.variables() for p in polys]))
    pts = [random_point(params, rng) for _ in range(points)]
    for prime in primes:
        try:
            C = _coordinate_residues(polys, params, pts, prime)
            values = form.eval_mod(dict(zip(used, C.T.astype(np.int64))),
                                   prime)
        except ValueError:
            continue
        nonzero = np.flatnonzero(np.broadcast_to(values, (points,)))
        return pts[nonzero[0]] if nonzero.size else None
    raise ValueError("every prime divides a denominator of the points, the "
                     "coordinates or the form")


# ---------------------------------------------------------------------------
# dimension via Jacobian rank modulo a prime


# tries stays an option: tests pin the first point with tries=1
def jacobian_dimension(joint_map, rng=None, tries=3):
    """(affine rank, projective dimension) of the map's image.

    Rank of the Jacobian modulo the prime _PRIMES[0] at `tries` random
    rational points, maximum taken; projective dimension is the affine rank
    minus one.  Per try, the point is drawn first, then one leaf vector per
    observed node and row with entries uniform in [0, 2^22), and the rank is
    that of R = (symbol count) random projections of the Jacobian's rows
    (paramap.projected_jacobian), so neither the circuit nor the k^n
    coordinates are built.

    Rigor: the exact rank at a point and the rank modulo p at a point are
    both Monte Carlo lower bounds on the generic rank.  The rank modulo p at
    a point is at most the exact rank there, since every minor that vanishes
    over Q vanishes modulo p.  Points and constants are read modulo p as
    rationals: p is about 8.4e6, above every denominator of the points (at
    most 97) and of the constants 1/k, so each denominator is invertible.
    A projected row is a combination of rows of J, so rank(RJ) <= rank(J)
    modulo p.  One-hot leaf vectors pick out rows of J, so when J has a
    nonzero rho x rho minor modulo p, the same minor of RJ is a nonzero
    polynomial of degree rho * |observed| in the leaf-vector entries, and
    Schwartz-Zippel bounds the extra chance of a miss per try by
    rho * |observed| / 2^22.  A rank equal to the number of symbols is
    therefore still a proof of full rank.
    """
    rng = rng or random.Random(0)
    prime = _PRIMES[0]
    symbols = joint_map.symbols()
    shape = (len(_paramap.observed_nodes(joint_map.models[0])),
             len(symbols), joint_map.k)
    best = 0
    for _ in range(tries):
        pt = random_point(symbols, rng)
        A = _paramap.projected_jacobian(joint_map, pt,
                                        _random_residues(rng, shape), prime)
        best = max(best, len(_rank_profile(A.astype(np.float64), prime)))
        if best == len(symbols):
            break
    return best, best - 1


def _random_residues(rng, shape):
    """An int64 array of the shape with entries uniform in [0, 2^22), from
    one getrandbits call: 2^22 is below every prime of _PRIMES."""
    count = int(np.prod(shape))
    words = np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count,
                                                               "little"),
                          dtype="<u4")
    return (words & (2 ** 22 - 1)).astype(np.int64).reshape(shape)


# ---------------------------------------------------------------------------
# mixtures


def mixture_map(models):
    """JointMap of the coordinate-wise sum of ModelSpecs, held as one
    circuit (paramap.build_circuit).

    Components keep their own root rows; when there are several and every
    one has a uniform root, global mixing weights s0..s_{m-1} restore the
    mixing freedom.  paramap.JointMap checks the components: an empty list,
    components that differ in k, leaf labels or observed nodes, or a
    repeated symbol or weight raise ValueError (edge 18's letter is s, so
    build components with distinct prefixes).
    """
    if len(models) > 1 and not any(isinstance(m.root[0], str) for m in models):
        weights = tuple(f"s{i}" for i in range(len(models)))
    else:
        weights = ()
    return _paramap.expand_map(*models, weight_symbols=weights)


def make_mixture(tree, kind, m, root_mode="uniform", k=None):
    """Convenience constructor: m copies of a model with disjoint symbols,
    prefixed x0, x1, ...; a single copy keeps the model's own symbols."""
    return mixture_map([_models.make_model(
        tree, kind, root_mode=root_mode, k=k,
        prefix=f"x{i}" if m > 1 else "") for i in range(m)])


def quartet_splits(leaf_order):
    """The three splits of four leaves a, b, c, d, named "(ab)(cd)",
    "(ac)(bd)" and "(ad)(bc)", each as a (below, above) pair."""
    a, b, c, d = leaf_order
    return {f"({a}{b})({c}{d})": ((a, b), (c, d)),
            f"({a}{c})({b}{d})": ((a, c), (b, d)),
            f"({a}{d})({b}{c})": ((a, d), (b, c))}


# ---------------------------------------------------------------------------
# exact interpolation of vanishing forms


def _rat_reconstruct(a, m):
    """Rational p/q with p*q bounded by ~m/2 and p = a*q mod m, or None."""
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    return Rat(r1, s1)


def _coordinate_residues(polys, params, pts, prime):
    """Coordinates modulo prime at every point, as a float64 matrix with one
    row per point and one column per coordinate.  The points' parameters are
    reduced to residues once; each polynomial is then evaluated at all points
    together in int64 (Poly.eval_mod).  Raises ValueError when the prime
    divides a denominator."""
    P = np.array([[residue(pt[s], prime) for s in params] for pt in pts],
                 dtype=np.int64).reshape(len(pts), len(params))
    columns = dict(zip(params, P.T))
    C = np.empty((len(pts), len(polys)))
    for j, poly in enumerate(polys):
        C[:, j] = poly.eval_mod(columns, prime)
    return C


def _rows_mod(C, degree, prime):
    """Sample matrix mod prime in float64 from the coordinate residues C: one
    row per sample point, one column per degree-`degree` monomial, entries
    in [0, prime).

    Columns follow combinations_with_replacement(range(ncoords), degree):
    the degree-d monomials whose first coordinate is i are coordinate i
    times the degree-(d-1) monomials in coordinates i.., which are the last
    comb(ncoords - i + d - 2, d - 1) monomials of degree d - 1.  So each
    degree is built from the one below by one broadcast product per
    coordinate, _ROWS points at a time.
    """
    npoints, ncoords = C.shape
    if degree == 0:
        return np.ones((npoints, 1))
    width = comb(ncoords + degree - 1, degree)
    A = np.empty((npoints, width))
    scratch = np.empty(min(npoints, _ROWS) * width)
    for r0 in range(0, npoints, _ROWS):
        rows = C[r0:r0 + _ROWS]
        level = np.ones((len(rows), 1))
        for d in range(1, degree + 1):
            out = A[r0:r0 + _ROWS] if d == degree else \
                np.empty((len(rows), comb(ncoords + d - 1, d)))
            col = 0
            for i in range(ncoords):
                tail = level[:, -comb(ncoords - i + d - 2, d - 1):]
                np.multiply(tail, rows[:, i:i + 1],
                            out=out[:, col:col + tail.shape[1]])
                col += tail.shape[1]
            work = scratch[:out.size].reshape(out.shape)
            _reduce(out, prime, work)
            level = out
        # the centered residues lifted to [0, prime), without branches
        out += np.multiply(out < 0, float(prime), out=work)
    return A


def _reduce(x, prime, scratch):
    """x to its centered residue mod prime in place, for an integer-valued
    float64 array with |x| <= 2^53 - prime; scratch is a float64 array of
    x's shape.

    x - prime * rint(x * (1/prime)): the computed quotient is off x/prime by
    under 2/prime, so the result lies within prime/2 + 2 of zero, and
    |rint(...) * prime| <= 2^53 keeps every step exact.  Four in-place
    passes, with no division and no correction.
    """
    np.multiply(x, 1.0 / prime, out=scratch)
    np.rint(scratch, out=scratch)
    scratch *= prime
    x -= scratch


def _nullspace_mod_p(A, prime):
    """Nullspace mod prime of a float64 matrix with integer entries in
    [0, prime).

    Recursive column-split PLE (Dumas, Giorgi and Pernet, ACM TOMS 35(3),
    2008; Dumas, Pernet and Sultan, ISSAC 2013).  The left half of the
    columns is eliminated first; its unit lower triangle then reaches the
    right half as one triangular solve on the left half's pivot rows and
    one GEMM for the rows below them, and the recursion goes on with the
    right half below those rows.  A block no wider than _LEAF columns is a
    leaf, eliminated one column at a time on a contiguous transposed copy.
    Pivots are the first nonzero entry at or below the current row, so the
    pivot columns are the column rank profile (leftmost pivots).  A pivot
    swap moves whole rows of A, and the multipliers stay in A's eliminated
    entries, as in LAPACK's getrf: the multipliers of a block's k-th pivot
    sit in the block's k-th column below the pivot row, moved left over the
    zero entries of the block's free columns when it has any.  So no
    permutation and no separate L is ever built, and every product and
    reduction runs in one scratch buffer of about half A's size.

    Entries are centered residues, |x| <= (prime + 1)/2 + 2 (_reduce), so a
    product of two is below 2^45 and a float64 sum of _CHUNK of them stays
    exact; each GEMM is reduced once per _CHUNK products.  A is overwritten
    with a row echelon form U above the multipliers.  Returns (basis,
    pivots, free): per free column, the vector with 1 there, 0 at the other
    free columns and the back-substituted values at the pivot columns.
    """
    n = A.shape[1]
    pivots = _rank_profile(A, prime)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    # int64 back-substitution: each dot product stays below n * p^2 < 2^63;
    # U's pivots are not 1, so each value is divided by its pivot
    X = np.zeros((n, len(free)), dtype=np.int64)
    X[free, range(len(free))] = 1
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        inverse = pow(int(A[i, c]), -1, prime)
        X[c] = (-(A[i, c + 1:].astype(np.int64) @ X[c + 1:]) % prime *
                inverse % prime)
    return X.T.tolist(), pivots, free


def _rank_profile(A, prime):
    """The pivot columns (column rank profile) of a float64 matrix with
    integer entries in [0, prime), by _ple; A is overwritten as in
    _nullspace_mod_p."""
    m, n = A.shape
    pivots = []
    scratch = np.empty(m * max((n + 1) // 2, 2 * _LEAF))
    _ple(A, 0, 0, n, prime, pivots, [], scratch)
    return pivots


def _ple(A, r0, c0, c1, prime, pivots, leaves, scratch):
    """Eliminate columns c0:c1 of A below row r0, whose rows above r0 are
    pivot rows already; returns the number of pivots found.

    On return the block's k-th pivot row is r0 + k, its pivot column is
    appended to pivots, and its multipliers are in column c0 + k below that
    row.  leaves receives (first pivot row, inverse of the unit lower
    triangle) per leaf with a pivot, for the triangular solves above.
    """
    if r0 == A.shape[0]:
        return 0
    if c1 - c0 <= _LEAF:
        return _leaf(A, r0, c0, c1, prime, pivots, leaves, scratch)
    # a multiple of _LEAF, so that every leaf but the last is _LEAF wide
    cmid = c0 + -(-(c1 - c0) // (2 * _LEAF)) * _LEAF
    first = len(leaves)
    r1 = _ple(A, r0, c0, cmid, prime, pivots, leaves, scratch)
    if r1:
        U = A[r0:r0 + r1, cmid:c1]
        _trsm(A, U, leaves[first:], c0 - r0, prime, scratch)
        _gemm_sub(A[r0 + r1:, cmid:c1], A[r0 + r1:, c0:c0 + r1], U, prime,
                  scratch)
    r2 = _ple(A, r0 + r1, cmid, c1, prime, pivots, leaves, scratch)
    if r1 < cmid - c0:
        # the right half's multipliers move left beside the left half's:
        # below their pivot rows the target columns hold only the zeros of
        # free columns, or multipliers already moved
        for k in range(r2):
            A[r0 + r1 + k + 1:, c0 + r1 + k] = A[r0 + r1 + k + 1:, cmid + k]
    return r1 + r2


def _leaf(A, r0, c0, c1, prime, pivots, leaves, scratch):
    """_ple for a block of at most _LEAF columns, one column at a time on a
    transposed copy T (a row of T is a column of the block).

    Updates are delayed: an entry gathers at most _LEAF - 1 products of two
    centered residues before its column is searched and reduced.
    """
    h, w = A.shape[0] - r0, c1 - c0
    T = scratch[:w * h].reshape(w, h)
    T[...] = A[r0:, c0:c1].T
    work = scratch[w * h:2 * w * h]
    s = 0
    for j in range(w):
        if s == h:
            break
        column = T[j, s:]
        _reduce(column, prime, work[:column.size])
        nz = column.nonzero()[0]
        if nz.size == 0:
            continue
        i = s + int(nz[0])
        if i != s:
            A[[r0 + s, r0 + i]] = A[[r0 + i, r0 + s]]
            T[:, [s, i]] = T[:, [i, s]]
        multipliers = T[j, s + 1:]
        multipliers *= pow(int(T[j, s]), -1, prime)
        _reduce(multipliers, prime, work[:multipliers.size])
        row = T[j + 1:, s]
        _reduce(row, prime, work[:row.size])
        rest = T[j + 1:, s + 1:]
        rest -= np.multiply.outer(row, multipliers,
                                  out=work[:rest.size].reshape(rest.shape))
        if j != s:
            # below row s, column s holds zeros of a free column or
            # multipliers moved already
            T[s, s + 1:] = multipliers
        pivots.append(c0 + j)
        s += 1
    A[r0:, c0:c1] = T.T
    if s:
        # the inverse of the unit lower triangle, whose row i is T[:i, i]
        inverse = np.eye(s)
        for i in range(1, s):
            inverse[i, :i] = np.remainder(-(T[:i, i] @ inverse[:i, :i]),
                                          prime)
        leaves.append((r0, inverse))
    return s


def _trsm(A, B, leaves, shift, prime, scratch):
    """B <- L^-1 B for the pivot rows of `leaves`, B being those rows of a
    block to their right; the multipliers of the pivot in row g are in
    column g + shift.  Split at the middle leaf; a leaf applies its inverse
    (at most _LEAF products below prime^2 per entry)."""
    if len(leaves) == 1:
        product = scratch[:B.size].reshape(B.shape)
        np.matmul(leaves[0][1], B, out=product)
        B[...] = product
        _reduce(B, prime, product)
        return
    half = len(leaves) // 2
    g0, g1 = leaves[0][0], leaves[half][0]
    top, bottom = B[:g1 - g0], B[g1 - g0:]
    _trsm(A, top, leaves[:half], shift, prime, scratch)
    _gemm_sub(bottom, A[g1:g1 + len(bottom), g0 + shift:g1 + shift], top,
              prime, scratch)
    _trsm(A, bottom, leaves[half:], shift, prime, scratch)


def _gemm_sub(C, L, U, prime, scratch):
    """C <- C - L @ U mod prime, for centered L and U; C is reduced after
    each _CHUNK products."""
    product = scratch[:C.size].reshape(C.shape)
    for k in range(0, L.shape[1], _CHUNK):
        np.matmul(L[:, k:k + _CHUNK], U[k:k + _CHUNK], out=product)
        C -= product
        _reduce(C, prime, product)


# extra_points stays an option: perfbench's span counters read it by name
def interpolate_vanishing_forms(coords, degree, rng=None, extra_points=10):
    """Exact basis of degree-d forms in the given coordinates vanishing on
    the model image.

    coords: list of (name, Poly-in-parameters) pairs.  Samples the map at
    #monomials + extra_points random exact rational points, computes an exact
    nullspace basis by multi-modular elimination and rational reconstruction,
    normalizes each form, and re-verifies it at fresh random points before
    returning.  Raises ValueError on a negative degree or a repeated
    coordinate name and RuntimeError when the sample rank or the primes run
    out.
    """
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    rng = rng or random.Random(0)
    names = [nm for nm, _ in coords]
    repeated = [nm for nm, n in collections.Counter(names).items() if n > 1]
    if repeated:
        raise ValueError(f"coordinate names repeat: {', '.join(repeated)}")
    polys = [p for _, p in coords]
    params = sorted(set().union(*[p.variables() for p in polys]))
    monomials = [tuple(sorted(names[i] for i in combo))
                 for combo in itertools.combinations_with_replacement(
                     range(len(coords)), degree)]
    if not monomials:
        return []   # no coordinates, so no monomial of positive degree
    npoints = len(monomials) + extra_points

    for _ in range(_MAX_RETRIES):
        pts = [random_point(params, rng) for _ in range(npoints)]
        failed = None
        for basis, modulus in _modular_nullspace(polys, params, pts, degree):
            # a failed basis that one more prime leaves unchanged is the
            # sample's nullspace over Q: the sample is short, not the modulus
            if basis == failed:
                break
            forms = [normalize_poly(Poly({m: c for m, c in zip(monomials, vec)
                                          if c}))
                     for vec in basis]
            # a form of the basis vanishes modulo each prime of the modulus
            # at every point, so it is verified modulo the other primes; a
            # candidate that no prime is left to verify fails
            with contextlib.suppress(ValueError):
                if all(_first_nonzero(f, dict(coords), rng, _VERIFY_POINTS,
                                      (p for p in _primes() if modulus % p))
                       is None for f in forms):
                    return forms
            failed = basis
        else:
            # new points cannot shorten the coefficients
            raise RuntimeError("interpolation failed: the coefficients need "
                               f"more than the {sum(1 for _ in _primes())} "
                               "primes")
    raise RuntimeError("interpolation failed: insufficient sample rank "
                       f"after {_MAX_RETRIES} retries")


def _modular_nullspace(polys, params, pts, degree):
    """Candidate nullspace bases over Q, each with its modulus: one per
    prime of _primes() whose accumulated residues pass rational
    reconstruction.

    The sample matrix at the points `pts` is built mod each prime from the
    residues of the parameters; a prime that divides a denominator of the
    polynomials' coefficients is skipped.  Primes with the same pivot
    columns are combined by CRT, with one inverse of the modulus per prime.
    Reduction mod a prime can only lower the rank of each leading block of
    columns, so a prime that finds more pivots, or as many further left,
    shows that the primes so far were unlucky and replaces their residues;
    one with fewer or later pivots is skipped.
    """
    residues = modulus = best = None
    for prime in _primes():
        try:
            C = _coordinate_residues(polys, params, pts, prime)
        except ValueError:
            continue
        basis, pivots, _ = _nullspace_mod_p(_rows_mod(C, degree, prime),
                                            prime)
        if best is None or len(pivots) > len(best) or \
                (len(pivots) == len(best) and pivots < best):
            residues, modulus, best = basis, prime, pivots
        elif pivots != best:
            continue
        else:
            # x = a mod modulus and x = b mod prime
            inverse = pow(modulus, -1, prime)
            residues = [[a + modulus * ((b - a) * inverse % prime)
                         for a, b in zip(v, bv)]
                        for v, bv in zip(residues, basis)]
            modulus *= prime
        recon = [[_rat_reconstruct(a, modulus) for a in v] for v in residues]
        if all(x is not None for v in recon for x in v):
            yield recon, modulus

"""Flattenings, rank tests, vanishing checks, Jacobian-based dimensions,
exact interpolation of vanishing forms, and mixture (secant) maps.

A mixture of models is one paramap.JointMap whose circuit outputs the
weighted sums of its components' coordinates; a single model is the
mixture with one component.

Interpolation finds the nullspace of a sample matrix (one row per random
rational point, one column per monomial).  It never evaluates a coordinate
over Q to build that matrix: per prime just below 2^23, the points'
parameters are reduced to residues once, the coordinates and monomials are
evaluated from them modulo the prime at all points together, and the matrix
is reduced by blocked LU on float64 residues, whose trailing updates are
BLAS matmuls that stay exact.  Bases from primes with the same pivots are
combined by CRT and rationally reconstructed, and each form is verified
exactly at fresh random points.
"""

from __future__ import annotations

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
from . import treecore

# Modular elimination holds residues in float64.  The primes lie below 2^23
# and _BLOCK * (p - 1)^2 + p < 2^53, so every partial sum of a block update
# L21 @ U12, and every entry of a lazily reduced panel, is an integer that
# float64 represents exactly, in any order.
_PRIMES = (8388593, 8388587, 8388581, 8388571, 8388547,
           8388539, 8388473, 8388461, 8388451, 8388449)
_BLOCK = 64
# points per block when building the sample matrix
_ROWS = 256
# interpolation verifies each form at this many fresh random points, and
# draws new sample points at most this many times
_VERIFY_POINTS = 10
_MAX_RETRIES = 3


def random_rat(rng):
    """Random exact rational with numerator and denominator uniform in
    [1, 97]."""
    return Rat(rng.randint(1, 97), rng.randint(1, 97))


def random_point(symbols, rng):
    return {s: random_rat(rng) for s in symbols}


# ---------------------------------------------------------------------------
# flattenings


def symbolic_tensor(n, k, prefix="p", dna=False):
    """Coordinate symbols p_sigma as a flat list of Polys, leaf-major order."""
    out = []
    for states in itertools.product(range(k), repeat=n):
        if dna:
            name = prefix + "".join(_models.DNA[s] for s in states)
        else:
            name = prefix + "".join(str(s) for s in states)
        out.append(Poly.var(name))
    return out


def flatten(tensor, leaf_order, split, k=None):
    """Flattening matrix of a k^n tensor induced by a split of the leaf set.

    split is a (below, above) pair of leaf-label collections (or a
    treecore.Split); rows are indexed lexicographically by the states of the
    below leaves, columns by the above leaves, both in leaf order.
    """
    if isinstance(split, treecore.Split):
        below, above = split.below, split.above
    else:
        below, above = split
    below = [l for l in leaf_order if l in set(below)]
    above = [l for l in leaf_order if l in set(above)]
    if not below or not above:
        raise ValueError("trivial split")
    if set(below) | set(above) != set(leaf_order) or set(below) & set(above):
        raise ValueError("split is not a bipartition of the leaves")
    n = len(leaf_order)
    if k is None:
        k = round(len(tensor) ** (1.0 / n))
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


def hankel_matrix(prefix="p"):
    """The 3x3 symmetric-tensor matrix [[p0,p1,p2],[p1,p2,p3],[p2,p3,p4]]."""
    v = [Poly.var(f"{prefix}{i}") for i in range(5)]
    return [[v[0], v[1], v[2]], [v[1], v[2], v[3]], [v[2], v[3], v[4]]]


# ---------------------------------------------------------------------------
# vanishing checks


def vanishing_check(form, coords, mode="randomized", rng=None, points=25,
                    return_witness=False):
    """Does a form in coordinate variables vanish on the image of the map?

    coords maps coordinate names to polynomials in the model parameters.
    Symbolic mode substitutes and expands (certain); randomized mode evaluates
    at `points` independent random exact rational parameter points and rejects
    with a witness on any nonzero value.
    """
    missing = form.variables() - set(coords)
    if missing:
        raise KeyError(f"form uses unknown coordinates {sorted(missing)}")
    if mode == "symbolic":
        ok = form.substitute(coords).is_zero()
        return (ok, None) if return_witness else ok
    rng = rng or random.Random(0)
    params = sorted(set().union(*[p.variables() for p in coords.values()]) or set())
    for _ in range(points):
        pt = random_point(params, rng)
        values = {name: p.eval(pt) for name, p in coords.items()}
        v = form.eval(values)
        if v != 0:
            return (False, pt) if return_witness else False
    return (True, None) if return_witness else True


# ---------------------------------------------------------------------------
# dimension via Jacobian rank modulo a prime


# tries stays an option: tests pin the first point with tries=1
def jacobian_dimension(joint_map, rng=None, tries=3):
    """(affine rank, projective dimension) of the map's image.

    Rank of the Jacobian modulo the prime _PRIMES[0] at `tries` random
    rational points, maximum taken; projective dimension is the affine rank
    minus one.  The rank is taken over the rows of the circuit's distinct
    output nodes: coordinates with the same node are the same polynomial,
    and duplicate rows change neither rank nor nullspace.

    Rigor: the exact rank at a point and the rank modulo p at a point are
    both Monte Carlo lower bounds on the generic rank.  The rank modulo p at
    a point is at most the exact rank there, since every minor that vanishes
    over Q vanishes modulo p.  Points and constants are read modulo p as
    rationals: p is about 8.4e6, above every denominator of the points (at
    most 97) and of the constants 1/k, so each denominator is invertible.  A
    rank equal to the number of symbols is therefore still a proof of full
    rank.
    """
    rng = rng or random.Random(0)
    prime = _PRIMES[0]
    symbols = joint_map.symbols()
    best = 0
    for _ in range(tries):
        pt = random_point(symbols, rng)
        A = np.array(joint_map.circuit.jacobian(pt, symbols, prime),
                     dtype=np.float64)
        best = max(best, len(_nullspace_mod_p(A, prime)[1]))
        if best == len(symbols):
            break
    return best, best - 1


# ---------------------------------------------------------------------------
# mixtures


def mixture_map(models):
    """JointMap of the coordinate-wise sum of ModelSpecs sharing leaf set and
    k, held as one circuit (paramap.build_circuit).

    Models should be built with distinct symbol prefixes.  Components keep
    their own root vectors; when there are several and every one has a
    uniform root, global mixing weights s0..s_{m-1} restore the mixing
    freedom.
    """
    first = models[0]
    for m in models[1:]:
        if m.k != first.k or m.tree.leaf_labels != first.tree.leaf_labels:
            raise ValueError("mixture components must share leaf set and k")
    pools = [set(m.symbols) for m in models]
    for a, b in itertools.combinations(pools, 2):
        if a & b:
            raise ValueError("mixture components share parameter symbols; "
                             "build them with distinct prefixes")
    if len(models) > 1 and all(m.root.mode == "uniform" for m in models):
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


def _monomial_exponents(nvars, degree):
    """Exponent tuples of total degree == degree, deterministic order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _crt_pair(a1, m1, a2, m2):
    # combine x = a1 mod m1, x = a2 mod m2
    inv = pow(m1 % m2, m2 - 2, m2)
    t = ((a2 - a1) * inv) % m2
    return a1 + m1 * t, m1 * m2


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


def _rows_mod(C, exps, prime):
    """Sample matrix mod prime in float64 from the coordinate residues C: one
    row per sample point, one column per monomial of exps, entries in
    [0, prime).

    exps must be _monomial_exponents(ncoords, degree), whose order is that of
    combinations_with_replacement: the degree-d monomials whose first
    coordinate is i are coordinate i times the degree-(d-1) monomials in
    coordinates i.., which are the last comb(ncoords - i + d - 2, d - 1)
    monomials of degree d - 1.  So each degree is built from the one below
    by one broadcast product per coordinate, _ROWS points at a time.
    """
    npoints, ncoords = C.shape
    degree = sum(exps[0])
    if degree == 0:
        return np.ones((npoints, 1))
    A = np.empty((npoints, len(exps)))
    scratch = np.empty(min(npoints, _ROWS) * len(exps))
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
            _reduce(out, prime, scratch[:out.size].reshape(out.shape))
            level = out
    return A


def _reduce(x, prime, scratch):
    """x mod prime in place, for an integer-valued float64 array with
    |x| <= 2^53 - prime; scratch is a contiguous float64 array of x's shape.

    The quotient q = floor(x * (1/prime)) is within one of floor(x / prime),
    so |q * prime| <= 2^53 and x - q * prime is exact; one correction each
    way then lands in [0, prime).  Six passes without a division, against the
    float divmod of np.remainder.  The corrections' masks reuse scratch's
    memory.
    """
    np.multiply(x, 1.0 / prime, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= prime
    x -= scratch
    mask = scratch.reshape(-1).view(np.bool_)[:x.size].reshape(x.shape)
    np.add(x, prime, out=x, where=np.less(x, 0, out=mask))
    np.subtract(x, prime, out=x, where=np.greater_equal(x, prime, out=mask))


def _nullspace_mod_p(A, prime):
    """Nullspace mod prime of a float64 matrix with entries in [0, prime).

    Right-looking blocked LU.  Each panel of _BLOCK columns is eliminated
    row by row (unit pivots, whole-row swaps, zero columns skipped); its row
    operations then reach the trailing columns as a triangular sweep over the
    panel's pivot rows and one matmul for the rows below them.  A is
    overwritten with a row echelon form.  Returns (basis, pivots, free): per
    free column, the vector with 1 there, 0 at the other free columns and
    the back-substituted values at the pivot columns.

    The panel is reduced lazily: only the column searched for a pivot and
    the pivot row are reduced (np.remainder, one call per short vector).
    The multipliers and the pivot row are then in [0, prime), so each step
    subtracts at most (prime - 1)^2 from an entry, and an entry gathers at
    most _BLOCK such products before the panel ends: it stays above
    -_BLOCK * (prime - 1)^2, which float64 holds exactly.  The trailing
    update L21 @ U12 sums at most _BLOCK such products too, and is reduced
    by _reduce in the buffer that held the product.
    """
    m, n = A.shape
    pivots = []
    r = 0
    # every panel's products land in this one buffer, which then serves as
    # _reduce's scratch, so peak memory does not depend on how the allocator
    # reuses freed temporaries
    buf = np.empty(m * n)
    for c0 in range(0, n, _BLOCK):
        if r == m:
            break
        c1 = min(c0 + _BLOCK, n)
        panel = A[r:, c0:c1]
        L = np.zeros((m - r, c1 - c0))
        inverses = []
        s = 0
        for j in range(c1 - c0):
            column = panel[s:, j]
            np.remainder(column, prime, out=column)
            nz = np.flatnonzero(column)
            if nz.size == 0:
                continue
            i = s + int(nz[0])
            if i != s:
                A[[r + s, r + i]] = A[[r + i, r + s]]
                L[[s, i]] = L[[i, s]]
            inverses.append(pow(int(panel[s, j]), prime - 2, prime))
            row = panel[s, j:]
            np.remainder(row, prime, out=row)
            row *= inverses[-1]
            np.remainder(row, prime, out=row)
            L[s + 1:, s] = panel[s + 1:, j]
            below = panel[s + 1:, j:]
            product = buf[:below.size].reshape(below.shape)
            below -= np.multiply.outer(L[s + 1:, s], row, out=product)
            pivots.append(c0 + j)
            s += 1
        trail = A[r:, c1:]
        for k in range(s):
            # the panel's row operations, replayed on its pivot rows
            top = trail[k]
            top -= L[k, :k] @ trail[:k]
            np.remainder(top, prime, out=top)
            top *= inverses[k]
            np.remainder(top, prime, out=top)
        rest = trail[s:]
        product = buf[:rest.size].reshape(rest.shape)
        rest -= np.matmul(L[s:, :s], trail[:s], out=product)
        _reduce(rest, prime, product)
        r += s
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    # int64 back-substitution: each dot product stays below n * p^2 < 2^63
    X = np.zeros((n, len(free)), dtype=np.int64)
    X[free, range(len(free))] = 1
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        X[c] = -(A[i, c + 1:].astype(np.int64) @ X[c + 1:]) % prime
    return X.T.tolist(), pivots, free


# extra_points stays an option: perfbench's span counters read it by name
def interpolate_vanishing_forms(coords, degree, rng=None, extra_points=10):
    """Exact basis of degree-d forms in the given coordinates vanishing on
    the model image.

    coords: list of (name, Poly-in-parameters) pairs.  Samples the map at
    #monomials + extra_points random exact rational points, computes an exact
    nullspace basis by multi-modular elimination and rational reconstruction,
    normalizes each form, and re-verifies it at fresh random points before
    returning.  Coordinate names must be distinct.
    """
    rng = rng or random.Random(0)
    names = [nm for nm, _ in coords]
    polys = [p for _, p in coords]
    params = sorted(set().union(*[p.variables() for p in polys]))
    exps = _monomial_exponents(len(coords), degree)
    if not exps:
        return []   # no coordinates, so no monomial of positive degree
    nmono = len(exps)
    npoints = nmono + extra_points

    for attempt in range(_MAX_RETRIES):
        pts = [random_point(params, rng) for _ in range(npoints)]
        for basis in _modular_nullspace(polys, params, pts, exps):
            forms = []
            for vec in basis:
                form = Poly()
                for e, c in zip(exps, vec):
                    if c == 0:
                        continue
                    mono = Poly.const(c)
                    for j, d in enumerate(e):
                        if d:
                            mono = mono * Poly.var(names[j], d)
                    form = form + mono
                forms.append(normalize_poly(form))
            if all(vanishing_check(f, dict(coords), rng=rng,
                                   points=_VERIFY_POINTS) for f in forms):
                return forms
    raise RuntimeError("interpolation failed: insufficient sample rank after "
                       f"{_MAX_RETRIES} retries")


def _modular_nullspace(polys, params, pts, exps):
    """Candidate nullspace bases over Q: one per prime of _PRIMES whose
    accumulated residues pass rational reconstruction.

    The sample matrix at the points `pts` is built mod each prime from the
    residues of the parameters; a prime that divides a denominator of the
    polynomials' coefficients is skipped.  Primes with the same pivot
    columns are combined by CRT.  Reduction mod a prime can only lower the
    rank of each leading block of columns, so a prime that finds more
    pivots, or as many further left, shows that the primes so far were
    unlucky and replaces their residues; one with fewer or later pivots is
    skipped.
    """
    residues = modulus = best = None
    for prime in _PRIMES:
        try:
            C = _coordinate_residues(polys, params, pts, prime)
        except ValueError:
            continue
        basis, pivots, _ = _nullspace_mod_p(_rows_mod(C, exps, prime), prime)
        if best is None or len(pivots) > len(best) or \
                (len(pivots) == len(best) and pivots < best):
            residues, modulus, best = basis, prime, pivots
        elif pivots != best:
            continue
        else:
            for v, bv in zip(residues, basis):
                for i, b in enumerate(bv):
                    v[i], _ = _crt_pair(v[i], modulus, b, prime)
            modulus *= prime
        recon = [[_rat_reconstruct(a, modulus) for a in v] for v in residues]
        if all(x is not None for v in recon for x in v):
            yield recon


def linear_relations(coords, rng=None):
    """Degree-1 vanishing forms (linear relations among coordinates)."""
    return interpolate_vanishing_forms(coords, 1, rng=rng)

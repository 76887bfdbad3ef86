import hashlib
import itertools
import json
import random
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phyloag import expand_map, make_model, parse_newick
from phyloag.exactalg import (Poly, Rat, mat_det, mat_rank_nullspace, minors,
                              normalize_poly, parse_poly, residue)
from phyloag import invariants, paramap

from conftest import (draw_newick, random_rat, random_params,
                      rref_nullspace_mod_p)


def rank1_tensor(rng, n, k):
    vecs = [[random_rat(rng) for _ in range(k)] for _ in range(n)]
    out = []
    for states in itertools.product(range(k), repeat=n):
        v = Rat(1)
        for leaf, s in enumerate(states):
            v *= vecs[leaf][s]
        out.append(v)
    return out


def tensor_sum(a, b):
    return [x + y for x, y in zip(a, b)]


def test_symbolic_tensor_names():
    t = invariants.symbolic_tensor(2, 2)
    assert [str(x) for x in t] == ["1*p00", "1*p01", "1*p10", "1*p11"]
    t4 = invariants.symbolic_tensor(1, 4, dna=True)
    assert [str(x) for x in t4] == ["1*pA", "1*pC", "1*pG", "1*pT"]


def test_flatten_shapes_and_entries():
    tensor = invariants.symbolic_tensor(4, 2)
    mat = invariants.flatten(tensor, list("1234"), (("1", "2"), ("3", "4")),
                             k=2)
    assert len(mat) == 4 and len(mat[0]) == 4
    assert str(mat[0][0]) == "1*p0000"
    assert str(mat[1][2]) == "1*p0110"
    # mixed split: row index runs over leaves 1 and 3
    mat13 = invariants.flatten(tensor, list("1234"), (("1", "3"), ("2", "4")),
                               k=2)
    assert str(mat13[1][0]) == "1*p0010"


def test_flatten_validates_split():
    tensor = invariants.symbolic_tensor(3, 2)
    with pytest.raises(ValueError):
        invariants.flatten(tensor, list("123"), (("1",), ("2",)), k=2)
    with pytest.raises(ValueError):
        invariants.flatten(tensor, list("123"), ((), ("1", "2", "3")), k=2)


def test_flattening_rank_of_low_rank_tensors():
    rng = random.Random(9)
    t1 = rank1_tensor(rng, 4, 2)
    t2 = tensor_sum(rank1_tensor(rng, 4, 2), rank1_tensor(rng, 4, 2))
    for split in [(("1", "2"), ("3", "4")), (("1", "3"), ("2", "4"))]:
        m1 = invariants.flatten(t1, list("1234"), split, k=2)
        m2 = invariants.flatten(t2, list("1234"), split, k=2)
        assert mat_rank_nullspace(m1)[0] == 1
        assert mat_rank_nullspace(m2)[0] == 2
        assert all(v == 0 for v in minors(m2, 3))


def test_hankel_matrix_and_dedup():
    H = invariants.hankel_matrix()
    assert [[str(x) for x in row] for row in H] == [
        ["1*p0", "1*p1", "1*p2"],
        ["1*p1", "1*p2", "1*p3"],
        ["1*p2", "1*p3", "1*p4"]]
    det = mat_det(H)
    assert det.degree() == 3 and det.num_terms() == 5


def test_vanishing_check_modes(tree3):
    m = make_model(tree3, "jc-binary")
    jm = expand_map(m)
    coords = {f"p{i}": jm.coordinate(i) for i in range(8)}
    # total probability identity only holds for stochastic values, so this
    # form must NOT vanish identically
    nonzero = parse_poly("p0 + p1 - p2")
    assert not invariants.vanishing_check(nonzero, coords)
    # symmetry of the cherry: p(0,0,1) == p(0,1,0)? no; use class equality
    classes = paramap.symmetry_classes(jm)
    a, b = next((c[0], c[1]) for c in classes if len(c) > 1)
    form = Poly.var(f"p{a}") - Poly.var(f"p{b}")
    assert invariants.vanishing_check(form, coords, mode="symbolic")
    assert invariants.vanishing_check(form, coords, mode="randomized")
    ok, witness = invariants.vanishing_check(nonzero, coords,
                                             return_witness=True)
    assert not ok and witness is not None
    with pytest.raises(KeyError):
        invariants.vanishing_check(parse_poly("nope"), coords)


def test_jacobian_dimension_monomial():
    # one observed edge, k=2: coordinates are the four matrix entries scaled
    # by the uniform root, so the rank is the full parameter count
    one = parse_newick("(1);")
    m = make_model(one, "general-markov", k=2, no_hidden=True)
    jm = expand_map(m)
    rank, dim = invariants.jacobian_dimension(jm)
    assert (rank, dim) == (4, 3)


def test_jacobian_dimension_small_gm(tree3):
    m = make_model(tree3, "general-markov", root_mode="free", k=2)
    jm = expand_map(m)
    rank, _ = invariants.jacobian_dimension(jm)
    # image fills the 7-simplex cone
    assert rank == 8


# the benchmark's dimension cases, then a model without hidden nodes and a
# free-root 2-mixture (no global weight symbols)
_BENCHMARK_CASES = [
    (c["newick"], c["kind"], c["root"], c["k"], c["mixture"], False)
    for c in json.loads((Path(__file__).parents[1] / "perfbench" /
                         "reference.json").read_text())["dimension"]]
_DIMENSION_CASES = _BENCHMARK_CASES + [
    ("(1,(2,3));", "general-markov", "uniform", 2, 1, True),
    ("(1,(2,3));", "general-markov", "free", 2, 2, False)]


def _dimension_map(nwk, kind, root, k, mcount, no_hidden):
    tree = parse_newick(nwk)
    if no_hidden:
        return expand_map(make_model(tree, kind, root_mode=root, k=k,
                                     no_hidden=True))
    return invariants.make_mixture(tree, kind, mcount, root_mode=root, k=k)


@pytest.mark.parametrize("case", _DIMENSION_CASES,
                         ids=[f"{c[1]}x{c[4]}:{c[0]}" for c in _DIMENSION_CASES])
def test_distinct_rows_give_the_full_rank(case):
    jm = _dimension_map(*case)
    parts = getattr(jm, "components", [jm])
    circuits = [(list(c.circuit.ops), dict(c.circuit.outputs)) for c in parts]
    rank, _ = invariants.jacobian_dimension(jm, rng=random.Random(5), tries=1)
    # the same first point that jacobian_dimension drew
    symbols = jm.symbols()
    pt = invariants.random_point(symbols, random.Random(5))
    rows = jm.jacobian(pt, symbols)
    assert len(rows) == jm.num_coordinates
    assert rank == mat_rank_nullspace(rows)[0]
    keys = jm.coordinate_keys()
    first = {}
    for key, row in zip(keys, rows):
        assert row == first.setdefault(key, row)
    # ranking the Jacobian leaves the circuits as they were built
    assert circuits == [(c.circuit.ops, c.circuit.outputs) for c in parts]


def test_dimension_circuits_are_pinned():
    # SHA-256 of the circuits of the benchmark's dimension cases as built by
    # a full walk of the tree per leaf pattern; the memoized build must make
    # the same nodes in the same order
    digest = hashlib.sha256()
    for case in _BENCHMARK_CASES:
        jm = _dimension_map(*case)
        for part in getattr(jm, "components", [jm]):
            ops = [(kind, str(p) if kind == paramap.CONST else p)
                   for kind, p in part.circuit.ops]
            digest.update(repr(ops).encode())
            digest.update(repr(sorted(part.circuit.outputs.items())).encode())
    assert digest.hexdigest() == \
        "a8b51c000be49429f12767e8e24f10f71bdb7cae75dfb6898155d7bdf90d1187"


@st.composite
def small_dimension_models(draw):
    """A random tree with 3-5 leaves (root of degree 2 or 3) and one of the
    model kinds, as a _dimension_map case."""
    nwk = draw_newick(draw, 3, 5)
    kind, root, k, mcount, no_hidden = draw(st.sampled_from([
        ("jc-binary", "uniform", None, 1, False),
        ("jc-dna", "uniform", None, 1, False),
        ("kimura2", "uniform", None, 1, False),
        ("kimura3", "uniform", None, 1, False),
        ("general-markov", "free", 2, 1, False),
        ("general-markov", "uniform", 2, 1, True),
        ("jc-dna", "uniform", None, 2, False),
    ]))
    return nwk, kind, root, k, mcount, no_hidden


@given(small_dimension_models(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_modular_jacobian_is_the_exact_one_reduced(case, seed):
    # uniform roots put the constant 1/k into every coordinate, and the
    # 2-mixture adds the weight symbols' rows
    jm = _dimension_map(*case)
    symbols = jm.symbols()
    prime = invariants._PRIMES[0]
    pt = invariants.random_point(symbols, random.Random(seed))
    exact = jm.jacobian(pt, symbols)
    assert jm.jacobian(pt, symbols, prime) == \
        [[residue(x, prime) for x in row] for row in exact]
    rank, _ = invariants.jacobian_dimension(jm, rng=random.Random(seed),
                                            tries=1)
    distinct = dict(zip(jm.coordinate_keys(), exact))
    assert rank == mat_rank_nullspace(list(distinct.values()))[0]


def test_shared_output_node_is_one_polynomial(tree4):
    jm = expand_map(make_model(tree4, "jc-dna"))
    params = random_params(jm.symbols(), 4)
    rows = jm.jacobian(params)
    seen = {}
    for i, key in enumerate(jm.coordinate_keys()):
        j = seen.setdefault(key, i)
        assert jm.coordinate(i) == jm.coordinate(j)
        if i == j:
            poly = jm.coordinate(i)
            assert rows[i] == [poly.derivative(s).eval(params)
                               for s in jm.symbols()]
    assert len(seen) < jm.num_coordinates


def test_mixture_map_eval_and_symbols(tree3):
    mix = invariants.make_mixture(tree3, "jc-binary", 2)
    assert mix.weight_symbols == ("s0", "s1")
    syms = mix.symbols()
    assert len(syms) == len(set(syms))
    params = random_params(syms, 3)
    vec = mix.eval(params)
    comp_vecs = [c.eval(params) for c in mix.components]
    for i, v in enumerate(vec):
        want = params["s0"] * comp_vecs[0][i] + params["s1"] * comp_vecs[1][i]
        assert v == want
    # coordinate polynomials agree with eval
    for i in (0, 3):
        assert mix.coordinate(i).eval(params) == vec[i]


def test_mixture_rejects_shared_symbols(tree3):
    a = expand_map(make_model(tree3, "jc-binary"))
    b = expand_map(make_model(tree3, "jc-binary"))
    with pytest.raises(ValueError):
        invariants.mixture_map([a, b])


def test_mixture_jacobian_matches_derivatives(tree3):
    mix = invariants.make_mixture(tree3, "jc-binary", 2)
    syms = mix.symbols()
    params = random_params(syms, 8)
    rows = mix.jacobian(params, syms)
    for i in (0, 5):
        poly = mix.coordinate(i)
        for j, s in enumerate(syms):
            assert rows[i][j] == poly.derivative(s).eval(params)


def test_interpolate_linear_relations(tree3):
    jm = expand_map(make_model(tree3, "jc-binary"))
    coords = [(f"p{i}", jm.coordinate(i)) for i in range(8)]
    forms = invariants.linear_relations(coords)
    # jc-binary on (1,(2,3)) has 4 distinct coordinates among 8
    assert len(forms) == 4
    cdict = dict(coords)
    for f in forms:
        assert f.substitute(cdict).is_zero()


def test_interpolate_segre_quadric():
    # 2x2 rank-one matrices: the single quadric p00*p11 - p01*p10
    coords = [("p00", parse_poly("u0*v0")), ("p01", parse_poly("u0*v1")),
              ("p10", parse_poly("u1*v0")), ("p11", parse_poly("u1*v1"))]
    forms = invariants.interpolate_vanishing_forms(coords, 2)
    assert len(forms) == 1
    assert forms[0] == normalize_poly(parse_poly("p00*p11 - p01*p10"))


def jc3_class_coords():
    """Accumulated symmetry classes of jc-dna on (1,(2,3)); their cubic
    invariant is sought among 35 monomials."""
    jm = expand_map(make_model(parse_newick("(1,(2,3));"), "jc-dna"))
    acc = paramap.accumulate_classes(jm, paramap.symmetry_classes(jm))
    return list(zip(["p123", "p12", "p13", "p23", "pdis"], acc))


def test_interpolation_verifies_on_fresh_points():
    coords = jc3_class_coords()
    forms = invariants.interpolate_vanishing_forms(coords, 3)
    assert len(forms) == 1
    cdict = dict(coords)
    assert forms[0].substitute(cdict).is_zero()


def test_modular_path_agrees_with_exact():
    """Force the multi-modular elimination on cases small enough to also be
    solved directly and compare the resulting forms; the cubic's 35
    monomials span two elimination panels."""
    segre = [("p00", parse_poly("u0*v0")), ("p01", parse_poly("u0*v1")),
             ("p10", parse_poly("u1*v0")), ("p11", parse_poly("u1*v1"))]
    for coords, degree in [(segre, 2), (jc3_class_coords(), 3)]:
        exact = invariants.interpolate_vanishing_forms(coords, degree,
                                                       max_exact=200)
        forced = invariants.interpolate_vanishing_forms(coords, degree,
                                                        max_exact=0)
        assert [str(f) for f in exact] == [str(f) for f in forced]


@pytest.mark.parametrize("polys, want", [
    # x vanishes mod the first prime, which then finds one pivot of two
    (["{P}*u", "v", "2*v"], "2*y - z"),
    # as many pivots mod the first prime as over Q, but in a later column
    (["{P}*u", "u"], "x - {P}*y"),
])
def test_modular_path_survives_unlucky_first_prime(polys, want):
    P = invariants._PRIMES[0]
    coords = [(name, parse_poly(p.format(P=P)))
              for name, p in zip("xyz", polys)]
    exact = invariants.interpolate_vanishing_forms(coords, 1, max_exact=3)
    forced = invariants.interpolate_vanishing_forms(coords, 1, max_exact=0)
    assert [str(f) for f in forced] == [str(f) for f in exact]
    assert forced == [normalize_poly(parse_poly(want.format(P=P)))]


def test_modular_path_skips_a_prime_in_a_denominator():
    # the first prime divides a coefficient's denominator, so the
    # coordinates have no residues modulo it
    P = invariants._PRIMES[0]
    coords = [("x", parse_poly(f"1/{P}*u")), ("y", parse_poly("u"))]
    exact = invariants.interpolate_vanishing_forms(coords, 1, max_exact=3)
    forced = invariants.interpolate_vanishing_forms(coords, 1, max_exact=0)
    assert forced == exact == [normalize_poly(parse_poly(f"{P}*x - y"))]


def test_modular_primes_keep_float64_exact():
    # a lazily reduced panel entry gathers up to _BLOCK products below
    # (p - 1)^2 on top of a residue below p
    primes = invariants._PRIMES
    assert len(set(primes)) == len(primes)
    assert all(all(p % d for d in range(2, isqrt(p) + 1)) for p in primes)
    assert invariants._BLOCK * (max(primes) - 1) ** 2 + max(primes) < 2 ** 53


@st.composite
def reducible_arrays(draw):
    """(strided 2-D float64 view of integers within the lazy panel's bound,
    or anywhere in _reduce's range |x| <= 2^53 - p, p).  Only near 2^53 is
    the float quotient ever off by one: for p = 7, at -top + (6 + top) % 7
    it is one too high."""
    p = draw(st.sampled_from([invariants._PRIMES[0], 7]))
    bound = invariants._BLOCK * (p - 1) ** 2 + p
    top = 2 ** 53 - p
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = st.sampled_from([-bound, bound, -p, p, p - 1, -(p - 1), 0,
                             bound - bound % p, -(bound - bound % p),
                             top, -top, -top + (p - 1 + top) % p])
    values = draw(st.lists(st.integers(-bound, bound) | edges |
                           st.integers(-top, top),
                           min_size=m * n, max_size=m * n))
    wide = np.zeros((m, n + 3))
    wide[:, 1:n + 1] = np.array(values, dtype=np.float64).reshape(m, n)
    return wide[:, 1:n + 1], p


@given(reducible_arrays())
@settings(max_examples=100, deadline=None)
def test_reduce_matches_remainder(case):
    x, p = case
    want = np.remainder(x, p)
    invariants._reduce(x, p, np.empty(x.shape))
    assert np.array_equal(x, want)


@st.composite
def small_polys(draw):
    """A polynomial in u, v, w with up to 5 terms, rational coefficients and
    exponents up to 4."""
    terms = draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 97),
                                    st.lists(st.integers(0, 4), min_size=3,
                                             max_size=3)), max_size=5))
    poly = Poly()
    for num, den, exps in terms:
        mono = Poly.const(Rat(num, den))
        for name, e in zip("uvw", exps):
            mono = mono * Poly.var(name, e)
        poly = poly + mono
    return poly


@given(st.lists(small_polys(), min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_coordinate_residues_are_the_exact_values_reduced(polys, seed):
    prime = invariants._PRIMES[0]
    params = ["u", "v", "w"]
    rng = random.Random(seed)
    pts = [invariants.random_point(params, rng) for _ in range(4)]
    C = invariants._coordinate_residues(polys, params, pts, prime)
    want = [[residue(poly.eval(pt), prime) for poly in polys] for pt in pts]
    assert C.tolist() == want
    assert [[poly.eval_mod({s: residue(pt[s], prime) for s in params}, prime)
             for poly in polys] for pt in pts] == want


@given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_sample_matrix_is_the_product_of_powers(ncoords, degree, npoints,
                                                seed):
    # the column of monomial x^e is prod_j x_j^e_j, however it was built
    prime = invariants._PRIMES[0]
    C = np.random.default_rng(seed).integers(0, prime, (npoints, ncoords))
    exps = invariants._monomial_exponents(ncoords, degree)
    want = [[int(np.prod([pow(int(c), d, prime) for c, d in zip(row, e)],
                         dtype=object)) % prime for e in exps] for row in C]
    assert invariants._rows_mod(C.astype(np.float64), exps,
                                prime).tolist() == want


@st.composite
def modular_matrices(draw):
    """(int64 matrix with entries in [0, p), p).  Rows are sparse
    combinations of `rank` rows with leading zeros, some columns are zeroed,
    and p = 7 adds accidental dependencies.  Sorting the rows by leading
    zeros puts pivots far below the current row, beyond the panel."""
    p = draw(st.sampled_from([invariants._PRIMES[0], 7]))
    m, n = draw(st.integers(1, 72)), draw(st.integers(1, 200))
    rank = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R = rng.integers(0, p, (rank, n))
    R[np.arange(n) < rng.integers(0, n // 2 + 1, (rank, 1))] = 0
    B = rng.integers(0, p, (m, rank)) * (rng.random((m, rank)) < rng.random())
    A = B @ R % p
    A[:, draw(st.lists(st.integers(0, n - 1), max_size=n // 4))] = 0
    if draw(st.booleans()):  # the rows with the most leading zeros first
        lead = np.where(A.any(axis=1), (A != 0).argmax(axis=1), n)
        A = A[np.argsort(-lead, kind="stable")]
    return A, p


@given(modular_matrices())
@settings(max_examples=60, deadline=None)
def test_blocked_elimination_matches_rref(case):
    A, p = case
    pivots, basis = rref_nullspace_mod_p(A.tolist(), p)
    got_basis, got_pivots, free = invariants._nullspace_mod_p(
        A.astype(np.float64), p)
    assert got_pivots == pivots
    assert free == [c for c in range(A.shape[1]) if c not in pivots]
    assert got_basis == basis


def test_rational_reconstruction_roundtrip():
    from phyloag.invariants import _rat_reconstruct
    m = 2147483629 * 2147483587
    for num, den in [(3, 7), (-22, 5), (1, 1), (1000, 3001)]:
        a = num * pow(den, -1, m) % m
        r = _rat_reconstruct(a, m)
        assert r == Rat(num, den)

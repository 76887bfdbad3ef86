import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from phyloag import invariants
from phyloag.exactalg import (MAX_DEGREE, Poly, Rat, mat_det,
                              mat_rank_nullspace,
                              minors, monomial_binomial, normalize_poly,
                              parse_poly, rat, residue)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
# a coefficient is an int or a Fraction, Fraction(n, 1) included
coefficients = st.one_of(rationals, st.integers(-50, 50),
                         st.integers(-50, 50).map(Fraction))


def test_rat_from_string():
    assert rat("3/4") == Rat(3, 4)
    assert rat("-7") == Rat(-7)
    assert rat(5, 10) == Rat(1, 2)
    # int() forms: surrounding whitespace, a sign, '_' between digits
    assert rat(" -3 / 4 ") == Rat(-3, 4)
    assert rat("1_000") == 1000
    assert rat("1/-2") == Rat(-1, 2)
    for bad in ["1/2/3", "abc", "1e5", "", "1/"]:
        with pytest.raises(ValueError, match="is not an integer or p/q"):
            rat(bad)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        rat("1/0")


def test_rat_names_too_many_digits_briefly():
    # int() refuses more than 4300 digits; the message quotes a prefix
    for text in ["1" * 5000, "1" * 5000 + "/7", "7/" + "1" * 5000]:
        with pytest.raises(ValueError, match="has too many digits") as err:
            rat(text)
        assert len(str(err.value)) < 120
        assert f"({len(text)} characters)" in str(err.value)
    with pytest.raises(ValueError, match=r"^'x{40}'\.\.\. \(99 characters\) "
                       "is not an integer or p/q$"):
        rat("x" * 99)
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0+'\.\.\. "
                       r"\(4002 characters\)$"):
        rat("1/" + "0" * 4000)
    assert rat("2" * 4300 + "/7") == Rat(int("2" * 4300), 7)


@given(rationals, st.sampled_from([7, 97, 8388593]))
def test_residue_solves_the_congruence(x, p):
    assume(x.denominator % p)
    r = residue(Rat(x), p)
    assert 0 <= r < p
    assert (r * x.denominator - x.numerator) % p == 0


def test_residue_rejects_a_denominator_divisible_by_the_prime():
    with pytest.raises(ValueError):
        residue(Rat(3, 14), 7)


def test_poly_basic_arithmetic():
    x, y = Poly.var("x"), Poly.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.degree() == 2
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1


def test_poly_eval_and_derivative():
    x, y = Poly.var("x"), Poly.var("y")
    p = 3 * x ** 2 * y - y + 7
    assert p.eval({"x": Rat(2), "y": Rat(1, 3)}) == Rat(4) - Rat(1, 3) + 7
    assert p.derivative("x") == 6 * x * y
    assert p.derivative("y") == 3 * x ** 2 - 1
    with pytest.raises(KeyError):
        p.eval({"x": 1})
    with pytest.raises(KeyError, match="unassigned variable 'y'"):
        p.eval_mod({"x": 1}, 7)


def test_eval_at_polynomials_expands():
    x, y, u = Poly.var("x"), Poly.var("y"), Poly.var("u")
    p = x ** 2 + y
    q = p.eval({"x": u + 1, "y": Poly.const(2)})
    assert q == u ** 2 + 2 * u + 3


def test_coefficient_lookup():
    x, y = Poly.var("x"), Poly.var("y")
    p = 5 * x ** 2 * y - Rat(1, 2) * y
    assert p.coefficient({"x": 2, "y": 1}) == 5
    assert p.coefficient({"y": 1}) == Rat(-1, 2)
    assert p.coefficient({"x": 1}) == 0


@st.composite
def polys(draw):
    """Polynomials in x, y, z whose terms are made with the drawn
    coefficient objects, so ints and Fractions mix in one polynomial."""
    nterms = draw(st.integers(0, 5))
    p = Poly()
    for _ in range(nterms):
        c = draw(coefficients)
        if c == 0:
            continue
        mono = tuple(name for name in "xyz"
                     for _ in range(draw(st.integers(0, 3))))
        p = p + Poly({mono: c})
    return p


@given(polys())
@settings(max_examples=60)
def test_text_round_trip(p):
    assert parse_poly(str(p)) == p


@pytest.mark.parametrize("text", [
    "x - -y", "- - x", "x -", "+", "", "x y", "(x)",
])
def test_parse_rejects_text_outside_the_grammar(text):
    # a doubled or dangling sign, no term, or a name with a space or
    # parenthesis
    with pytest.raises(ValueError, match="bad term"):
        parse_poly(text)


def test_parse_bounds_the_degree_of_a_term():
    top = f"u^{MAX_DEGREE - 1}*v + u^{MAX_DEGREE}"
    assert parse_poly(top).degree() == MAX_DEGREE
    # the bound is on the whole term, not on each factor: a term of many
    # small powers would otherwise hold its names many times over
    for text in [f"u^{MAX_DEGREE + 1}", f"u^{MAX_DEGREE}*v",
                 "2*u^1000000 + v", "u^" + "9" * 400,
                 "*".join(["u^1000"] * 3), "*".join(["u"] * 101)]:
        with pytest.raises(ValueError, match=f"degree above {MAX_DEGREE}"):
            parse_poly(text)


@pytest.mark.parametrize("text, want", [
    ("-x + 2/3*y^2", "2/3*y^2 - 1*x"),
    ("- x  *  y -  2*x", "-1*x*y - 2*x"),
    ("pACGT*q0101 - _a*ua0^3", "-1*_a*ua0^3 + 1*pACGT*q0101"),
    ("x + x - 2*x", "0"),
    ("0", "0"),
])
def test_parse_reads_the_grammar(text, want):
    assert str(parse_poly(text)) == want


@given(polys(), coefficients)
@settings(max_examples=60)
def test_a_poly_equal_to_a_number_has_its_hash(p, c):
    # the constant c stored as drawn (an int, a Fraction or a Fraction n/1),
    # the same constant made by arithmetic, and p, which equals a number
    # only when it has no term but a constant one
    const = Poly({(): c} if c != 0 else {})
    numbers = [c, Rat(c), p.terms.get((), 0)]
    if Rat(c).denominator == 1:
        numbers.append(int(c))
    equal = 0
    for q in (const, const + p - p, p):
        for n in numbers:
            if q == n:
                equal += 1
                assert hash(q) == hash(n)
                assert {n: "a"}.get(q) == "a" and len({q, n}) == 1
    # const and const + p - p each equal c and Rat(c)
    assert equal >= 4


@given(polys(), polys())
@settings(max_examples=40)
def test_ring_laws(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p


@given(polys(), polys(), st.sampled_from("xyz"), st.integers(1, 4),
       st.tuples(rationals, rationals, rationals))
@settings(max_examples=60)
def test_calculus_and_evaluation_agree(p, q, v, e, values):
    # exponents up to 3 in polys(), so names repeat within a monomial
    assert (p * q).derivative(v) == p.derivative(v) * q + p * q.derivative(v)
    assert Poly.var(v, e).derivative(v) == e * Poly.var(v, e - 1)
    point = dict(zip("xyz", (Rat(x.numerator, x.denominator)
                             for x in values)))
    assert p.eval({name: Poly.const(x) for name, x in point.items()}) == \
        p.eval(point)
    prime = 8388593
    residues = {name: residue(x, prime) for name, x in point.items()}
    assert p.eval_mod(residues, prime) == residue(p.eval(point), prime)


def test_var_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        Poly.var("x", -1)
    with pytest.raises(ValueError, match="negative power"):
        Poly.var("x") ** -1


def test_normalize_poly():
    x, y = Poly.var("x"), Poly.var("y")
    p = Rat(-2, 3) * x * y + Rat(4, 3) * y ** 2
    n = normalize_poly(p)
    assert n == x * y - 2 * y ** 2
    assert normalize_poly(n) == n
    assert normalize_poly(Poly()).is_zero()
    # an integral coefficient prints alike as an int or a Fraction
    a, b = ("x",), ("y",)
    assert str(normalize_poly(Poly({a: 2, b: -4}))) == \
        str(normalize_poly(Poly({a: Fraction(2), b: Fraction(-4)}))) == \
        "1*x - 2*y"


@given(polys())
@settings(max_examples=60)
def test_text_does_not_depend_on_the_type_of_an_integral_coefficient(p):
    as_fractions = Poly({m: Fraction(c) for m, c in p.terms.items()})
    as_ints = Poly({m: c.numerator if c.denominator == 1 else c
                    for m, c in p.terms.items()})
    texts = {str(q) for q in (p, as_fractions, as_ints)}
    assert len(texts) == 1
    assert len({str(normalize_poly(q))
                for q in (p, as_fractions, as_ints)}) == 1


_fresh = itertools.count()


@given(st.permutations(range(4)))
@settings(max_examples=30)
def test_printed_text_does_not_depend_on_earlier_variables(order):
    # names no earlier example or test has used, created in a drawn order
    n = next(_fresh)
    a, b, c, d = names = [f"hist{n}{x}" for x in "abcd"]
    for i in order:
        Poly.var(names[i])
    A, B, C, D = map(Poly.var, names)
    assert str(normalize_poly(B ** 2 - A ** 2)) == f"1*{a}^2 - 1*{b}^2"
    assert str(normalize_poly((B + A) * (D - C))) == \
        f"1*{a}*{c} - 1*{a}*{d} + 1*{b}*{c} - 1*{b}*{d}"
    # an interpolated form's sign must not follow the order in which its
    # coordinate names were first created
    x, y, u = (f"hist{n}{v}" for v in "xyu")
    Poly.var(y), Poly.var(x)
    P = invariants._PRIMES[0]
    forms = invariants.interpolate_vanishing_forms(
        [(x, P * Poly.var(u)), (y, Poly.var(u))], 1)
    assert [str(f) for f in forms] == [f"1*{x} - {P}*{y}"]


# -- matrices ---------------------------------------------------------------


def naive_rank(mat):
    """Plain fraction Gaussian elimination, used as an oracle."""
    m = [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
         for row in mat]
    rank = 0
    ncols = len(m[0])
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def perm_det(mat):
    n = len(mat)
    total = Rat(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Rat(sign)
        for i in range(n):
            term *= Rat(mat[i][perm[i]])
        total += term
    return total


def rand_matrix(rng, nrows, ncols, lowrank=None):
    if lowrank is None:
        return [[Rat(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(ncols)] for _ in range(nrows)]
    left = rand_matrix(rng, nrows, lowrank)
    right = rand_matrix(rng, lowrank, ncols)
    return [[sum((left[i][t] * right[t][j] for t in range(lowrank)), Rat(0))
             for j in range(ncols)] for i in range(nrows)]


def test_rank_matches_naive_elimination():
    rng = random.Random(5)
    for trial in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        lr = rng.choice([None, 1, 2])
        mat = rand_matrix(rng, nrows, ncols, lowrank=lr)
        rank, basis = mat_rank_nullspace(mat)
        assert rank == naive_rank(mat)
        assert rank + len(basis) == ncols


def test_nullspace_vectors_annihilate():
    rng = random.Random(11)
    for trial in range(10):
        mat = rand_matrix(rng, 4, 6, lowrank=2)
        _, basis = mat_rank_nullspace(mat)
        for v in basis:
            for row in mat:
                assert sum((a * b for a, b in zip(row, v)), Rat(0)) == 0


def test_det_matches_permanent_expansion():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            mat = rand_matrix(rng, n, n)
            assert mat_det(mat) == perm_det(mat)


def test_det_singular():
    mat = [[Rat(1), Rat(2)], [Rat(2), Rat(4)]]
    assert mat_det(mat) == 0


def test_det_of_the_empty_and_of_a_non_square_matrix():
    assert mat_det([]) == 1
    with pytest.raises(ValueError, match="non-square"):
        mat_det([[Rat(1), Rat(2)]])


def test_det_polynomial_entries():
    a, b, c, d = (Poly.var(n) for n in "abcd")
    assert mat_det([[a, b], [c, d]]) == a * d - b * c


def test_minors_order_and_count():
    mat = [[Rat(i * 3 + j + 1) for j in range(3)] for i in range(2)]
    out = minors(mat, 2)
    assert len(out) == 3
    # first minor = rows (0,1), cols (0,1)
    assert out[0] == mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    with pytest.raises(ValueError):
        minors(mat, 3)
    with pytest.raises(ValueError, match="minor size 1 out of range for 0x0"):
        minors([], 1)
    # a 1 x 1 polynomial minor is its entry
    x, y = Poly.var("x"), Poly.var("y")
    assert minors([[x, y], [y, x]], 1) == [x, y, y, x]


def test_empty_matrix_rank():
    rank, basis = mat_rank_nullspace([])
    assert rank == 0 and basis == []


_names = st.lists(st.sampled_from(["bx", "by", "bz", "bw"]), min_size=1,
                  max_size=3)


def _monomial(names):
    """The product of a list of names as a monomial, sorted by name."""
    return tuple(sorted(names))


@given(_names, _names)
@settings(max_examples=60)
def test_monomial_binomial_is_the_normalized_difference(a, b):
    # squared names and products that cancel included
    want = normalize_poly(
        Poly.const(1) * _product(a) - Poly.const(1) * _product(b))
    got = monomial_binomial(_monomial(a), _monomial(b))
    assert got == want
    assert str(got) == str(want)
    assert list(got.terms) == list(want.terms)


def _product(names):
    out = Poly.const(1)
    for name in names:
        out = out * Poly.var(name)
    return out


def test_monomial_binomial_squares_and_cancels():
    assert monomial_binomial(_monomial(["bx", "bx"]),
                             _monomial(["by", "bz"])) == \
        normalize_poly(parse_poly("bx^2 - by*bz"))
    assert monomial_binomial(_monomial(["bx", "by"]),
                             _monomial(["by", "bx"])).is_zero()

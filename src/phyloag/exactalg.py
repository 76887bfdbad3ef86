"""Exact arithmetic kernel: rationals, sparse multivariate polynomials and
dense rational/polynomial matrices with rank, nullspace, determinants and
minors.

Rat is fractions.Fraction.  A coefficient is an int when integral and a Rat
only when it has a denominator; the two compare, hash and print alike, and
int arithmetic is far cheaper.  Polynomials are stored sparsely as
{monomial: coefficient}; a monomial is the sorted tuple of its variable
names (see Poly), and terms print in graded-lexicographic order on variable
names; parse_poly reads that text back by one grammar.  There is no global
state, so the printed text of a polynomial depends only on the polynomial.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction as Rat
from math import gcd, lcm

__all__ = [
    "Rat", "rat", "residue", "Poly",
    "mat_rank_nullspace", "mat_det", "minors",
    "parse_poly", "normalize_poly",
]


def rat(num, den=1):
    """Exact rational from ints or a 'p/q' string; a malformed string, one
    with too many digits or a zero denominator raises ValueError quoting at
    most 40 characters of it."""
    if isinstance(num, str):
        shown = repr(num) if len(num) <= 40 else \
            f"{num[:40]!r}... ({len(num)} characters)"
        try:
            a, b = map(int, num.split("/")) if "/" in num else (int(num), 1)
        except ValueError as err:
            # int() refuses more digits than sys.get_int_max_str_digits()
            why = ("has too many digits for an integer"
                   if str(err).startswith("Exceeds the limit") else
                   "is not an integer or p/q")
            raise ValueError(f"{shown} {why}") from None
        if b == 0:
            raise ValueError(f"zero denominator in {shown}")
        return Rat(a, b)
    return Rat(num, den)


def residue(x, prime):
    """Residue of a rational (Rat or int) modulo a prime; raises ValueError
    when the prime divides the denominator."""
    return x.numerator * pow(x.denominator, -1, prime) % prime


def _coefficient(c):
    """A rational (Rat or int) as a coefficient: an int when integral."""
    return c.numerator if c.denominator == 1 else c


def _mono_sort_key(mono):
    # descending graded order; ties broken lexicographically on the sorted
    # names, so a larger power of a smaller name comes first
    return (-len(mono), mono)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    A monomial is the tuple of its variable names sorted by name (Python
    str order), each name repeated as often as its exponent: x^2*y is
    ("x", "x", "y") and the constant monomial is ().  Its degree is its
    length, and the product of two is tuple(sorted(m1 + m2)).  Zero
    coefficients are never stored.  Terms are ordered graded-lex on names,
    so equal polynomials print the same text in any process.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, c):
        c = _coefficient(Rat(c))
        return cls({(): c} if c != 0 else {})

    @classmethod
    def var(cls, name, exp=1):
        if exp < 0:
            raise ValueError("negative power")
        return cls({(name,) * exp: 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Rat)):
            return self.terms == ({(): other} if other != 0 else {})
        return NotImplemented

    def __hash__(self):
        # a polynomial equal to a number (no terms, or only a constant term)
        # hashes as that number; the length test keeps this O(1)
        if len(self.terms) < 2 and not any(self.terms):
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _coefficient(Rat(other))
            if c == 0:
                return Poly()
            return Poly({m: co * c for m, co in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                nc = out.get(m, 0) + c1 * c2
                if nc == 0:
                    out.pop(m, None)
                else:
                    out[m] = nc
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def degree(self):
        """Total degree (0 for constants, -1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(map(len, self.terms))

    def variables(self):
        """Variable names occurring in this polynomial."""
        return set().union(*self.terms)

    def num_terms(self):
        return len(self.terms)

    def coefficient(self, mono_names):
        """Coefficient of the monomial given as {name: exponent}."""
        m = tuple(sorted(n for n, e in mono_names.items() for _ in range(e)))
        return Rat(self.terms.get(m, 0))

    def eval(self, values):
        """The value where each variable takes its value in `values`, all in
        one ring: rationals (or ints) give a rational, Polys the expanded
        Poly.  A missing variable raises KeyError.  Each coefficient
        multiplies from the right, so a Rat never stands left of a Poly."""
        total = self.terms.get((), 0)
        for m, c in self.terms.items():
            if m:
                term = values[m[0]]
                for v in m[1:]:
                    term = term * values[v]
                total = term * c + total
        return total

    def eval_mod(self, assignment, prime):
        """Evaluation modulo a prime; assignment maps variable name ->
        residue in [0, prime).  The residues may be ints or int64 numpy
        arrays (one entry per point, all points at once): every product is
        reduced right away, so it stays below prime^2, which int64 holds for
        prime < 2^31.  Raises ValueError when the prime divides the
        denominator of a coefficient."""
        total = 0
        for m, c in self.terms.items():
            val = residue(c, prime)
            for v in m:
                if v not in assignment:
                    raise KeyError(f"unassigned variable {v!r}")
                val = val * assignment[v] % prime
            total = total + val
        return total % prime

    def derivative(self, name):
        # dropping one copy of the name maps distinct monomials to distinct
        # ones, so no two terms meet
        out = {}
        for m, c in self.terms.items():
            e = m.count(name)
            if e:
                i = m.index(name)
                out[m[:i] + m[i + 1:]] = c * e
        return Poly(out)

    def sorted_terms(self):
        """Terms in canonical (graded-lex, descending) order."""
        return sorted(self.terms.items(), key=lambda t: _mono_sort_key(t[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            num, den = c.numerator, c.denominator
            coeff = f"{num}" if den == 1 else f"{num}/{den}"
            factors.append(coeff.lstrip("-"))
            for v, run in itertools.groupby(m):
                e = len(list(run))
                factors.append(v if e == 1 else f"{v}^{e}")
            s = "*".join(factors)
            if not parts:
                parts.append(("-" if num < 0 else "") + s)
            else:
                parts.append(("- " if num < 0 else "+ ") + s)
        return " ".join(parts)

    __repr__ = __str__


_SIGN = re.compile(r"\s*([+-])\s*")
# a monomial holds a name once per unit of its degree, so parse_poly rejects
# a term of higher degree: every map and invariant here has far smaller
# degrees, and no text can then hold more than about 100 bytes per character
# (the 9 characters of 'a^50*b^50+' hold 100 names)
MAX_DEGREE = 100
_FACTOR = re.compile(r"\d+(?:/\d+)?|([A-Za-z_]\w*)(?:\^(\d+))?", re.ASCII)


def parse_poly(text):
    """Read polynomial text, such as Poly's own str, into a Poly.

    The text is an optional sign, then terms joined by '+' or '-'; a term is
    factors joined by '*'; a factor is an integer, a fraction p/q, or a name
    (a letter or '_', then letters, digits or '_') with an optional ^ and
    exponent.  Whitespace may stand around '+', '-' and '*' and at either
    end, nowhere else.  Anything else, a doubled or dangling sign included,
    raises ValueError naming the bad term, and so does a term of degree
    above MAX_DEGREE.
    """
    parts = _SIGN.split(text.strip())
    if len(parts) > 1 and not parts[0]:
        parts[0] = "0"   # a leading sign follows an implicit 0
    out = {}
    for sign, term in zip(["+"] + parts[1::2], parts[::2]):
        coeff = -1 if sign == "-" else 1
        names = []
        for factor in term.split("*"):
            match = _FACTOR.fullmatch(factor.strip())
            if match is None:
                raise ValueError(f"bad term {term!r} in {text!r}")
            name, exp = match.groups()
            if name is None:
                coeff *= rat(match[0])
                continue
            power = int(exp or 1)
            if len(names) + power > MAX_DEGREE:
                raise ValueError(f"term {term.strip()!r} has degree above "
                                 f"{MAX_DEGREE} in {text!r}")
            names += [name] * power
        mono = tuple(sorted(names))
        out[mono] = out.get(mono, 0) + coeff
    return Poly({m: _coefficient(c) for m, c in out.items() if c})


def normalize_poly(p):
    """Canonical representative: integer-cleared, content-free, leading term
    (canonical order) positive; its coefficients are ints."""
    if p.is_zero():
        return p
    den = lcm(*(c.denominator for c in p.terms.values()))
    ints = {m: c.numerator * (den // c.denominator)
            for m, c in p.terms.items()}
    g = gcd(*ints.values())
    if p.sorted_terms()[0][1] < 0:
        g = -g
    return Poly({m: c // g for m, c in ints.items()})


def monomial_binomial(ma, mb):
    """normalize_poly(x^ma - x^mb) for two monomials (sorted tuples of
    names, as in Poly), written directly as two terms (zero when the
    monomials are equal)."""
    if ma == mb:
        return Poly()
    # the content is 1, so normalize_poly only makes the leading term positive
    if _mono_sort_key(ma) < _mono_sort_key(mb):
        return Poly({ma: 1, mb: -1})
    return Poly({ma: -1, mb: 1})


# ---------------------------------------------------------------------------
# exact dense matrices


def _bareiss_echelon(rows):
    """Fraction-free (Bareiss) elimination on integer rows.

    Returns (echelon rows, pivot column list, sign of the row permutation).
    The input rows are left unchanged.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    piv_cols = []
    prev = 1
    sign = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], piv_cols, sign


def _clear_rows(mat):
    """Scale each rational row to integers; returns the integer rows and the
    product of the row multipliers."""
    out = []
    scale = 1
    for row in mat:
        row = [Rat(x) for x in row]
        mult = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def mat_rank_nullspace(mat):
    """Exact rank and nullspace basis of a rational matrix.

    Elimination is fraction-free on integer-cleared rows; the nullspace basis
    is exact with one vector per free column (rank + len(basis) == ncols).
    """
    if not mat or not mat[0]:
        return 0, []
    rows, _ = _clear_rows(mat)
    ech, piv_cols, _ = _bareiss_echelon(rows)
    rank = len(piv_cols)
    ncols = len(mat[0])
    pivots = set(piv_cols)
    free_cols = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fc in free_cols:
        v = [Rat(0)] * ncols
        v[fc] = Rat(1)
        # back substitution over the echelon rows
        for i in range(rank - 1, -1, -1):
            pc = piv_cols[i]
            s = Rat(0)
            for j in range(pc + 1, ncols):
                if v[j] != 0 and ech[i][j] != 0:
                    s += Rat(ech[i][j]) * v[j]
            v[pc] = -s / ech[i][pc]
        basis.append(v)
    return rank, basis


def mat_det(mat):
    """Exact determinant; Bareiss for rational entries, cofactor expansion for
    polynomial entries."""
    n = len(mat)
    if n == 0:
        return Rat(1)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    if isinstance(mat[0][0], Poly):
        return _det_cofactor(mat)
    rows, scale = _clear_rows(mat)
    ech, piv_cols, sign = _bareiss_echelon(rows)
    if len(piv_cols) < n:
        return Rat(0)
    # the last Bareiss pivot is the determinant of the row-swapped integer
    # matrix; undo the row scaling applied by _clear_rows
    return Rat(sign * ech[-1][-1], scale)


def _det_cofactor(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    det = Poly()
    rest = [row[1:] for row in mat]
    for i in range(n):
        minor_rows = [rest[r] for r in range(n) if r != i]
        term = mat[i][0] * _det_cofactor(minor_rows)
        det = det + (term if i % 2 == 0 else -term)
    return det


def minors(mat, t):
    """All t x t minors, lexicographic on (row tuple, column tuple)."""
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    if t < 0 or t > min(nrows, ncols):
        raise ValueError(f"minor size {t} out of range for {nrows}x{ncols}")
    out = []
    for rsel in itertools.combinations(range(nrows), t):
        for csel in itertools.combinations(range(ncols), t):
            sub = [[mat[r][c] for c in csel] for r in rsel]
            out.append(mat_det(sub))
    return out

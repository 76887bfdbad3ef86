"""Acceptance suite: one test per criterion, each ending in a single
printed PASS line (visible with -s; the -v test status gives the same
verdict).  Reference values are frozen literals; where a value could be
derived independently the oracle lives next to the assertion."""

import itertools
import random
import time

from phyloag import expand_map, make_model, parse_newick
from phyloag.exactalg import (Poly, Rat, mat_det, mat_rank_nullspace, minors,
                              normalize_poly, parse_poly)
from phyloag import fourier, invariants, paramap, pipeline, treecore

from conftest import brute_force_eval, random_params, random_rat, \
    stochastic_jc_params, support

T3 = "(1,(2,3));"
T4 = "((1,2),(3,4));"
T5 = "((1,2),(3,(4,5)));"


def _passed(num, text):
    print(f"CRITERION {num:2d} PASS: {text}")


def display_name(tree, index_string):
    """Coordinate name for an index written in drawing order."""
    order = treecore.display_edge_order(tree)
    ind = [0] * len(index_string)
    for pos, ch in enumerate(index_string):
        ind[order[pos]] = int(ch)
    return "q" + "".join(str(b) for b in ind)


def test_criterion_01_subforest_counts():
    start = time.monotonic()
    for nwk, want in [(T3, 5), (T4, 13), (T5, 34)]:
        tree = parse_newick(nwk)
        subs = treecore.enumerate_subforests(tree)
        assert len(subs) == want
        assert len(set(subs)) == want
    assert time.monotonic() - start < 1.0
    _passed(1, "subforest counts 5 / 13 / 34")


def test_criterion_02_three_leaf_map_and_homogeneous_restriction():
    start = time.monotonic()
    tree = parse_newick(T3)
    m = make_model(tree, "general-markov", root_mode="free", k=2)
    assert len(m.symbols) == 18
    jm = expand_map(m)
    for i, j, k in itertools.product(range(2), repeat=3):
        expected = Poly()
        for u in range(2):
            for v in range(2):
                expected = expected + (Poly.var(f"pi{u}")
                                       * Poly.var(f"a{u}{i}")
                                       * Poly.var(f"b{u}{v}")
                                       * Poly.var(f"c{v}{j}")
                                       * Poly.var(f"d{v}{k}"))
        flat = paramap.flat_index((i, j, k), 2)
        got = jm.coordinate(flat)
        assert got == expected and got.num_terms() == 4
    assert paramap.degree_profile(jm) == 5

    # tying all four matrices gives these eight reference polynomials
    mh = make_model(tree, "homogeneous", root_mode="free", k=2,
                    homogeneous_base="general-markov")
    jh = expand_map(mh)
    reference = [
        "pi0*a00^4 + pi0*a00*a01*a10^2 + pi1*a10^2*a00^2 + pi1*a10^3*a11",
        "pi0*a00^3*a01 + pi0*a00*a01*a10*a11 + pi1*a10^2*a00*a01"
        " + pi1*a10^2*a11^2",
        "pi0*a00^3*a01 + pi0*a00*a01*a10*a11 + pi1*a10^2*a00*a01"
        " + pi1*a10^2*a11^2",
        "pi0*a00^2*a01^2 + pi0*a00*a01*a11^2 + pi1*a10^2*a01^2"
        " + pi1*a10*a11^3",
        "pi0*a00^3*a01 + pi0*a01^2*a10^2 + pi1*a11*a10*a00^2"
        " + pi1*a10^2*a11^2",
        "pi0*a00^2*a01^2 + pi0*a01^2*a10*a11 + pi1*a11*a10*a00*a01"
        " + pi1*a10*a11^3",
        "pi0*a00^2*a01^2 + pi0*a01^2*a10*a11 + pi1*a11*a10*a00*a01"
        " + pi1*a10*a11^3",
        "pi0*a01^3*a00 + pi0*a01^2*a11^2 + pi1*a11*a10*a01^2 + pi1*a11^4",
    ]
    for i, text in enumerate(reference):
        assert jh.coordinate(i) == parse_poly(text), f"coordinate {i}"

    # coordinates named h0..h7 by flat index: 001=h1, 010=h2 and so on
    relations = invariants.interpolate_vanishing_forms(
        [(f"h{i}", jh.coordinate(i)) for i in range(8)], 1)
    assert len(relations) == 2
    got = {str(normalize_poly(f)) for f in relations}
    want = {str(normalize_poly(parse_poly("h1 - h2"))),
            str(normalize_poly(parse_poly("h5 - h6")))}
    assert got == want
    assert time.monotonic() - start < 5.0
    _passed(2, "4-term map, degree 5, reference homogeneous coordinates, "
               "2 linear relations")


def test_criterion_03_operation_counts():
    tree = parse_newick(T3)
    mh = make_model(tree, "homogeneous", root_mode="free", k=2,
                    homogeneous_base="general-markov")
    jh = expand_map(mh)
    mul, add = jh.circuit.op_counts(jh.circuit.outputs[0])
    assert (mul, add) == (10, 3)
    emul, eadd = paramap.expanded_op_count(jh.coordinate(0))
    assert (emul, eadd) == (16, 3)
    _passed(3, "sum-product 10/3 vs expanded 16/3")


ACCUMULATED_REFERENCE = {
    "p123": "e0*c0*d0 + 3*e1*c1*d1",
    "p12": "3*e0*c0*d1 + 3*e1*c1*d0 + 6*e1*c1*d1",
    "p13": "3*e0*c1*d0 + 3*e1*c0*d1 + 6*e1*c1*d1",
    "p23": "3*e1*c0*d0 + 3*e0*c1*d1 + 6*e1*c1*d1",
    "pdis": "6*e1*c1*d0 + 6*e1*c0*d1 + 6*e0*c1*d1 + 6*e1*c1*d1",
}
CLASS_NAMES = ["p123", "p12", "p13", "p23", "pdis"]


def _accumulated_jc3():
    jm = expand_map(make_model(parse_newick(T3), "jc-dna"))
    classes = paramap.symmetry_classes(jm)
    return jm, classes, paramap.accumulate_classes(jm, classes)


def test_criterion_04_jc3_classes_and_accumulated():
    start = time.monotonic()
    jm, classes, acc = _accumulated_jc3()
    assert [len(c) for c in classes] == [4, 12, 12, 12, 24]
    esub = {"e0": parse_poly("a0*b0 + 3*a1*b1"),
            "e1": parse_poly("a0*b1 + a1*b0 + 2*a1*b1")}
    for name, poly in zip(CLASS_NAMES, acc):
        expected = parse_poly(ACCUMULATED_REFERENCE[name]).eval(
            dict(esub, c0=Poly.var("c0"), c1=Poly.var("c1"),
                 d0=Poly.var("d0"), d1=Poly.var("d1")))
        assert poly == expected, name
    assert time.monotonic() - start < 10.0
    _passed(4, "classes 4/12/12/12/24 and accumulated coordinates match")


def test_criterion_05_interpolated_invariants():
    start = time.monotonic()
    _, _, acc = _accumulated_jc3()
    cubics = invariants.interpolate_vanishing_forms(
        list(zip(CLASS_NAMES, acc)), 3)
    assert len(cubics) == 1
    assert cubics[0].num_terms() == 19

    tree = parse_newick(T3)
    mh = make_model(tree, "homogeneous", root_mode="free", k=2,
                    homogeneous_base="general-markov")
    jh = expand_map(mh)
    distinct = [(f"h{c[0]}", jh.coordinate(c[0]))
                for c in paramap.symmetry_classes(jh)]
    assert len(distinct) == 6
    forms = invariants.interpolate_vanishing_forms(distinct, 8)
    assert len(forms) == 1
    assert forms[0].num_terms() == 70
    assert forms[0].degree() == 8
    assert time.monotonic() - start < 1800
    _passed(5, "degree-3 form with 19 terms, degree-8 form with 70 terms, "
               "both nullspaces 1-dimensional")


def test_criterion_06_fourier_diagonalization():
    start = time.monotonic()
    tree = parse_newick(T3)
    m = make_model(tree, "jc-dna")
    jm = expand_map(m)
    q = fourier.transform_tensor(jm.coordinates(), fourier.Z2xZ2, 3)

    def factored(indicator):
        out = Poly.const(1)
        for letter, bit in zip("abcd", indicator):
            if bit:
                out = out * (Poly.var(f"{letter}0") - Poly.var(f"{letter}1"))
            else:
                out = out * (Poly.var(f"{letter}0")
                             + 3 * Poly.var(f"{letter}1"))
        return out

    allowed = set(treecore.enumerate_subforests(tree))
    supports = set()
    for i, poly in enumerate(q):
        states = paramap.pattern_of_flat(i, 3, 4)
        labels = fourier.leaf_to_edge_labels(tree, states, fourier.Z2xZ2)
        if labels is None:
            assert poly.is_zero()
            continue
        if not poly.is_zero():
            assert support(labels) in allowed
            assert poly == factored(support(labels))
            supports.add(support(labels))
    assert supports == allowed and len(supports) == 5

    # reference combinations of the accumulated coordinates, drawing order
    _, classes, _ = _accumulated_jc3()
    reference = {
        "0000": [1, 1, 1, 1, 1],
        "0011": [1, Rat(-1, 3), Rat(-1, 3), 1, Rat(-1, 3)],
        "1101": [1, Rat(-1, 3), 1, Rat(-1, 3), Rat(-1, 3)],
        "1110": [1, 1, Rat(-1, 3), Rat(-1, 3), Rat(-1, 3)],
        "1111": [1, Rat(-1, 3), Rat(-1, 3), Rat(-1, 3), Rat(1, 3)],
    }
    for index, coeffs in reference.items():
        sf = tuple(int(c) for c in index)
        got = fourier.accumulated_combination(tree, sf, classes,
                                              fourier.Z2xZ2)
        assert got == [Rat(c) for c in coeffs], index

    mm = fourier.monomial_map(m)
    cubic = parse_poly("q0011*q1110*q1101 - q0000*q1111^2")
    assert cubic.eval(mm.coords()).is_zero()
    assert time.monotonic() - start < 10.0
    _passed(6, "transformed tensor supported on the 5 subforest indices "
               "with factored values; cubic binomial vanishes")


M0_INDEX = [["000000", "000011"], ["110000", "110011"]]
M1_INDEX = [["101110", "101101", "101111"],
            ["011110", "011101", "011111"],
            ["111110", "111101", "111111"]]


def test_criterion_07_jc4_invariants():
    start = time.monotonic()
    tree = parse_newick(T4)
    mm = fourier.monomial_map(make_model(tree, "jc-dna"))
    subforests = {"".join(map(str, sf)) for sf in mm.coord_keys}

    def mat(index_rows):
        return [[Poly.var(display_name(tree, s)) for s in row]
                for row in index_rows]

    reference_minors = set()
    for M in (mat(M0_INDEX), mat(M1_INDEX)):
        for f in minors(M, 2):
            f = normalize_poly(f)
            if not f.is_zero():
                reference_minors.add(frozenset(f.terms.items()))
    found = {frozenset(f.terms.items())
             for f in fourier.binomials_up_to_degree(mm, 2)}
    assert found == reference_minors and len(found) == 10

    # the two cubic families, over all valid subforest index choices
    def dname(s):
        nm = display_name(tree, s)
        return nm if nm[1:] in subforests else None

    cubics = {frozenset(f.terms.items())
              for f in fourier.binomials_up_to_degree(mm, 3)
              if f.degree() == 3}
    family_hits = 0
    pairs = ["00", "11", "10", "01"]
    for jk, lm, no in itertools.product(pairs, repeat=3):
        for terms in (
                ["0000" + jk, "1111" + lm, "1111" + no,
                 "1100" + jk, "1011" + lm, "0111" + no],
                [jk + "0000", lm + "1111", no + "1111",
                 jk + "0011", lm + "1101", no + "1110"]):
            names = [dname(s) for s in terms]
            if not all(names):
                continue
            form = normalize_poly(parse_poly(
                f"{names[0]}*{names[1]}*{names[2]}"
                f" - {names[3]}*{names[4]}*{names[5]}"))
            if form.is_zero() or form.degree() != 3:
                continue
            assert frozenset(form.terms.items()) in cubics
            family_hits += 1
    assert family_hits > 0

    # det M1 vanishes on the 2-component mixture but not the pure model count
    mix = fourier.mixture_monomial_coords(
        [fourier.monomial_map(make_model(tree, "jc-dna", prefix=p))
         for p in ("x0", "x1")])
    det = mat_det(mat(M1_INDEX))
    rng = random.Random(2024)
    syms = sorted(set().union(*[p.variables() for p in mix.values()]))
    for _ in range(25):
        pt = {s: random_rat(rng) for s in syms}
        values = {nm: p.eval(pt) for nm, p in mix.items()}
        assert det.eval(values) == 0
    assert time.monotonic() - start < 120
    _passed(7, "degree-2 binomials equal the reference 2x2 minors; cubic "
               "families present; det M1 vanishes on the 2-mixture")


def test_criterion_08_jacobian_dimensions():
    start = time.monotonic()
    cases = [
        (T3, "jc-dna", "uniform", None, 1, 3),
        (T4, "jc-dna", "uniform", None, 1, 5),
        (T5, "jc-dna", "uniform", None, 1, 7),
        (T4, "jc-dna", "uniform", None, 2, 11),
        ("(1,2,3,4);", "general-markov", "free", 2, 1, 9),
    ]
    for nwk, kind, root, k, mcount, want in cases:
        tree = parse_newick(nwk)
        jm = invariants.make_mixture(tree, kind, mcount, root_mode=root, k=k)
        _, dim = invariants.jacobian_dimension(jm)
        assert dim == want, (nwk, kind, mcount)
    assert time.monotonic() - start < 300
    _passed(8, "projective dimensions 3 / 5 / 7 / 11 / 9")


FLAT_12_34 = [
    ["p0000", "p0001", "p0010", "p0011"],
    ["p0100", "p0101", "p0110", "p0111"],
    ["p1000", "p1001", "p1010", "p1011"],
    ["p1100", "p1101", "p1110", "p1111"]]
FLAT_13_24 = [
    ["p0000", "p0001", "p0100", "p0101"],
    ["p0010", "p0011", "p0110", "p0111"],
    ["p1000", "p1001", "p1100", "p1101"],
    ["p1010", "p1011", "p1110", "p1111"]]
FLAT_14_23 = [
    ["p0000", "p0010", "p0100", "p0110"],
    ["p0001", "p0011", "p0101", "p0111"],
    ["p1000", "p1010", "p1100", "p1110"],
    ["p1001", "p1011", "p1101", "p1111"]]


def test_criterion_09_flattenings_and_hankel():
    start = time.monotonic()
    tensor = invariants.symbolic_tensor(4, 2)
    leaves = ["1", "2", "3", "4"]
    for split, reference in [((("1", "2"), ("3", "4")), FLAT_12_34),
                          ((("1", "3"), ("2", "4")), FLAT_13_24),
                          ((("1", "4"), ("2", "3")), FLAT_14_23)]:
        mat = invariants.flatten(tensor, leaves, split, k=2)
        for row, lrow in zip(mat, reference):
            for entry, name in zip(row, lrow):
                assert entry == Poly.var(name)

    rng = random.Random(99)

    def rank1():
        vecs = [[random_rat(rng) for _ in range(2)] for _ in range(4)]
        return [vecs[0][a] * vecs[1][b] * vecs[2][c] * vecs[3][d]
                for a, b, c, d in itertools.product(range(2), repeat=4)]

    segre = rank1()
    secant = [x + y for x, y in zip(rank1(), rank1())]
    for split in [(("1", "2"), ("3", "4")), (("1", "3"), ("2", "4")),
                  (("1", "4"), ("2", "3"))]:
        m1 = invariants.flatten(segre, leaves, split, k=2)
        m2 = invariants.flatten(secant, leaves, split, k=2)
        assert mat_rank_nullspace(m1)[0] == 1
        assert mat_rank_nullspace(m2)[0] == 2
        assert all(v == 0 for v in minors(m2, 3))

    # diagonal specialization of every flattening collapses to the same
    # 3x3 symmetric matrix
    diag = {f"p{a}{b}{c}{d}": Poly.var(f"p{a + b + c + d}")
            for a, b, c, d in itertools.product(range(2), repeat=4)}
    for reference in (FLAT_12_34, FLAT_13_24, FLAT_14_23):
        spec = [[Poly.var(nm).eval(diag) for nm in row]
                for row in reference]
        small = invariants.dedup_matrix(spec)
        assert [[str(x) for x in row] for row in small] == \
            [[str(x) for x in row] for row in invariants.hankel_matrix()]
    det = mat_det(invariants.hankel_matrix())
    want = parse_poly("p0*p2*p4 - p0*p3^2 - p1^2*p4 + 2*p1*p2*p3 - p2^3")
    assert det == want
    assert time.monotonic() - start < 60
    _passed(9, "three reference flattenings, ranks 1 and 2, vanishing 3x3 "
               "minors, Hankel specialization and its cubic")


JC5_MATRICES = [
    [["11001111", "11000011", "11001110", "11001101", "11000000"],
     ["00001111", "00000011", "00001110", "00001101", "00000000"]],
    [["10111000", "10110101", "10110110", "10111011",
      "10110111", "10111101", "10111110", "10111111"],
     ["11111000", "11110101", "11110110", "11111011",
      "11110111", "11111101", "11111110", "11111111"],
     ["01111000", "01110101", "01110110", "01111011",
      "01110111", "01111101", "01111110", "01111111"]],
    [["11111000", "11000000", "01111000", "10111000", "00000000"],
     ["11111011", "11000011", "01111011", "10111011", "00000011"]],
    [["00001101", "10110101", "01110101", "11001101",
      "11110101", "10111101", "01111101", "11111101"],
     ["00001111", "10110111", "01110111", "11001111",
      "11110111", "10111111", "01111111", "11111111"],
     ["00001110", "10110110", "01110110", "11001110",
      "11110110", "10111110", "01111110", "11111110"]],
]


def test_criterion_10_jc5_determinantal_closure():
    start = time.monotonic()
    tree = parse_newick(T5)
    mm = fourier.monomial_map(make_model(tree, "jc-dna"))
    subforests = {"".join(map(str, sf)) for sf in mm.coord_keys}
    coords = mm.coords()
    rng = random.Random(55)
    syms = sorted(set().union(*[p.variables() for p in coords.values()]))
    points = [{s: random_rat(rng) for s in syms} for _ in range(25)]
    values = [{nm: p.eval(pt) for nm, p in coords.items()} for pt in points]
    for mat_index in JC5_MATRICES:
        mat = []
        for row in mat_index:
            prow = []
            for s in row:
                nm = display_name(tree, s)
                assert nm[1:] in subforests, s
                prow.append(Poly.var(nm))
            mat.append(prow)
        for f in minors(mat, 2):
            for vals in values:
                assert f.eval(vals) == 0
    assert time.monotonic() - start < 300
    _passed(10, "2x2 minors of the four closure matrices vanish at 25 "
                "random exact points")


def test_criterion_11_pipeline():
    start = time.monotonic()
    # circuit equals the direct hidden-state sum on every small k=2 shape
    shapes = ["(1);", "(1,2);", "(1,(2,3));", "(1,2,3);",
              "((1,2),(3,4));", "(1,(2,(3,4)));", "((1,2,3),4);",
              "(1,2,3,4);"]
    for nwk in shapes:
        tree = parse_newick(nwk)
        m = make_model(tree, "general-markov", root_mode="free", k=2)
        jm = expand_map(m)
        params = random_params(m.symbols, len(nwk))
        vec = jm.circuit.eval(params)
        for i, states in enumerate(itertools.product(range(2),
                                                     repeat=tree.num_leaves)):
            assert vec[i] == brute_force_eval(m, params, states)

    tree = parse_newick(T4)
    model = make_model(tree, "jc-dna")
    jmap = expand_map(model)
    params = stochastic_jc_params(tree, 4, denom_base=80)
    probs = pipeline.exact_distribution(jmap, params)
    assert sum(probs, Rat(0)) == 1

    aln = pipeline.sample_alignment(jmap, params, 100000, seed=42)
    emp = pipeline.empirical_tensor(aln, model)
    assert pipeline.total_variation(probs, emp) <= 0.01

    winner, scores, decisive = pipeline.infer_quartet(
        probs, ["1", "2", "3", "4"], 4, 4)
    assert winner == "(12)(34)" and decisive
    assert scores["(12)(34)"] == 0.0

    aln_small = pipeline.sample_alignment(jmap, params, 10000, seed=3)
    emp_small = pipeline.empirical_tensor(aln_small, model)
    winner2, _, decisive2 = pipeline.infer_quartet(
        emp_small, ["1", "2", "3", "4"], 4, 4)
    assert winner2 == "(12)(34)" and decisive2
    assert time.monotonic() - start < 600
    _passed(11, "exact distribution, oracle equality, TV <= 0.01 at 1e5, "
                "split recovery exact and sampled")

import hashlib
import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from phyloag import expand_map, make_model, parse_newick
from phyloag.exactalg import Poly, Rat
from phyloag import fourier, paramap, treecore

from conftest import (draw_newick, fresh_process_env, is_subforest,
                      lex_scan_leaf_labeling, poly_product_binomials,
                      poly_product_monomial_map, random_params, random_rat,
                      stride_transform, support, support_classes)


def test_characters_are_plus_minus_one():
    for k in (fourier.Z2, fourier.Z2xZ2):
        for g in range(k):
            for h in range(k):
                assert fourier.char(g, h) in (-1, 1)
                assert fourier.char(g, h) == fourier.char(h, g)
        # characters of the identity are trivial
        assert all(fourier.char(0, h) == 1 for h in range(k))


@pytest.mark.parametrize("group, m", [(fourier.Z2, 1), (fourier.Z2xZ2, 2)],
                         ids=["Z2", "Z2xZ2"])
def test_bitwise_group_operations_match_bit_tuples(group, m):
    # the definitions on bit tuples that the index arithmetic replaces:
    # Z2^m's elements in binary order, so element i's bit tuple is i in
    # binary, and the group sum is XOR of the indices
    elems = list(itertools.product((0, 1), repeat=m))
    assert group == len(elems)
    for g, h in itertools.product(range(group), repeat=2):
        bits = sum(a & b for a, b in zip(elems[g], elems[h]))
        assert fourier.char(g, h) == (1 if bits % 2 == 0 else -1)
        s = tuple(a ^ b for a, b in zip(elems[g], elems[h]))
        assert g ^ h == elems.index(s)


@given(st.lists(st.integers(-20, 20), min_size=8, max_size=8))
@settings(max_examples=30)
def test_transform_inverse_roundtrip_z2(vals):
    p = [Rat(v) for v in vals]
    q = fourier.transform_tensor(p, fourier.Z2, 3)
    back = fourier.inverse_transform(q, fourier.Z2, 3)
    assert back == p


def test_transform_inverse_roundtrip_z2z2():
    rng = random.Random(2)
    p = [random_rat(rng) for _ in range(16)]
    q = fourier.transform_tensor(p, fourier.Z2xZ2, 2)
    assert fourier.inverse_transform(q, fourier.Z2xZ2, 2) == p


def test_transform_needs_a_power_of_two():
    # the characters are those of Z2^m: Z3's transform would not invert
    with pytest.raises(ValueError, match="k = 3 is not a power of two"):
        fourier.transform_tensor([Rat(1)] * 9, 3, 2)
    with pytest.raises(ValueError, match="k = 3"):
        fourier.inverse_transform([Rat(1)] * 9, 3, 2)
    rng = random.Random(3)
    p = [random_rat(rng) for _ in range(64)]
    q = fourier.transform_tensor(p, 8, 2)
    assert fourier.inverse_transform(q, 8, 2) == p


@pytest.mark.parametrize("k, n, entry", [
    (1, 3, "rat"), (8, 2, "rat"), (4, 2, "poly"), (2, 4, "poly")])
def test_butterfly_bit_order_is_the_character_order(k, n, entry):
    # the butterfly runs over bit axes; the oracle sums chi_g(s) over whole
    # states, so equal outputs pin state i to the binary digits of i
    rng = random.Random(k * 10 + n)
    p = ([random_rat(rng) for _ in range(k ** n)] if entry == "rat"
         else [Poly.var(f"p{i}") for i in range(k ** n)])
    assert fourier.transform_tensor(p, k, n) == stride_transform(p, k, n)


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        fourier.transform_tensor([Rat(1)] * 7, fourier.Z2, 3)


def test_leaf_to_edge_labels(tree3):
    g = fourier.Z2
    # zero-sum labelings map to subforest indicators
    assert fourier.leaf_to_edge_labels(tree3, (1, 0, 1), g) == (1, 1, 0, 1)
    assert fourier.leaf_to_edge_labels(tree3, (1, 0, 0), g) is None


def test_transformed_tensor_supported_on_subforests(tree3):
    m = make_model(tree3, "jc-dna")
    jm = expand_map(m)
    q = fourier.transform_tensor(jm.coordinates(), fourier.Z2xZ2, 3)
    allowed = set(treecore.enumerate_subforests(tree3))
    for i, poly in enumerate(q):
        states = paramap.pattern_of_flat(i, 3, 4)
        labels = fourier.leaf_to_edge_labels(tree3, states, fourier.Z2xZ2)
        if labels is None:
            assert poly.is_zero()
        elif not poly.is_zero():
            assert support(labels) in allowed


def test_transformed_tensor_factors(tree3):
    """Every nonzero transformed coordinate equals the matching monomial in
    the transformed edge parameters."""
    m = make_model(tree3, "jc-dna")
    jm = expand_map(m)
    q = fourier.transform_tensor(jm.coordinates(), fourier.Z2xZ2, 3)
    mm = fourier.monomial_map(m)
    tp = fourier.transform_params(m)
    by_ind = dict(zip(mm.coord_keys, mm.monomials))
    checked = 0
    for i, poly in enumerate(q):
        if poly.is_zero():
            continue
        states = paramap.pattern_of_flat(i, 3, 4)
        labels = fourier.leaf_to_edge_labels(tree3, states, fourier.Z2xZ2)
        assert (by_ind[support(labels)].eval(tp) - poly).is_zero()
        checked += 1
    assert checked == 16


@pytest.mark.parametrize("newick", ["(1,(2,3));", "((1,2),(3,4));",
                                    "((1,2),3,4);"])
@pytest.mark.parametrize("kind", ["jc-binary", "jc-dna", "kimura2",
                                  "kimura3"])
def test_transformed_joint_map_is_the_monomial_map(newick, kind):
    """Ground truth for the monomial map: the character transform of the
    joint map, at a random rational point (the symbolic transform of the
    kimura3 quartet takes half a minute).  Each nonzero entry is its
    coordinate's monomial under transform_params, and the map lists exactly
    the coordinates that occur."""
    model = make_model(parse_newick(newick), kind)
    tree, k, n = model.tree, model.k, model.tree.num_leaves
    mm = fourier.monomial_map(model)
    point = random_params(model.symbols, seed=len(newick))
    u = {s: form.eval(point)
         for s, form in fourier.transform_params(model).items()}
    q = fourier.transform_tensor(
        [p.eval(point) for p in expand_map(model).coordinates()], k, n)
    values = {name: mono.eval(u)
              for name, mono in zip(mm.coord_names, mm.monomials)}
    realized = set()
    for i, value in enumerate(q):
        if value == 0:
            continue
        labels = fourier.leaf_to_edge_labels(
            tree, paramap.pattern_of_flat(i, n, k), k)
        assert labels is not None
        name = "q" + "".join(map(str, support(labels)
                                 if fourier.jc_reduced(model) else labels))
        assert values[name] == value, name
        realized.add(name)
    assert realized == set(mm.coord_names)


def test_transform_params_jc(tree3):
    m = make_model(tree3, "jc-dna")
    tp = fourier.transform_params(m)
    assert tp["ua0"] == Poly.var("a0") + 3 * Poly.var("a1")
    assert tp["ua1"] == Poly.var("a0") - Poly.var("a1")


def test_transform_params_kimura(tree3):
    m = make_model(tree3, "kimura3")
    tp = fourier.transform_params(m)
    a = [Poly.var(f"a{i}") for i in range(4)]
    # characters pair with the second bit first: element order A, C, G, T
    assert tp["ua0"] == a[0] + a[1] + a[2] + a[3]
    assert tp["ua1"] == a[0] - a[1] + a[2] - a[3]
    assert tp["ua2"] == a[0] + a[1] - a[2] - a[3]
    assert tp["ua3"] == a[0] - a[1] - a[2] + a[3]


def test_monomial_map_counts():
    # jc-dna: one coordinate per subforest; jc-binary: one per zero-sum
    # leaf labeling, 2^(n-1)
    for newick, kind, coords in [("((1,2),(3,4));", "jc-dna", 13),
                                 ("((1,2),(3,4));", "jc-binary", 8),
                                 ("((1,2),(3,(4,5)));", "jc-binary", 16)]:
        tree = parse_newick(newick)
        mm = fourier.monomial_map(make_model(tree, kind))
        assert len(mm.coord_names) == coords
        assert len(mm.symbols) == 2 * tree.num_edges
        assert mm.coord_names[0] == "q" + "0" * tree.num_edges
        # each monomial has degree E
        assert all(p.degree() == tree.num_edges for p in mm.monomials)


def test_monomial_map_requires_uniform_root(tree3):
    m = make_model(tree3, "jc-binary", root_mode="free")
    with pytest.raises(ValueError):
        fourier.monomial_map(m)


def test_monomial_map_requires_hidden_internal_nodes(tree3):
    m = make_model(tree3, "jc-binary", no_hidden=True)
    with pytest.raises(ValueError, match="hidden internal nodes"):
        fourier.monomial_map(m)


def test_exponent_matrix_shape(tree4):
    mm = fourier.monomial_map(make_model(tree4, "jc-dna"))
    assert len(mm.exponent_matrix) == len(mm.symbols)
    for col in range(len(mm.coord_names)):
        assert sum(row[col] for row in mm.exponent_matrix) == 6
    csv_text = fourier.exponent_matrix_csv(mm)
    lines = csv_text.strip().split("\n")
    assert len(lines) == len(mm.symbols) + 1
    assert lines[0].startswith(",q000000,")


def test_binomials_vanish_on_monomial_map(tree4):
    mm = fourier.monomial_map(make_model(tree4, "jc-dna"))
    coords = mm.coords()
    for form in fourier.binomials_up_to_degree(mm, 3):
        assert form.eval(coords).is_zero()


def test_binomials_degree2_match_flattening_minors(tree4):
    """Two independent routes to the quadratic invariants must agree: the
    exponent-lattice search and the 2x2 minors of the edge coordinate
    matrices."""
    mm = fourier.monomial_map(make_model(tree4, "jc-dna"))
    route_a = {frozenset(f.terms.items())
               for f in fourier.binomials_up_to_degree(mm, 2)}
    route_b = {frozenset(f.terms.items())
               for f in fourier.flattening_minors(tree4)}
    assert route_a == route_b


def test_flattening_minors_5_leaf(tree5):
    mm = fourier.monomial_map(make_model(tree5, "jc-dna"))
    coords = mm.coords()
    forms = fourier.flattening_minors(tree5)
    assert forms
    for f in forms:
        assert f.eval(coords).is_zero()


def test_support_classes_equal_subforests(tree4):
    got = support_classes(tree4, fourier.Z2xZ2)
    want = set(treecore.enumerate_subforests(tree4))
    assert got == want


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_fourier_flattening_is_the_subforests_with_bit_h(data):
    tree = parse_newick(draw_newick(data.draw, 3, 6))
    E = tree.num_edges
    brute = [ind for ind in itertools.product((0, 1), repeat=E)
             if is_subforest(tree, [e for e in range(E) if ind[e]])]

    parent = {c: p for p, c in tree.edges}

    def under(v, top):
        while v != top and v in parent:
            v = parent[v]
        return v == top

    for edge in range(E):
        child = tree.edges[edge][1]
        below = [e for e in range(E) if e != edge
                 and under(tree.edges[e][0], child)]
        above = [e for e in range(E) if e != edge and e not in below]
        for h in (0, 1):
            rows, cols, matrix = fourier.fourier_flattening(tree, edge, h)
            assert all(list(r) == below for r in rows)
            assert all(list(c) == above for c in cols)
            assert [tuple(r.values()) for r in rows] == \
                sorted({tuple(r.values()) for r in rows})
            assert len(matrix) == len(rows)
            for r, line in zip(rows, matrix):
                assert len(line) == len(cols)
                for c, sf in zip(cols, line):
                    assert all(sf[e] == b for e, b in {**r, **c}.items())
            cells = sorted(sf for line in matrix for sf in line)
            assert cells == [ind for ind in brute if ind[edge] == h]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_subforest_leaf_labeling_is_the_first_in_lex_order(data):
    tree = parse_newick(draw_newick(data.draw, 3, 6))
    group = data.draw(st.sampled_from([fourier.Z2, fourier.Z2xZ2]))
    subforests = treecore.enumerate_subforests(tree)
    for sf in data.draw(st.lists(st.sampled_from(subforests), min_size=1,
                                 max_size=3)):
        want = lex_scan_leaf_labeling(tree, sf, group)
        if want is None:
            with pytest.raises(ValueError):
                fourier.subforest_leaf_labeling(tree, sf, group)
        else:
            assert fourier.subforest_leaf_labeling(tree, sf, group) == want


def test_accumulated_combination_q0011(tree3):
    """Transformed coordinates as combinations of the accumulated class
    coordinates: q for the cherry path has the expected 1, -1/3 pattern."""
    m = make_model(tree3, "jc-dna")
    jm = expand_map(m)
    classes = paramap.symmetry_classes(jm)
    coeffs = fourier.accumulated_combination(tree3, (0, 0, 1, 1), classes,
                                             fourier.Z2xZ2)
    # class order: p123, p12, p13, p23, pdis
    assert coeffs == [Rat(1), Rat(-1, 3), Rat(-1, 3), Rat(1), Rat(-1, 3)]
    assert fourier.accumulated_combination(tree3, (0, 0, 0, 0), classes,
                                           fourier.Z2xZ2) == [Rat(1)] * 5


def test_mixture_monomial_coords(tree3, tree4):
    maps = [fourier.monomial_map(make_model(tree4, "jc-dna", prefix=p))
            for p in ("x0", "x1")]
    coords = fourier.mixture_monomial_coords(maps)
    assert set(coords) == set(maps[0].coord_names)
    some = coords["q000000"]
    assert some.num_terms() == 2
    assert {"s0", "s1"} <= some.variables()
    other = fourier.monomial_map(make_model(tree3, "jc-dna", prefix="x1"))
    with pytest.raises(ValueError, match="index different coordinates"):
        fourier.mixture_monomial_coords([maps[0], other])
    # the same 13 names, but each indexes another leaf coordinate
    swapped = fourier.monomial_map(make_model(
        treecore.parse_newick("((1,3),(2,4));"), "jc-dna", prefix="x1"))
    assert set(swapped.coord_names) == set(maps[0].coord_names)
    with pytest.raises(ValueError, match="index different coordinates"):
        fourier.mixture_monomial_coords([maps[0], swapped])
    with pytest.raises(ValueError, match="at least one model"):
        fourier.mixture_monomial_coords([])


@st.composite
def group_based_models(draw):
    """A random tree with 3-6 leaves (root of degree 2 or 3) and a
    group-based model kind."""
    nwk = draw_newick(draw, 3, 6)
    kind = draw(st.sampled_from(["jc-binary", "jc-dna", "kimura2",
                                 "kimura3"]))
    return make_model(treecore.parse_newick(nwk), kind)


@given(group_based_models())
@settings(max_examples=20, deadline=None)
def test_monomial_map_and_binomials_match_poly_products(model):
    mm = fourier.monomial_map(model)
    want = poly_product_monomial_map(model)
    assert mm.coord_keys == want.coord_keys
    assert mm.coord_names == want.coord_names
    assert mm.symbols == want.symbols
    assert mm.exponent_matrix == want.exponent_matrix
    assert mm.monomials == want.monomials
    if model.tree.num_leaves > 5:
        return
    # the highest degree up to 3 whose multisets the oracle can hash in
    # well under a second (kimura models on 4-5 leaves stop below 3)
    ncoords = len(mm.coord_names)
    degree = max(d for d in (1, 2, 3) if math.comb(ncoords + d - 1, d) <= 8000)
    got = fourier.binomials_up_to_degree(mm, degree)
    expected = poly_product_binomials(want, degree)
    assert got == expected
    assert [str(f) for f in got] == [str(f) for f in expected]


@pytest.mark.parametrize("kind", ["jc-dna", "kimura3"])
def test_no_binomials_of_degree_one(tree5, kind):
    # distinct coordinates have distinct exponent-matrix columns
    mm = fourier.monomial_map(make_model(tree5, kind))
    assert fourier.binomials_up_to_degree(mm, 1) == []


def test_kimura2_cubic_binomials_match_poly_products(tree4):
    mm = fourier.monomial_map(make_model(tree4, "kimura2"))
    got = fourier.binomials_up_to_degree(mm, 3)
    expected = poly_product_binomials(mm, 3)
    assert [str(f) for f in got] == [str(f) for f in expected]
    assert got == expected


T8 = "(((1,2),(3,4)),((5,6),(7,8)));"


def test_flattening_minors_are_pinned():
    # SHA-256 of the forms' text, one a line, in the order they come out
    forms = fourier.flattening_minors(parse_newick(T8))
    assert len(forms) == 169958
    text = "".join(f"{f}\n" for f in forms)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ca1395412154e2bd2400e891a9e3f6dd9de7675e480bf39e94ded2abe66eb040"


# SHA-256 of the stdout of `phylo-ag fourier`; terms print in graded-lex
# order on variable names
_FOURIER_STDOUT = [
    ("((1,2),(3,(4,5)));", "jc-dna", ["--binomials", "3"],
     "05fa7cdfbf8b640625febde736877ca897e05a253294f8a7ce7fb41a7afe1d1f"),
    ("((1,2),(3,(4,5)));", "jc-dna", ["--map"],
     "ec052c73d434cd23cd4b4d912b9ee5c72895d1d0f41ce4a4fe37ab7ce12cb619"),
    ("((1,2),(3,(4,5)));", "jc-dna", [],
     "4259f2bd866673411adde856fd1de0d1bb486d2e54ead61f1c60fd966f71840c"),
    ("((1,2),(3,4));", "kimura3", [],
     "c371806ee27b3bd6c324c77e9da60262f5a49ed49990a52695b18ec490eaa9f6"),
    # the 8 coordinates of the zero-sum Z2 labelings, and their 2 quadrics
    ("((1,2),(3,4));", "jc-binary", [],
     "edcf832504e0a4e7ba143c322c227014aa56c4b276e5580b826cfd063e6ecabb"),
    ("((1,2),(3,4));", "jc-binary", ["--binomials", "2"],
     "3f62cd9bcd5a0fc9e1ab45aa9f5459e3935f18df873b47cedb00084fbaa29177"),
    # 8 leaves: 610 subforest coordinates and their 260,434 quadrics
    (T8, "jc-dna", [],
     "a3676a97577df0ec56ff30305a175509ca54eb0952183d7713269cc69e6b2f35"),
    (T8, "jc-dna", ["--map"],
     "b0468d8196244f6257606f15f7fcffda064b007cdcca152eafb2fc8665c62497"),
    (T8, "jc-dna", ["--binomials", "2"],
     "eb68646a10c8814a6b85e91247d9aa67ce625152d6f7b31ab18e05389a3e6e23"),
    ("((1,2),(3,(4,5)));", "kimura3", [],
     "01789006eedd6226c1bcf6a92760c965d0b3369d5df0b6f19c2c8d1038f5d3a2"),
    ("((1,2),(3,(4,5)));", "kimura3", ["--map"],
     "129d5522153560c99efe230e54fee0ebd2d82950d727e02d18d34435a68daf90"),
    ("((1,2),(3,(4,5)));", "kimura3", ["--binomials", "2"],
     "22eff7e8b0d30c8a48cc68929e201398e74188bdc007fae37a847d722e52f035"),
]


@pytest.mark.parametrize("newick, kind, extra, digest", _FOURIER_STDOUT,
                         ids=["jc-dna-binomials", "jc-dna-map",
                              "jc-dna-coordinates", "kimura3-coordinates",
                              "jc-binary-coordinates", "jc-binary-binomials",
                              "jc-dna-8-coordinates", "jc-dna-8-map",
                              "jc-dna-8-binomials", "kimura3-5-coordinates",
                              "kimura3-5-map", "kimura3-5-binomials"])
def test_fourier_stdout_is_pinned(tmp_path, newick, kind, extra, digest):
    # a fresh process, so the digest covers the command's whole output path
    # from start-up, as a user runs it
    tree = tmp_path / "t.nwk"
    tree.write_text(newick + "\n")
    out = subprocess.run(
        [sys.executable, "-m", "phyloag.cli", "fourier", "--tree", str(tree),
         "--model", kind] + extra,
        env=fresh_process_env(), capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == digest

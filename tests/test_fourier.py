import hashlib
import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from phyloag import expand_map, make_model
from phyloag.exactalg import Poly, Rat
from phyloag import fourier, paramap, treecore

from conftest import (draw_newick, fresh_process_env, poly_product_binomials,
                      poly_product_monomial_map, random_rat, support_classes)


def test_characters_are_plus_minus_one():
    for group in (fourier.Z2, fourier.Z2xZ2):
        k = group.k
        for g in range(k):
            for h in range(k):
                assert fourier.Z2xZ2.char(g, h) in (-1, 1) or k == 2
                assert group.char(g, h) == group.char(h, g)
        # characters of the identity are trivial
        assert all(group.char(0, h) == 1 for h in range(k))


def test_group_addition():
    g = fourier.Z2xZ2
    assert g.add(1, 2) == 3
    assert g.add(3, 3) == 0
    assert all(g.add(0, h) == h for h in range(4))


@pytest.mark.parametrize("group", [fourier.Z2, fourier.Z2xZ2],
                         ids=lambda g: g.name)
def test_bitwise_group_operations_match_bit_tuples(group):
    # the definitions on bit tuples that the index arithmetic replaces
    elems = group.elements
    for g, h in itertools.product(range(group.k), repeat=2):
        bits = sum(a & b for a, b in zip(elems[g], elems[h]))
        assert group.char(g, h) == (1 if bits % 2 == 0 else -1)
        s = tuple(a ^ b for a, b in zip(elems[g], elems[h]))
        assert group.add(g, h) == elems.index(s)


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


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        fourier.transform_tensor([Rat(1)] * 7, fourier.Z2, 3)


def test_leaf_to_edge_labels(tree3):
    g = fourier.Z2
    # zero-sum labelings map to subforest indicators
    fi = fourier.leaf_to_edge_labels(tree3, (1, 0, 1), g)
    assert fi.indicator == (1, 1, 0, 1)
    assert fourier.leaf_to_edge_labels(tree3, (1, 0, 0), g) is None


def test_transformed_tensor_supported_on_subforests(tree3):
    m = make_model(tree3, "jc-dna")
    jm = expand_map(m)
    q = fourier.transform_tensor(jm.coordinates(), fourier.Z2xZ2, 3)
    allowed = {sf.indicator for sf in treecore.enumerate_subforests(tree3)}
    for i, poly in enumerate(q):
        states = paramap.pattern_of_flat(i, 3, 4)
        fi = fourier.leaf_to_edge_labels(tree3, states, fourier.Z2xZ2)
        if fi is None:
            assert poly.is_zero()
        elif not poly.is_zero():
            assert fi.indicator in allowed


def test_transformed_tensor_factors(tree3):
    """Every nonzero transformed coordinate equals the matching monomial in
    the transformed edge parameters."""
    m = make_model(tree3, "jc-dna")
    jm = expand_map(m)
    q = fourier.transform_tensor(jm.coordinates(), fourier.Z2xZ2, 3)
    mm = fourier.monomial_map(m)
    tp = fourier.transform_params(m)
    by_ind = {sf.indicator: mono
              for sf, mono in zip(mm.coord_keys, mm.monomials)}
    checked = 0
    for i, poly in enumerate(q):
        if poly.is_zero():
            continue
        states = paramap.pattern_of_flat(i, 3, 4)
        fi = fourier.leaf_to_edge_labels(tree3, states, fourier.Z2xZ2)
        assert (by_ind[fi.indicator].substitute(tp) - poly).is_zero()
        checked += 1
    assert checked == 16


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


def test_monomial_map_counts(tree4):
    mm = fourier.monomial_map(make_model(tree4, "jc-dna"))
    assert len(mm.coord_names) == 13
    assert len(mm.symbols) == 12
    assert mm.coord_names[0] == "q000000"
    # each monomial has degree E
    assert all(p.degree() == 6 for p in mm.monomials)


def test_monomial_map_requires_uniform_root(tree3):
    m = make_model(tree3, "jc-binary", root_mode="free")
    with pytest.raises(ValueError):
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
        assert form.substitute(coords).is_zero()


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
        assert f.substitute(coords).is_zero()


def test_support_classes_equal_subforests(tree4):
    got = support_classes(tree4, fourier.Z2xZ2)
    want = {sf.indicator for sf in treecore.enumerate_subforests(tree4)}
    assert got == want


def test_accumulated_combination_q0011(tree3):
    """Transformed coordinates as combinations of the accumulated class
    coordinates: q for the cherry path has the expected 1, -1/3 pattern."""
    m = make_model(tree3, "jc-dna")
    jm = expand_map(m)
    classes = paramap.symmetry_classes(jm)
    sf = treecore.Subforest((0, 0, 1, 1))
    coeffs = fourier.accumulated_combination(tree3, sf, classes,
                                             fourier.Z2xZ2, 3, 4)
    # class order: p123, p12, p13, p23, pdis
    assert coeffs == [Rat(1), Rat(-1, 3), Rat(-1, 3), Rat(1), Rat(-1, 3)]
    empty = treecore.Subforest((0, 0, 0, 0))
    assert fourier.accumulated_combination(tree3, empty, classes,
                                           fourier.Z2xZ2, 3, 4) == [Rat(1)] * 5


def test_mixture_monomial_coords(tree4):
    maps = [fourier.monomial_map(make_model(tree4, "jc-dna", prefix=p))
            for p in ("x0", "x1")]
    coords = fourier.mixture_monomial_coords(maps)
    assert set(coords) == set(maps[0].coord_names)
    some = coords["q000000"]
    assert some.num_terms() == 2
    assert {"s0", "s1"} <= some.variables()


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
]


@pytest.mark.parametrize("newick, kind, extra, digest", _FOURIER_STDOUT,
                         ids=["jc-dna-binomials", "jc-dna-map",
                              "jc-dna-coordinates", "kimura3-coordinates"])
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

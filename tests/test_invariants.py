import hashlib
import itertools
import json
import random
import tracemalloc
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phyloag import expand_map, make_model, parse_newick
from phyloag.exactalg import (Poly, Rat, mat_det, mat_rank_nullspace, minors,
                              normalize_poly, parse_poly, residue)
from phyloag import cli, invariants, paramap

from conftest import (brute_force_eval, brute_force_expand,
                      brute_force_jacobian, draw_newick, exact_interpolation,
                      exact_witness, first_flat_index, random_rat,
                      random_params, rref_nullspace_mod_p)


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
    t4 = invariants.symbolic_tensor(1, 4)
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
    # a label outside the leaf set is an error, not silently dropped
    with pytest.raises(ValueError, match="not a bipartition"):
        invariants.flatten(tensor, list("123"), (("1", "9"), ("2", "3")),
                           k=2)


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
    assert not invariants.vanishing_check(nonzero, coords)[0]
    # symmetry of the cherry: p(0,0,1) == p(0,1,0)? no; use class equality
    classes = paramap.symmetry_classes(jm)
    a, b = next((c[0], c[1]) for c in classes if len(c) > 1)
    form = Poly.var(f"p{a}") - Poly.var(f"p{b}")
    assert form.eval(coords).is_zero()
    assert invariants.vanishing_check(form, coords) == (True, None)
    ok, witness = invariants.vanishing_check(nonzero, coords)
    assert not ok and witness is not None
    with pytest.raises(KeyError):
        invariants.vanishing_check(parse_poly("nope"), coords)


class _Unevaluable(Poly):
    def eval(self, point):
        raise AssertionError("an unused coordinate was evaluated")

    def eval_mod(self, point, prime):
        raise AssertionError("an unused coordinate was evaluated")


def test_vanishing_check_reads_only_the_coordinates_it_uses(tree3):
    jm = expand_map(make_model(tree3, "jc-binary"))
    classes = paramap.symmetry_classes(jm)
    a, b = next((c[0], c[1]) for c in classes if len(c) > 1)
    form = Poly.var(f"p{a}") - Poly.var(f"p{b}")
    used = {f"p{i}": jm.coordinate(i) for i in (a, b)}
    # an unused coordinate in other parameters: it is never evaluated, and
    # its parameters take no draws, so the points are those of `used` alone
    coords = dict(used, pspare=_Unevaluable(Poly.var("z9").terms))
    assert invariants.vanishing_check(form, coords) == (True, None)
    nonzero = Poly.var(f"p{a}") - Poly.const(2) * Poly.var(f"p{b}")
    ok, witness = invariants.vanishing_check(nonzero, coords)
    assert not ok
    assert witness == invariants.vanishing_check(nonzero, used)[1]


def test_vanishing_check_witness_is_exact():
    # at the first point x = a/b, so the coordinate is exactly -p, which is
    # 0 mod p: the check reads that point as zero and names a later one
    p = invariants._PRIMES[0]
    first = {"x": invariants.random_rat(random.Random(0))}
    coords = {"q": Poly.var("x") - Poly.const(first["x"] + p)}
    form = Poly.var("q")
    assert form.eval({"q": coords["q"].eval(first)}) == -p
    ok, witness = invariants.vanishing_check(form, coords)
    assert not ok
    assert witness != first
    assert form.eval({"q": coords["q"].eval(witness)}) != 0


def test_vanishing_check_skips_a_prime_in_a_denominator():
    # the first prime divides a denominator of the coordinate and of the
    # forms, so the check reads the points modulo the next one
    p = invariants._PRIMES[0]
    coords = {"q": parse_poly(f"1/{p}*u"), "r": parse_poly("u*v"),
              "s": parse_poly("u")}
    for text in ("q - 1/{p}*s", "r*q - 1/{p}*r*s", "q - s", "1/{p}*r - q"):
        form = parse_poly(text.format(p=p))
        want = exact_witness(form, coords)
        assert invariants.vanishing_check(form, coords) == \
            (want is None, want)


def test_checks_evaluate_modulo_a_prime(monkeypatch):
    # the verdicts, witnesses and interpolated forms of exact evaluation,
    # with exact evaluation of polynomials switched off
    jm = expand_map(make_model(parse_newick("(1,(2,3));"), "jc-binary"))
    coords = {f"p{i}": jm.coordinate(i) for i in range(8)}
    forms = [parse_poly(t) for t in ("p1 - p6", "p1 - p2", "p0 + p1 - p2")]
    want = [exact_witness(f, coords) for f in forms]
    assert [w is None for w in want] == [True, False, False]
    cubic = exact_interpolation(jc3_class_coords(), 3)

    def unavailable(self, assignment):
        raise AssertionError("a polynomial was evaluated exactly")

    monkeypatch.setattr(Poly, "eval", unavailable)
    for f, w in zip(forms, want):
        assert invariants.vanishing_check(f, coords) == (w is None, w)
    assert invariants.interpolate_vanishing_forms(jc3_class_coords(), 3) \
        == cubic


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
    circuit = (list(jm.circuit.ops), jm.circuit.outputs.tolist())
    rank, _ = invariants.jacobian_dimension(jm, rng=random.Random(5), tries=1)
    # the same first point that jacobian_dimension drew
    symbols = jm.symbols()
    pt = invariants.random_point(symbols, random.Random(5))
    prime = invariants._PRIMES[0]
    rows = brute_force_jacobian(jm, pt, symbols, prime)
    assert len(rows) == len(np.unique(jm.circuit.outputs))
    assert rank == len(rref_nullspace_mod_p(rows, prime)[0])
    # ranking the Jacobian leaves the circuit as it was built
    assert circuit == (jm.circuit.ops, jm.circuit.outputs.tolist())


def _circuit_digest(circuit, digest):
    """Feed `digest` with a digest of the circuit that does not depend on the
    node numbering: the sorted Merkle hashes of all nodes, then the hash of
    each output by flat index."""
    hashes = []
    for kind, payload in circuit.ops:
        if kind in (paramap.SYM, paramap.CONST):
            item = (kind, str(payload))
        else:
            item = (kind, sorted(hashes[c] for c in payload))
        hashes.append(hashlib.sha256(repr(item).encode()).hexdigest())
    digest.update(repr(sorted(hashes)).encode())
    digest.update(repr([hashes[node]
                        for node in circuit.outputs.tolist()]).encode())


def test_dimension_circuits_are_pinned():
    # renumbering-invariant digest of the circuits of the benchmark's
    # dimension cases, recorded from a full walk of the tree per leaf
    # pattern: the table build must make the same nodes and outputs.  A
    # mixture's digest is that of its components, each built on its own.
    digest = hashlib.sha256()
    for nwk, kind, root, k, mcount, _ in _BENCHMARK_CASES:
        prefixes = [f"x{i}" for i in range(mcount)] if mcount > 1 else [""]
        for prefix in prefixes:
            model = make_model(parse_newick(nwk), kind, root_mode=root, k=k,
                               prefix=prefix)
            _circuit_digest(paramap.build_circuit([model]), digest)
    assert digest.hexdigest() == \
        "074bd1bf79d4adde03860e43e935b507d36a53860c7cae4941db7aeed3431d20"


def test_circuit_shapes_outside_the_benchmark_are_pinned():
    # renumbering-invariant digest of shapes the benchmark's cases lack,
    # recorded from the build that keyed rows a column at a time: k = 1,
    # whose uniform root weight is the unit constant, a model with no hidden
    # nodes, a homogeneous free root, a 2-mixture with no weight symbols
    # built as one circuit, and jc-dna on eight leaves
    quartet = parse_newick("((1,2),(3,4));")
    cases = [
        [make_model(quartet, "general-markov", k=1)],
        [make_model(quartet, "general-markov", k=2, no_hidden=True)],
        [make_model(quartet, "homogeneous", root_mode="free", k=2)],
        [make_model(quartet, "general-markov", root_mode="free", k=2,
                    prefix=prefix) for prefix in ("x0", "x1")],
        [make_model(parse_newick("(((1,2),(3,4)),((5,6),(7,8)));"),
                    "jc-dna")],
    ]
    digest = hashlib.sha256()
    for models in cases:
        _circuit_digest(paramap.build_circuit(models), digest)
    assert digest.hexdigest() == \
        "d2c453a49f052d245da36911db9efdb9f5cfcfec959c7e155c66f20ff4f32890"


@st.composite
def small_dimension_models(draw):
    """A random tree with 3-5 leaves (root of degree 2 or 3) and one of the
    model kinds or mixtures, as a _dimension_map case."""
    nwk = draw_newick(draw, 3, 5)
    kind, root, k, mcount, no_hidden = draw(st.sampled_from([
        ("jc-binary", "uniform", None, 1, False),
        ("jc-dna", "uniform", None, 1, False),
        ("kimura2", "uniform", None, 1, False),
        ("kimura3", "uniform", None, 1, False),
        ("general-markov", "free", 2, 1, False),
        ("general-markov", "uniform", 2, 1, True),
        ("jc-dna", "uniform", None, 2, False),
        ("general-markov", "free", 2, 2, False),
    ]))
    return nwk, kind, root, k, mcount, no_hidden


@given(small_dimension_models(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_modular_jacobian_is_the_exact_one_reduced(case, seed):
    # uniform roots put the constant 1/k into every coordinate, the
    # 2-mixture with uniform roots adds the weight symbols' rows, and the
    # free-root 2-mixture has none
    jm = _dimension_map(*case)
    circuit = (list(jm.circuit.ops), jm.circuit.outputs.tolist())
    symbols = jm.symbols()
    prime = invariants._PRIMES[0]
    pt = invariants.random_point(symbols, random.Random(seed))
    rows = brute_force_jacobian(jm, pt, symbols, prime)
    rank, _ = invariants.jacobian_dimension(jm, rng=random.Random(seed),
                                            tries=1)
    assert rank == len(rref_nullspace_mod_p(rows, prime)[0])
    assert circuit == (jm.circuit.ops, jm.circuit.outputs.tolist())


@given(small_dimension_models(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
# polytomies, which draw_newick never makes: a root of degree 5, a node of
# degree 4 below the root with evidence at it and in a free-root mixture,
# and an internal node of degree 3
@example(("(1,2,3,4,5);", "jc-dna", "uniform", None, 1, False), 0)
@example(("((1,2,3,4),5);", "general-markov", "uniform", 2, 1, True), 1)
@example(("((1,2,3,4),5);", "general-markov", "free", 2, 2, False), 2)
@example(("(1,(2,3,4),5);", "kimura3", "uniform", None, 1, False), 3)
def test_projected_rows_are_combinations_of_circuit_rows(case, seed):
    # row r is the sum over flat x of prod_i r_i[x_i] times the Jacobian row
    # of coordinate x, taken from brute_force_jacobian (one row per circuit
    # output node, keyed by its first flat index); residues are drawn from
    # all of [0, p)
    jm = _dimension_map(*case)
    symbols = jm.symbols()
    prime = invariants._PRIMES[0]
    rng = random.Random(seed)
    pt = invariants.random_point(symbols, rng)
    observed = paramap.observed_nodes(jm.models[0])
    R = len(symbols)
    vectors = np.array([[[rng.randrange(prime) for _ in range(jm.k)]
                         for _ in range(R)] for _ in observed],
                       dtype=np.int64)
    rows = paramap.projected_jacobian(jm, pt, vectors, prime)
    node_rows = dict(zip(first_flat_index(jm),
                         brute_force_jacobian(jm, pt, symbols, prime)))
    J = np.array([node_rows[node] for node in jm.circuit.outputs.tolist()],
                 dtype=np.int64)
    # W[r, x] = prod_i vectors[i, r, x_i], one factor at a time
    W = np.ones((R, 1), dtype=np.int64)
    for v in vectors:
        W = (W[:, :, None] * v[:, None, :] % prime).reshape(R, -1)
    # each entry of W @ J sums k^n < 2^12 products below 2^46
    assert rows.dtype == np.int64
    assert np.array_equal(rows, W @ J % prime)


def _balanced(leaves):
    """A balanced binary tree on the labels in Newick form, without the
    final semicolon."""
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return f"({_balanced(leaves[:half])},{_balanced(leaves[half:])})"


@pytest.mark.parametrize("n, kind, root, k, mcount, dimension", [
    # unrooted edges 2n - 3: one parameter ratio per edge for jc-dna,
    # three for kimura3, k(k - 1) per edge plus k - 1 root weights for a
    # free-root general Markov model, twice that plus one mixing weight for
    # a 2-mixture of them
    (32, "jc-dna", "uniform", None, 1, 2 * 32 - 3),
    (64, "kimura3", "uniform", None, 1, 3 * (2 * 64 - 3)),
    (20, "general-markov", "free", 4, 1, (2 * 20 - 3) * 4 * 3 + 3),
    (16, "general-markov", "free", 2, 2, 2 * ((2 * 16 - 3) * 2 + 1) + 1),
])
def test_closed_form_dimensions_on_large_trees(n, kind, root, k, mcount,
                                               dimension):
    tree = parse_newick(_balanced([str(i + 1) for i in range(n)]) + ";")
    jm = invariants.make_mixture(tree, kind, mcount, root_mode=root, k=k)
    assert invariants.jacobian_dimension(jm)[1] == dimension


def test_dimension_builds_no_circuit(monkeypatch, capsys, tmp_path):
    def unavailable(*args, **kwargs):
        raise AssertionError("the circuit was built")

    monkeypatch.setattr(paramap, "build_circuit", unavailable)
    jm = invariants.make_mixture(parse_newick("((1,2),(3,4));"), "jc-dna", 2)
    assert invariants.jacobian_dimension(jm) == (12, 11)
    tree_file = tmp_path / "quartet.nwk"
    tree_file.write_text("((1,2),(3,4));\n", encoding="utf-8")
    assert cli.main(["dim", "--tree", str(tree_file), "--model", "jc-dna",
                     "--mixture", "2"]) == 0
    assert "projective dimension 11" in capsys.readouterr().out


def test_shared_output_node_is_one_polynomial(tree4):
    m = make_model(tree4, "jc-dna")
    jm = expand_map(m)
    by_node = {}
    for i, states in enumerate(itertools.product(range(4), repeat=4)):
        poly = brute_force_expand(m, states)
        assert jm.coordinate(i) == poly == \
            by_node.setdefault(jm.circuit.outputs[i], poly)
    # each output node is expanded once, however many coordinates share it
    assert len(jm._polys) == len(by_node) < jm.num_coordinates
    params = random_params(jm.symbols(), 4)
    prime = invariants._PRIMES[0]
    assert jm.circuit.jacobian(params, jm.symbols(), prime) == \
        brute_force_jacobian(jm, params, jm.symbols(), prime)


def test_mixture_map_eval_and_symbols(tree3):
    mix = invariants.make_mixture(tree3, "jc-binary", 2)
    assert mix.weight_symbols == ("s0", "s1")
    components = [make_model(tree3, "jc-binary", prefix=f"x{j}")
                  for j in range(2)]
    syms = mix.symbols()
    assert syms == components[0].symbols + components[1].symbols + \
        ["s0", "s1"]
    assert len(syms) == len(set(syms))
    params = random_params(syms, 3)
    vec = mix.circuit.eval(params)
    for i, states in enumerate(itertools.product(range(2), repeat=3)):
        want = params["s0"] * brute_force_eval(components[0], params, states) \
            + params["s1"] * brute_force_eval(components[1], params, states)
        assert vec[i] == want
        # coordinate polynomials agree with eval
        assert mix.coordinate(i).eval(params) == want


@pytest.mark.parametrize("kind, root, k", [
    ("jc-dna", "uniform", None), ("general-markov", "free", 2)])
def test_one_component_mixture_is_the_model(tree4, kind, root, k):
    mix = invariants.make_mixture(tree4, kind, 1, root_mode=root, k=k)
    jm = expand_map(make_model(tree4, kind, root_mode=root, k=k))
    assert mix.circuit.ops == jm.circuit.ops
    assert np.array_equal(mix.circuit.outputs, jm.circuit.outputs)
    assert mix.symbols() == jm.symbols()


@pytest.mark.parametrize("mcount", [1, 2])
def test_outputs_are_an_int64_array_by_flat_index(tree4, mcount):
    jm = invariants.make_mixture(tree4, "jc-dna", mcount)
    outputs = jm.circuit.outputs
    assert isinstance(outputs, np.ndarray) and outputs.dtype == np.int64
    assert outputs.shape == (4 ** 4,) == (jm.num_coordinates,)


def test_mixture_rejects_shared_symbols(tree3):
    a = make_model(tree3, "jc-binary")
    b = make_model(tree3, "jc-binary")
    with pytest.raises(ValueError):
        invariants.mixture_map([a, b])
    with pytest.raises(ValueError):
        invariants.mixture_map([a, make_model(tree3, "jc-dna", prefix="y")])


@pytest.mark.parametrize("newick, components, shared", [
    # edge 18's letter is s: the unprefixed model's parameters s0, s1 are
    # the mixing weights' names
    ("((((((((((1,2),3),4),5),6),7),8),9),10),11);",
     [("jc-dna", ""), ("jc-dna", "y")], "s0, s1"),
    ("(1,(2,3));", [("jc-dna", "y"), ("kimura2", "y")],
     "ya0, ya1, yb0, yb1, yc0, yc1, yd0, yd1"),
], ids=["weights-reuse-edge-18", "shared-prefix"])
def test_mixture_names_every_repeated_symbol(newick, components, shared):
    tree = parse_newick(newick)
    models = [make_model(tree, kind, prefix=p) for kind, p in components]
    with pytest.raises(ValueError,
                       match=rf"^mixture symbols repeat: {shared}; build"):
        invariants.mixture_map(models)


@pytest.mark.parametrize("build", [
    invariants.mixture_map, lambda models: expand_map(*models)],
    ids=["mixture_map", "expand_map"])
@pytest.mark.parametrize("components, message", [
    # (newick, no_hidden, prefix) per component: without hidden nodes the
    # map has 2^7 coordinates here, with them 2^4, so the components'
    # outputs and gradients cannot be summed
    ([("((1,2),(3,4));", True, "x0"), ("((1,2),(3,4));", False, "x1")],
     "mixture components must observe the same nodes"),
    ([("((1,2),(3,4));", True, "x0"), ("(1,(2,(3,4)));", True, "x1")],
     "mixture components must observe the same nodes"),
    ([("((1,2),(3,4));", False, "x0"), ("((1,2),(3,5));", False, "x1")],
     "mixture components must share leaf set and k"),
    ([("((1,2),(3,4));", False, "x0")] * 2,
     "mixture symbols repeat: x0a00, "),
], ids=["hidden-and-not", "other-observed-tree", "other-leaves",
        "model-twice"])
def test_mixture_components_must_match(build, components, message):
    models = [make_model(parse_newick(nwk), "general-markov", k=2,
                         no_hidden=no_hidden, prefix=prefix)
              for nwk, no_hidden, prefix in components]
    with pytest.raises(ValueError, match=f"^{message}"):
        build(models)


@pytest.mark.parametrize("mixture", [
    lambda tree: invariants.mixture_map([]),
    lambda tree: expand_map(),
    lambda tree: invariants.make_mixture(tree, "jc-binary", 0),
    lambda tree: invariants.make_mixture(tree, "jc-binary", -1),
], ids=["empty-list", "expand_map", "m=0", "m=-1"])
def test_mixture_needs_a_model(tree3, mixture):
    with pytest.raises(ValueError, match="a mixture needs at least one model"):
        mixture(tree3)


def test_mixture_jacobian_matches_derivatives(tree3):
    mix = invariants.make_mixture(tree3, "jc-binary", 2)
    syms = mix.symbols()
    params = random_params(syms, 8)
    prime = invariants._PRIMES[0]
    rows = mix.circuit.jacobian(params, syms, prime)
    assert rows == brute_force_jacobian(mix, params, syms, prime)
    for row, i in zip(rows, first_flat_index(mix).values()):
        poly = mix.coordinate(i)
        assert row == [residue(poly.derivative(s).eval(params), prime)
                       for s in syms]


def test_interpolate_linear_relations(tree3):
    jm = expand_map(make_model(tree3, "jc-binary"))
    coords = [(f"p{i}", jm.coordinate(i)) for i in range(8)]
    forms = invariants.interpolate_vanishing_forms(coords, 1)
    # jc-binary on (1,(2,3)) has 4 distinct coordinates among 8
    assert len(forms) == 4
    cdict = dict(coords)
    for f in forms:
        assert f.eval(cdict).is_zero()


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


def quartet_class_coords():
    """Accumulated symmetry classes of jc-binary on ((1,2),(3,4)), named by
    their first flat index; two quadrics vanish on them."""
    jm = expand_map(make_model(parse_newick("((1,2),(3,4));"), "jc-binary"))
    classes = paramap.symmetry_classes(jm)
    return [(f"c{c[0]}", p)
            for c, p in zip(classes, paramap.accumulate_classes(jm, classes))]


def crt_coords():
    """Coefficients of up to 18 digits, so the basis of the quadrics is
    combined by CRT from five primes."""
    return [("b", parse_poly("423448/419*u + 337/17*w")),
            ("c", parse_poly("939900/151*u")),
            ("a", parse_poly("344081/386*u"))]


# SHA-256 of the forms' text, one a line: the benchmark's cubic, a basis of
# two quadrics and a basis combined by CRT
_PINNED_FORMS = [
    (jc3_class_coords, 3, 0, 1,
     "1faca748bb1c5ea3194c9ca46af4c345b71fcf7dd265900c7af7529e77d4fb85"),
    (quartet_class_coords, 2, 1, 2,
     "a575daad22b0e4ecc894d57805747ab802ca03c690d9b524a160f34d58f458aa"),
    (crt_coords, 2, 0, 3,
     "438e2e48ca5338ffc6c0dfd8b8712152af819995cf96f83793e4d3fb49f76aed"),
]


@pytest.mark.parametrize("coords, degree, seed, count, digest", _PINNED_FORMS,
                         ids=["jc3-cubic", "quartet-quadrics", "crt"])
def test_interpolated_forms_are_pinned(coords, degree, seed, count, digest):
    forms = invariants.interpolate_vanishing_forms(coords(), degree,
                                                   rng=random.Random(seed))
    assert len(forms) == count
    text = "".join(f"{f}\n" for f in forms)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_interpolate_stdout_is_pinned(tmp_path, capsys):
    tree = tmp_path / "t.nwk"
    tree.write_text("((1,2),(3,4));\n")
    coords = tmp_path / "coords.json"
    coords.write_text(json.dumps({nm: str(p)
                                  for nm, p in quartet_class_coords()}))
    assert cli.main(["invariants", "--tree", str(tree), "--model",
                     "jc-binary", "--interpolate", "2", "--coords",
                     str(coords)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_FORMS[1][-1]


def test_interpolation_verifies_on_fresh_points():
    coords = jc3_class_coords()
    forms = invariants.interpolate_vanishing_forms(coords, 3)
    assert len(forms) == 1
    cdict = dict(coords)
    assert forms[0].eval(cdict).is_zero()


def test_modular_path_agrees_with_exact():
    """Compare the multi-modular elimination with exact elimination on cases
    small enough to be solved directly; the cubic's 35 monomials span three
    elimination leaves."""
    segre = [("p00", parse_poly("u0*v0")), ("p01", parse_poly("u0*v1")),
             ("p10", parse_poly("u1*v0")), ("p11", parse_poly("u1*v1"))]
    for coords, degree in [(segre, 2), (jc3_class_coords(), 3)]:
        exact = exact_interpolation(coords, degree)
        modular = invariants.interpolate_vanishing_forms(coords, degree)
        assert [str(f) for f in exact] == [str(f) for f in modular]


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
    exact = exact_interpolation(coords, 1)
    forced = invariants.interpolate_vanishing_forms(coords, 1)
    assert [str(f) for f in forced] == [str(f) for f in exact]
    assert forced == [normalize_poly(parse_poly(want.format(P=P)))]


def test_modular_path_skips_an_unlucky_later_prime(monkeypatch):
    # modulo P, y = (A/B)*u is a multiple of x, so P's pivots are [0, 2]
    # against [0, 1] for the good prime before it: P is skipped, and no
    # candidate that verifies was combined with P's residues
    A, B = 2 ** 40 - 87, 2 ** 40 - 57
    stream = list(itertools.islice(invariants._primes(), 40))
    P = stream[4]
    good = [p for p in stream if p != P]
    monkeypatch.setattr(invariants, "_primes",
                        lambda: iter([good[0], P] + good[1:]))
    moduli = []
    nullspace = invariants._modular_nullspace

    def recorded(*args):
        for basis, modulus in nullspace(*args):
            moduli.append(modulus)
            yield basis, modulus

    monkeypatch.setattr(invariants, "_modular_nullspace", recorded)
    u, v = Poly.var("u"), Poly.var("v")
    coords = [("x", u), ("y", u * Rat(A, B) + v * P), ("z", v)]
    forms = invariants.interpolate_vanishing_forms(coords, 1)
    x, y, z = (Poly.var(name) for name in "xyz")
    assert forms == [normalize_poly(y * B - x * A - z * (P * B))]
    assert moduli[-1] % P


def test_modular_path_skips_a_prime_in_a_denominator():
    # the first prime divides a coefficient's denominator, so the
    # coordinates have no residues modulo it
    P = invariants._PRIMES[0]
    coords = [("x", parse_poly(f"1/{P}*u")), ("y", parse_poly("u"))]
    exact = exact_interpolation(coords, 1)
    forced = invariants.interpolate_vanishing_forms(coords, 1)
    assert forced == exact == [normalize_poly(parse_poly(f"{P}*x - y"))]


@given(st.integers(2 ** 39, 2 ** 400 - 1), st.integers(2 ** 39, 2 ** 400 - 1))
@example(2 ** 400 - 1, 2 ** 400 - 3)
@settings(max_examples=25, deadline=None)
def test_interpolation_reconstructs_random_large_coefficients(a, b):
    # the reconstruction of a/b needs about 2 * 400 bits of modulus, more
    # than the 32 primes of _PRIMES hold (about 736 bits), so the prime
    # stream goes on below them
    u = Poly.var("u")
    coords = [("x", u), ("y", u * Rat(a, b))]
    want = normalize_poly(Poly.var("y") * b - Poly.var("x") * a)
    assert invariants.interpolate_vanishing_forms(coords, 1) == [want]


def test_interpolation_rejects_a_negative_degree():
    coords = [("x", Poly.var("u")), ("y", Poly.var("v"))]
    with pytest.raises(ValueError,
                       match="degree must be non-negative, got -1"):
        invariants.interpolate_vanishing_forms(coords, -1)


def test_interpolation_rejects_a_repeated_coordinate_name(monkeypatch):
    # repeated names once sampled three times and ran out of retries
    monkeypatch.setattr(invariants, "random_point", None)   # no sampling
    coords = [("x", Poly.var("u")), ("x", Poly.var("v"))]
    with pytest.raises(ValueError, match="coordinate names repeat: x"):
        invariants.interpolate_vanishing_forms(coords, 1)


def test_no_coordinates_have_no_forms_of_positive_degree():
    assert invariants.interpolate_vanishing_forms([], 2) == []


def test_modular_primes_keep_float64_exact():
    # a GEMM adds _CHUNK products of centered residues, |x| <= (p + 1)/2 + 2,
    # to an entry below p before it is reduced; a leaf's inverse triangle
    # multiplies at most _LEAF entries below p by ones below p.  The stream
    # is _PRIMES, then every other prime below 2^23 (pi(2^23) = 564163),
    # descending, checked against one sieve of the whole range
    primes = list(invariants._primes())
    assert primes[:32] == list(invariants._PRIMES)
    sieve = np.ones(2 ** 23, dtype=bool)
    sieve[:2] = False
    for d in range(2, isqrt(2 ** 23) + 1):
        sieve[d * d::d] = False
    assert primes == np.flatnonzero(sieve)[::-1].tolist()
    assert len(primes) == 564163
    p = max(primes)
    assert invariants._CHUNK * ((p + 1) // 2 + 2) ** 2 + p < 2 ** 53
    assert invariants._LEAF * p ** 2 < 2 ** 53


def test_modular_primes_are_the_largest_below_2_23():
    want, p = [], 2 ** 23 - 1
    while len(want) < 32:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            want.append(p)
        p -= 1
    assert list(invariants._PRIMES) == want


def _large_coefficient_coords():
    return [(name, parse_poly(text)) for name, text in [
        ("a", "915515/692*v + 41818/167*w"), ("b", "234293/598*u"),
        ("c", "903756/751*u + 609962/741*v"), ("d", "237121/985*u"),
        ("e", "67419/311*w")]]


def test_interpolation_reconstructs_coefficients_past_ten_primes():
    coords = _large_coefficient_coords()
    forms = invariants.interpolate_vanishing_forms(coords, 2,
                                                   rng=random.Random(3))
    assert len(forms) == 9
    assert all(f.eval(dict(coords)).is_zero() for f in forms)
    # more bits than rational reconstruction gets from ten primes
    assert max(max(abs(c.numerator), c.denominator).bit_length()
               for f in forms for c in f.terms.values()) == 164


def test_interpolation_reports_running_out_of_primes(monkeypatch):
    # a stream of ten primes, which the coefficients outgrow
    monkeypatch.setattr(invariants, "_primes",
                        lambda: iter(invariants._PRIMES[:10]))
    calls = []
    nullspace = invariants._nullspace_mod_p

    def counted(A, prime):
        calls.append(prime)
        return nullspace(A, prime)

    monkeypatch.setattr(invariants, "_nullspace_mod_p", counted)
    with pytest.raises(RuntimeError, match="need more than the 10 primes"):
        invariants.interpolate_vanishing_forms(_large_coefficient_coords(), 2,
                                               rng=random.Random(3))
    # new points cannot shorten the coefficients, so one draw is enough
    assert len(calls) == 10


def test_interpolation_reports_a_short_sample():
    # 5 points for the 10 quadratic monomials of the Segre coordinates,
    # whose quadrics span 1 dimension: the nullspace of the sample is 5
    # dimensional however many primes reconstruct it
    segre = [(f"p{i}{j}", parse_poly(f"u{i}*v{j}"))
             for i in range(2) for j in range(2)]
    with pytest.raises(RuntimeError, match="insufficient sample rank"):
        invariants.interpolate_vanishing_forms(segre, 2, extra_points=-5)


@st.composite
def reducible_arrays(draw):
    """(strided 2-D float64 view of integers within a GEMM's bound before
    reduction, or anywhere in _reduce's range |x| <= 2^53 - p, p).  Only
    near 2^53 is the float quotient ever off by one: for p = 7, at
    -top + (6 + top) % 7 it is one too high."""
    p = draw(st.sampled_from([invariants._PRIMES[0], 7]))
    bound = invariants._CHUNK * ((p + 1) // 2 + 2) ** 2 + p
    top = 2 ** 53 - p
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = st.sampled_from([-bound, bound, -p, p, p - 1, -(p - 1), 0,
                             (p - 1) // 2, (p + 1) // 2, -(p + 1) // 2,
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
def test_reduce_gives_a_centered_residue(case):
    x, p = case
    before = [int(v) for v in x.flat]
    invariants._reduce(x, p, np.empty(x.shape))
    for b, v in zip(before, x.flat):
        assert v == int(v) and (b - int(v)) % p == 0
        assert abs(v) <= (p + 1) // 2 + 2


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
    exps = [[combo.count(j) for j in range(ncoords)]
            for combo in itertools.combinations_with_replacement(
                range(ncoords), degree)]
    want = [[int(np.prod([pow(int(c), d, prime) for c, d in zip(row, e)],
                         dtype=object)) % prime for e in exps] for row in C]
    assert invariants._rows_mod(C.astype(np.float64), degree,
                                prime).tolist() == want


@st.composite
def modular_matrices(draw):
    """(int64 matrix with entries in [0, p), p).  Rows are sparse
    combinations of `rank` rows with leading zeros, some columns are zeroed,
    and p = 7 adds accidental dependencies.  Sorting the rows by leading
    zeros puts pivots far below the current row, beyond the leaf.

    Besides small shapes, tall and wide ones have more than 4 * _LEAF
    columns, so the column splits recurse at least three levels.  A zero
    column in the first leaf makes that leaf move its pivots' multipliers
    left, and a repeated column in the left half makes the left half lose
    rank."""
    p = draw(st.sampled_from([invariants._PRIMES[0], 7]))
    deep = 4 * invariants._LEAF + 1
    shape = draw(st.sampled_from(["small", "tall", "wide"]))
    if shape == "tall":
        n = draw(st.integers(deep, deep + 32))
        m = draw(st.integers(n + 1, n + 60))
    else:
        m = draw(st.integers(1, 72))
        n = draw(st.integers(deep if shape == "wide" else 1, 200))
    rank = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R = rng.integers(0, p, (rank, n))
    R[np.arange(n) < rng.integers(0, n // 2 + 1, (rank, 1))] = 0
    B = rng.integers(0, p, (m, rank)) * (rng.random((m, rank)) < rng.random())
    A = B @ R % p
    A[:, draw(st.lists(st.integers(0, n - 1), max_size=n // 4))] = 0
    if draw(st.booleans()):
        A[:, draw(st.integers(0, min(n, invariants._LEAF) - 1))] = 0
    if n >= 2 and draw(st.booleans()):
        j = draw(st.integers(1, max(1, n // 2 - 1)))
        A[:, j] = A[:, draw(st.integers(0, j - 1))] * 3 % p
    if draw(st.booleans()):  # the rows with the most leading zeros first
        lead = np.where(A.any(axis=1), (A != 0).argmax(axis=1), n)
        A = A[np.argsort(-lead, kind="stable")]
    return A, p


@given(modular_matrices())
# random residues, 20 x 40: the left 32 columns fill every row, so the right
# block starts below the last row
@example((np.random.default_rng(20).integers(0, invariants._PRIMES[0],
                                             (20, 40)), invariants._PRIMES[0]))
@settings(max_examples=60, deadline=None)
def test_blocked_elimination_matches_rref(case):
    A, p = case
    pivots, basis = rref_nullspace_mod_p(A.tolist(), p)
    got_basis, got_pivots, free = invariants._nullspace_mod_p(
        A.astype(np.float64), p)
    assert got_pivots == pivots
    assert free == [c for c in range(A.shape[1]) if c not in pivots]
    assert got_basis == basis
    assert invariants._rank_profile(A.astype(np.float64), p) == pivots


def test_elimination_at_interpolation_size_is_exact():
    # 1300 columns: eight levels of column splits; three columns are
    # combinations of columns to their left, so they are the free ones
    p = invariants._PRIMES[0]
    rng = np.random.default_rng(17)
    A = rng.integers(0, p, (1310, 1300))
    A[:, 400] = (A[:, 3] + 5 * A[:, 399]) % p
    A[:, 1000] = A[:, 700] * 2 % p
    A[:, 1299] = (A[:, 0] + A[:, 1000] + A[:, 1298]) % p
    basis, pivots, free = invariants._nullspace_mod_p(A.astype(np.float64), p)
    assert free == [400, 1000, 1299]
    assert len(pivots) == 1297
    X = np.array(basis, dtype=np.int64).T
    assert not (A @ X % p).any()
    assert (X[free] == np.eye(3, dtype=np.int64)).all()


def test_elimination_scratch_is_half_the_matrix():
    p = invariants._PRIMES[0]
    A = np.random.default_rng(3).integers(0, p, (600, 560)).astype(np.float64)
    tracemalloc.start()
    try:
        _, pivots, _ = invariants._nullspace_mod_p(A, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pivots) == 560
    assert peak < 0.75 * A.nbytes


def test_rational_reconstruction_roundtrip():
    from phyloag.invariants import _rat_reconstruct
    m = 2147483629 * 2147483587
    for num, den in [(3, 7), (-22, 5), (1, 1), (1000, 3001)]:
        a = num * pow(den, -1, m) % m
        r = _rat_reconstruct(a, m)
        assert r == Rat(num, den)


def test_symbolic_tensor_names_are_distinct_beyond_ten_states():
    # with two-digit states, (1, 0, 10) and (10, 1, 0) were both "p1010"
    t = [str(x) for x in invariants.symbolic_tensor(3, 11)]
    assert len(set(t)) == len(t) == 11 ** 3
    assert t[paramap.flat_index((1, 0, 10), 11)] == "1*p10a"
    assert t[paramap.flat_index((10, 1, 0), 11)] == "1*pa10"

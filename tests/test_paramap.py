import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phyloag import expand_map, make_model, parse_newick
from phyloag.exactalg import Poly, Rat, residue
from phyloag import cli, fourier, invariants, models, paramap, pipeline
from phyloag.invariants import _PRIMES

from conftest import (brute_force_eval, brute_force_expand,
                      brute_force_jacobian, draw_newick, expansion_classes,
                      first_flat_index, random_params, random_rat,
                      stochastic_jc_params, stride_flatten, stride_pattern,
                      stride_transform)

_PRIME = _PRIMES[0]


def test_three_leaf_general_markov_terms(tree3):
    """Free-root k=2 map on (1,(2,3)): each coordinate is the sum over the
    two root states and two internal states of pi * a * b * c * d."""
    m = make_model(tree3, "general-markov", root_mode="free", k=2)
    jm = expand_map(m)
    for i, j, k in itertools.product(range(2), repeat=3):
        expected = Poly()
        for r in range(2):
            for t in range(2):
                expected = expected + (Poly.var(f"pi{r}")
                                       * Poly.var(f"a{r}{i}")
                                       * Poly.var(f"b{r}{t}")
                                       * Poly.var(f"c{t}{j}")
                                       * Poly.var(f"d{t}{k}"))
        flat = paramap.flat_index((i, j, k), 2)
        assert jm.coordinate(flat) == expected
        assert jm.coordinate(flat).num_terms() == 4


def test_degree_profile(tree3):
    free = expand_map(make_model(tree3, "general-markov", root_mode="free",
                                 k=2))
    assert paramap.degree_profile(free) == tree3.num_edges + 1 == 5
    uni = expand_map(make_model(tree3, "general-markov", k=2))
    assert paramap.degree_profile(uni) == 4
    one = expand_map(make_model(parse_newick("(1);"), "general-markov",
                                root_mode="free", k=2))
    assert paramap.degree_profile(one) == 2


def test_degree_profile_of_a_mixed_root_mixture():
    # a component has degree E = 4, plus one with a free root; a coordinate
    # has the largest, plus one for a weight symbol, which only mixtures of
    # uniform roots have
    tree = parse_newick("((1,2),3);")
    free = make_model(tree, "general-markov", root_mode="free", k=2,
                      prefix="x0")
    uni = [make_model(tree, "general-markov", k=2, prefix=f"x{j}")
           for j in (1, 2)]
    mixed = expand_map(free, uni[0])
    assert mixed.weight_symbols == ()
    assert paramap.degree_profile(mixed) == 5 == mixed.coordinate(0).degree()
    weighted = expand_map(*uni)
    assert weighted.weight_symbols == ("s0", "s1")
    assert paramap.degree_profile(weighted) == 5 == \
        weighted.coordinate(0).degree()


def test_param_summary_builds_no_circuit(monkeypatch, capsys, tmp_path):
    def unavailable(*args, **kwargs):
        raise AssertionError("the circuit was built")

    monkeypatch.setattr(paramap, "build_circuit", unavailable)
    tree_file = tmp_path / "t10.nwk"
    tree_file.write_text("((((1,2),(3,4)),((5,6),(7,8))),(9,10));\n")
    assert cli.main(["param", "--tree", str(tree_file), "--model",
                     "jc-dna"]) == 0
    assert capsys.readouterr().out == \
        "coordinates: 1048576, degree: 18, parameters: 36\n"


@st.composite
def degree_cases(draw):
    """(joint map, roots, flat indices): a map of one to three models on the
    same tree, each of its own kind among those with the drawn k and with
    its own free or uniform root, with or without hidden nodes, on 2-5
    leaves (at most 4 with more than two states, 3 without hidden nodes);
    the components' root modes; and some of the map's coordinates."""
    k = draw(st.sampled_from([2, 3, 4]))
    kinds = {2: ["general-markov", "reversible", "homogeneous", "jc-binary"],
             3: ["general-markov", "reversible", "homogeneous"],
             4: ["jc-dna", "kimura2", "kimura3"]}[k]
    no_hidden = draw(st.booleans())
    nwk = draw_newick(draw, 2, 5 if k == 2 else 3 if no_hidden else 4)
    roots = draw(st.lists(st.sampled_from(["uniform", "free"]), min_size=1,
                          max_size=3))
    components = [make_model(parse_newick(nwk), draw(st.sampled_from(kinds)),
                             root_mode=root, k=k, no_hidden=no_hidden,
                             prefix=f"x{j}") for j, root in enumerate(roots)]
    jm = expand_map(*components)
    indices = draw(st.lists(st.integers(0, jm.num_coordinates - 1),
                            min_size=1, max_size=8))
    return jm, roots, indices


def _unavailable(*args):
    raise AssertionError("a coordinate was expanded")


@given(degree_cases())
@settings(max_examples=50, deadline=None)
def test_degree_profile_is_the_expanded_degree(case):
    jm, roots, indices = case
    # several components with uniform roots, and only they, are weighted
    if len(roots) > 1 and set(roots) == {"uniform"}:
        assert jm.weight_symbols == tuple(f"s{j}" for j in range(len(roots)))
    else:
        assert jm.weight_symbols == ()
    weights = jm.weight_symbols or [None] * len(jm.models)
    tree = jm.models[0].tree
    width = len(tree.children) if jm.models[0].no_hidden else tree.num_leaves
    degrees = set()
    for i in indices:
        states = paramap.pattern_of_flat(i, width, jm.k)
        poly = Poly()
        for model, w in zip(jm.models, weights):
            term = brute_force_expand(model, states)
            poly = poly + (term if w is None else Poly.var(w) * term)
        degrees.add(poly.degree())
    with mock.patch.object(paramap.JointMap, "coordinate", _unavailable):
        assert {paramap.degree_profile(jm)} == degrees


def test_identity_transitions_propagate_root(tree3):
    m = make_model(tree3, "jc-binary", root_mode="free")
    jm = expand_map(m)
    params = {"pi0": Rat(2, 3), "pi1": Rat(1, 3)}
    for eid in range(tree3.num_edges):
        from phyloag.models import edge_letter
        params[f"{edge_letter(eid)}0"] = Rat(1)
        params[f"{edge_letter(eid)}1"] = Rat(0)
    vec = jm.circuit.eval(params)
    assert vec[0] == Rat(2, 3)
    assert vec[-1] == Rat(1, 3)
    assert all(v == 0 for v in vec[1:-1])


def test_maximal_mixing_uniform(tree4):
    m = make_model(tree4, "jc-dna")
    params = {}
    from phyloag.models import edge_letter
    for eid in range(tree4.num_edges):
        params[f"{edge_letter(eid)}0"] = Rat(1, 4)
        params[f"{edge_letter(eid)}1"] = Rat(1, 4)
    vec = expand_map(m).circuit.eval(params)
    assert all(v == Rat(1, 256) for v in vec)


@pytest.mark.parametrize("nwk, kind, root, k", [
    ("(1,(2,3));", "jc-dna", "uniform", None),
    ("(1,(2,3));", "kimura3", "uniform", None),
    ("((1,2),(3,4));", "general-markov", "free", 2),
    ("(1,2,3);", "reversible", "uniform", 3),
])
def test_circuit_matches_expansion(nwk, kind, root, k):
    # eval and the expanded coordinates both come from the circuit, so both
    # are checked against the brute-force oracle
    tree = parse_newick(nwk)
    m = make_model(tree, kind, root_mode=root, k=k)
    jm = expand_map(m)
    patterns = list(itertools.product(range(m.k), repeat=tree.num_leaves))
    for seed in range(5):
        params = random_params(m.symbols, seed)
        via_circuit = jm.circuit.eval(params)
        for i, states in enumerate(patterns):
            want = brute_force_eval(m, params, states)
            assert via_circuit[i] == want
            assert jm.coordinate(i).eval(params) == want


def test_jacobian_matches_derivative_of_expansion(tree4):
    m = make_model(tree4, "general-markov", root_mode="free", k=2)
    jm = expand_map(m)
    params = random_params(m.symbols, 7)
    rows = jm.circuit.jacobian(params, m.symbols, _PRIME)
    assert rows == brute_force_jacobian(jm, params, m.symbols, _PRIME)
    first = first_flat_index(jm)
    assert len(rows) == len(first) == 16
    for row, i in zip(rows, first.values()):
        poly = brute_force_expand(m, paramap.pattern_of_flat(i, 4, 2))
        assert row == [residue(poly.derivative(s).eval(params), _PRIME)
                       for s in m.symbols]


def test_jacobian_without_hidden_nodes(tree4):
    # every node is observed, so each row is one monomial's derivatives
    m = make_model(tree4, "general-markov", k=2, no_hidden=True)
    jm = expand_map(m)
    params = random_params(m.symbols, 11)
    assert jm.circuit.jacobian(params, m.symbols, _PRIME) == \
        brute_force_jacobian(jm, params, m.symbols, _PRIME)


def test_circuit_matches_brute_force_oracle():
    # every k=2 shape with up to 4 leaves
    shapes = ["(1);", "(1,2);", "(1,(2,3));", "(1,2,3);",
              "((1,2),(3,4));", "(1,(2,(3,4)));", "(1,2,3,4);"]
    for nwk in shapes:
        tree = parse_newick(nwk)
        m = make_model(tree, "general-markov", root_mode="free", k=2)
        jm = expand_map(m)
        params = random_params(m.symbols, hash(nwk) % 1000)
        vec = jm.circuit.eval(params)
        for i, states in enumerate(itertools.product(range(2),
                                                     repeat=tree.num_leaves)):
            assert vec[i] == brute_force_eval(m, params, states)


@st.composite
def oracle_models(draw):
    """One of the model kinds on a random tree with 3-5 leaves (root of
    degree 2 or 3).  Models with more than two states stop at 4 leaves: on
    5 leaves the oracle sums up to k^4 hidden assignments for each of k^5
    patterns, about 1 s per example for k = 3 and 15 s for k = 4."""
    kind, root, k, no_hidden = draw(st.sampled_from([
        ("jc-binary", "uniform", None, False),
        ("jc-dna", "uniform", None, False),
        ("kimura2", "uniform", None, False),
        ("kimura3", "uniform", None, False),
        ("general-markov", "free", 2, False),
        ("general-markov", "uniform", 2, True),
        ("reversible", "uniform", 3, False),
        ("homogeneous", "free", 2, False),
    ]))
    two_states = kind == "jc-binary" or k == 2
    nwk = draw_newick(draw, 3, 5 if two_states else 4)
    return make_model(parse_newick(nwk), kind, root_mode=root, k=k,
                      no_hidden=no_hidden)


@given(oracle_models(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_table_build_matches_brute_force(m, seed):
    params = random_params(m.symbols, seed)
    vec = expand_map(m).circuit.eval(params)
    observed = len(m.tree.children) if m.no_hidden else m.tree.num_leaves
    patterns = itertools.product(range(m.k), repeat=observed)
    assert len(vec) == m.k ** observed
    for value, states in zip(vec, patterns):
        assert value == brute_force_eval(m, params, states)


@given(oracle_models(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_pattern_weights_match_brute_force(m, seed):
    params = random_params(m.symbols, seed)
    weights, denominator = paramap.pattern_weights(m, params)
    observed = len(m.tree.children) if m.no_hidden else m.tree.num_leaves
    patterns = itertools.product(range(m.k), repeat=observed)
    assert len(weights) == m.k ** observed
    for w, states in zip(weights.tolist(), patterns):
        assert type(w) is int
        assert Rat(w, denominator) == brute_force_eval(m, params, states)


@st.composite
def group_based_models(draw):
    """A group-based model with a uniform root on a random tree (up to 8
    leaves for jc-binary, 6 otherwise), and random stochastic parameters:
    each off-diagonal symbol of an edge's first row below 1/3, so the
    diagonal is positive."""
    kind = draw(st.sampled_from(["jc-binary", "jc-dna", "kimura2",
                                 "kimura3"]))
    tree = parse_newick(draw_newick(draw, 2, 8 if kind == "jc-binary" else 6))
    m = make_model(tree, kind)
    params = {}
    for tpl in m.templates:
        diagonal, *rest = tpl[0]
        for s in rest:
            params[s] = Rat(draw(st.integers(1, 20)),
                            draw(st.integers(61, 97)))
        params[diagonal] = 1 - sum(params[s] for s in rest)
    return m, params


@given(group_based_models())
@settings(max_examples=50, deadline=None)
def test_pattern_weights_match_the_hadamard_route(model_params):
    # for a group-based model with a uniform root, the Fourier coordinate of
    # a zero-sum leaf labeling g is q_g = prod_e u_e(h_e), with h_e the
    # label of edge e and u_e(h) = sum_x chi_h(x) T_e[0][x], every other q_g
    # is 0, and p = H q / k^n (transform_tensor is H); u_e is scaled by the
    # lcm L_e of its denominators, so q and H q hold ints
    m, params = model_params
    k, n = m.k, m.tree.num_leaves
    u, scale = [], 1
    for tpl in m.templates:
        row = [sum(fourier.char(h, x) * params[s] for x, s in
                   enumerate(tpl[0])) for h in range(k)]
        lcm = math.lcm(*(x.denominator for x in row))
        u.append([int(x * lcm) for x in row])
        scale *= lcm
    leaf, edge = fourier.zero_sum_labelings(m.tree, k)
    q = np.zeros(k ** n, dtype=object)
    q[paramap.flat_index(leaf.T, k)] = [
        np.prod([u[e][h] for e, h in enumerate(labels)], dtype=object)
        for labels in edge.tolist()]
    weights, D = paramap.pattern_weights(m, params)
    assert (k ** n * scale * weights).tolist() == \
        [D * x for x in fourier.transform_tensor(q, k, n)]


def _no_circuit(self):
    raise AssertionError("the circuit was built")


def test_simulation_builds_no_circuit(tree4):
    m = make_model(tree4, "jc-dna")
    jm = expand_map(m)
    params = stochastic_jc_params(tree4, 4)
    with mock.patch.object(paramap.JointMap, "circuit", property(_no_circuit)):
        probs = pipeline.exact_distribution(jm, params)
        aln = pipeline.sample_alignment(jm, params, 100, seed=1)
    assert sum(probs, Rat(0)) == 1 and aln.num_sites == 100
    assert probs == [brute_force_eval(m, params, states)
                     for states in itertools.product(range(4), repeat=4)]


def test_build_makes_one_node_call_per_distinct_row(monkeypatch):
    # a walk per leaf pattern makes over 70 calls per node on this tree
    calls = 0
    node = paramap.Circuit._node

    def counting(self, kind, payload):
        nonlocal calls
        calls += 1
        return node(self, kind, payload)

    monkeypatch.setattr(paramap.Circuit, "_node", counting)
    circ = paramap.build_circuit([make_model(
        parse_newick("(((1,2),(3,4)),((5,6),(7,8)));"), "jc-dna")])
    assert len(circ.outputs) == 4 ** 8
    assert calls <= 5 * len(circ.ops)


@st.composite
def child_id_tables(draw):
    """(kind, unit, width, rows) for Circuit.per_row: ADD or MUL, whether
    child id 0 is the unit constant, and a table of child ids of that width
    (0 to 6 columns, 0 for products only), ids up to 2^20 so that six
    columns fold past 2^62, and small ones common so that rows repeat."""
    kind = draw(st.sampled_from([paramap.ADD, paramap.MUL]))
    width = draw(st.integers(0 if kind == paramap.MUL else 1, 6))
    ids = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 20))
    rows = draw(st.lists(st.lists(ids, min_size=width, max_size=width),
                         max_size=30))
    return kind, draw(st.booleans()), width, rows


@given(child_id_tables())
@example((paramap.MUL, True, 6, [[2 ** 20, 0, 3, 2 ** 20 - 1, 7, 0],
                                  [0, 3, 7, 2 ** 20 - 1, 0, 2 ** 20],
                                  [0, 0, 0, 0, 0, 0], [5, 0, 0, 0, 0, 0],
                                  [2 ** 20] * 6]))
# keys that wrapped round 2^64 would collide here: base 2^16, six columns
@example((paramap.ADD, False, 6, [[0, 1, 2, 3, 4, 2 ** 16 - 1],
                                  [1, 1, 2, 3, 4, 2 ** 16 - 1]]))
@settings(max_examples=200, deadline=None)
def test_per_row_makes_one_node_per_distinct_sorted_row(case):
    kind, unit, width, rows = case
    circ = paramap.Circuit()
    zero = circ.const(1) if unit else circ.sym("x")
    made = circ.per_row(kind, np.array(rows, dtype=np.int64)
                        .reshape(len(rows), width))
    assert zero == 0 and made.shape == (len(rows),)
    # the node rules, on a plain dict from sorted children to node id, and
    # the least sorted row before the unit constant is dropped
    nodes, least = {}, {}
    for row, nid in zip(rows, made.tolist()):
        drop = unit and kind == paramap.MUL
        kids = tuple(sorted(c for c in row if not (drop and c == 0)))
        if len(kids) == 1:
            assert nid == kids[0]
            continue
        op = (kind, kids) if kids else (paramap.CONST, 1)
        assert circ.ops[nid] == op
        assert nodes.setdefault(kids, nid) == nid
        least[kids] = min(least.get(kids, tuple(sorted(row))),
                          tuple(sorted(row)))
    # one new node per distinct row, none when the unit constant is reused,
    # made in lexicographic order of the sorted rows
    assert len(circ.ops) == 1 + len(nodes) - (unit and () in nodes)
    assert [nodes[kids] for kids in sorted(nodes, key=least.get)] == \
        sorted(nodes.values())


def test_op_counts_homogeneous(tree3):
    m = make_model(tree3, "homogeneous", root_mode="free", k=2,
                   homogeneous_base="general-markov")
    jm = expand_map(m)
    mul, add = jm.circuit.op_counts(jm.circuit.outputs[0])
    assert (mul, add) == (10, 3)
    emul, eadd = paramap.expanded_op_count(jm.coordinate(0))
    assert (emul, eadd) == (16, 3)


def test_op_count_monotone():
    for nwk, kind, k in [("(1,(2,3));", "jc-binary", None),
                         ("((1,2),(3,4));", "general-markov", 2)]:
        tree = parse_newick(nwk)
        jm = expand_map(make_model(tree, kind, k=k))
        for i in range(jm.num_coordinates):
            mul, _ = jm.circuit.op_counts(jm.circuit.outputs[i])
            emul, _ = paramap.expanded_op_count(jm.coordinate(i))
            assert mul <= emul


def test_symmetry_classes_jc_dna(tree3):
    jm = expand_map(make_model(tree3, "jc-dna"))
    classes = paramap.symmetry_classes(jm)
    assert [len(c) for c in classes] == [4, 12, 12, 12, 24]
    assert classes[0][0] == 0
    # deterministic: class order by smallest flat index
    firsts = [c[0] for c in classes]
    assert firsts == sorted(firsts)


def test_symmetry_classes_generic_are_singletons(tree3):
    jm = expand_map(make_model(tree3, "general-markov", k=2))
    assert all(len(c) == 1 for c in paramap.symmetry_classes(jm))


@pytest.mark.parametrize("nwk, kind, root, k, base", [
    ("(1,(2,3));", "jc-dna", "uniform", None, None),
    ("((1,2),(3,4));", "jc-dna", "uniform", None, None),
    ("((1,2),(3,4));", "kimura2", "uniform", None, None),
    ("((1,2),(3,4));", "kimura3", "uniform", None, None),
    ("(1,(2,3));", "homogeneous", "free", 2, "general-markov"),
    # 5 output nodes, 4 distinct polynomials: equal nodes are merged
    ("((1,2),3,4);", "homogeneous", "uniform", 2, "jc-binary"),
])
def test_symmetry_classes_equal_expansion_classes(nwk, kind, root, k, base):
    m = make_model(parse_newick(nwk), kind, root_mode=root, k=k,
                   homogeneous_base=base)
    assert paramap.symmetry_classes(expand_map(m)) == \
        expansion_classes(expand_map(m))


def test_accumulated_sum_is_one(tree3):
    m = make_model(tree3, "jc-dna")
    jm = expand_map(m)
    acc = paramap.accumulate_classes(jm, paramap.symmetry_classes(jm))
    params = stochastic_jc_params(tree3, 4)
    total = sum((p.eval(params) for p in acc), Rat(0))
    assert total == 1


def test_multihomogeneous_per_edge(tree4):
    jm = expand_map(make_model(tree4, "jc-dna"))
    for i in (0, 17, 255):
        p = jm.coordinate(i)
        for mono in p.terms:
            # degree per edge symbol family, read off the leading letter
            by_edge = {}
            for name in mono:
                letter = name[0]
                by_edge[letter] = by_edge.get(letter, 0) + 1
            assert all(v == 1 for v in by_edge.values())
            assert len(by_edge) == tree4.num_edges


def test_no_hidden_monomial_map(tree3):
    m = make_model(tree3, "jc-binary", no_hidden=True)
    jm = expand_map(m)
    # one monomial per full assignment of all nodes
    for i in range(jm.num_coordinates):
        assert jm.coordinate(i).num_terms() == 1


def test_pattern_helpers(tree3):
    m = make_model(tree3, "jc-dna")
    assert paramap.pattern_label((0, 1, 3), m.k) == "ACT"
    assert paramap.parse_pattern("ACT", 3, m.k) == (0, 1, 3)
    assert paramap.pattern_of_flat(paramap.flat_index((0, 1, 3), 4),
                                   3, 4) == (0, 1, 3)


@pytest.mark.parametrize("kind, text", [
    ("jc-binary", "002"),     # state 2 does not exist for k=2
    ("jc-binary", "0a1"),
    ("jc-dna", "ACN"),
    ("jc-dna", "acg"),        # labels are upper case
    ("jc-dna", "AC"),         # one leaf short
    ("jc-dna", "ACGT"),       # one leaf too many
    ("jc-dna", ""),
])
def test_parse_pattern_rejects_bad_text(tree3, kind, text):
    with pytest.raises(ValueError, match=f"bad pattern '{text}'"):
        paramap.parse_pattern(text, tree3.num_leaves,
                              make_model(tree3, kind).k)


# state alphabets written out here, independent of models.alphabet
_ALPHABETS = {2: "01", 3: "012", 4: "ACGT"}


@st.composite
def _pattern_cases(draw):
    """(n, k, leaves, below, seed, flat indices): a bipartition of n <= 5
    leaves, k in {2, 3, 4}, a seed for a random tensor and some sites."""
    n = draw(st.integers(2, 5))
    k = draw(st.sampled_from(sorted(_ALPHABETS)))
    leaves = [str(i + 1) for i in range(n)]
    below = draw(st.lists(st.sampled_from(leaves), min_size=1,
                          max_size=n - 1, unique=True))
    sites = draw(st.lists(st.integers(0, k ** n - 1), min_size=1,
                          max_size=40))
    return n, k, leaves, below, draw(st.integers(0, 2 ** 32 - 1)), sites


@given(_pattern_cases())
@settings(max_examples=40, deadline=None)
def test_pattern_format_matches_the_oracles(case):
    n, k, leaves, below, seed, sites = case
    rng = random.Random(seed)
    tensor = [random_rat(rng) for _ in range(k ** n)]
    split = (below, [l for l in leaves if l not in below])
    assert invariants.flatten(tensor, leaves, split, k=k) == \
        stride_flatten(tensor, leaves, split, k)
    # the character transform exists for the groups Z2 (k = 2) and Z2 x Z2
    if k in (fourier.Z2, fourier.Z2xZ2):
        q = fourier.transform_tensor(tensor, k, n)
        assert q == stride_transform(tensor, k, n)
        back = fourier.transform_tensor(q, k, n)
        assert back == stride_transform(q, k, n)
        assert back == [k ** n * v for v in tensor]
    expected = [stride_pattern(i, n, k) for i in sites]
    for i, states in zip(sites, expected):
        assert paramap.pattern_of_flat(i, n, k) == states
        assert paramap.flat_index(states, k) == i
    idx = np.array(sites)
    arrays = paramap.pattern_of_flat(idx, n, k)
    assert np.array(arrays).T.tolist() == [list(s) for s in expected]
    assert paramap.flat_index(arrays, k).tolist() == sites
    rows = ["".join(_ALPHABETS[k][s[leaf]] for s in expected)
            for leaf in range(n)]
    counts = pipeline.pattern_counts(pipeline.Alignment(leaves, rows), k)
    assert counts == np.bincount(idx, minlength=k ** n).tolist()

import json

import pytest

from phyloag import make_model, parse_newick
from phyloag.exactalg import Rat
from phyloag import models


def test_general_markov_symbol_count(tree3):
    # (2n-2) edges, k^2 symbols each, plus k root symbols
    m = make_model(tree3, "general-markov", root_mode="free", k=2)
    assert len(m.symbols) == 4 * 4 + 2 == 18
    m4 = make_model(tree3, "general-markov", root_mode="free", k=4)
    assert len(m4.symbols) == 4 * 16 + 4


def test_jc_templates(tree3):
    m = make_model(tree3, "jc-dna")
    tpl = m.templates[0]
    assert tpl[0][0] == "a0"
    assert all(tpl[i][j] == ("a0" if i == j else "a1")
               for i in range(4) for j in range(4))
    assert m.k == 4 and m.root == [Rat(1, 4)] * 4


def test_kimura_templates(tree3):
    m3 = make_model(tree3, "kimura3")
    tpl = m3.templates[0]
    # constant on cosets of Z2 x Z2; diagonal is the identity coset
    assert [tpl[0][j] for j in range(4)] == ["a0", "a1", "a2", "a3"]
    assert tpl[1][0] == "a1" and tpl[2][3] == "a1"
    m2 = make_model(tree3, "kimura2")
    assert [m2.templates[0][0][j] for j in range(4)] == ["a0", "a1", "a2", "a2"]


def test_reversible_template_symmetry(tree3):
    m = make_model(tree3, "reversible", k=3)
    tpl = m.templates[1]
    for i in range(3):
        for j in range(3):
            assert tpl[i][j] == tpl[j][i]


def test_homogeneous_ties_edges(tree3):
    m = make_model(tree3, "homogeneous", k=2,
                   homogeneous_base="general-markov")
    assert all(t == m.templates[0] for t in m.templates)
    assert len(m.symbols) == 4


def test_implied_k_conflicts(tree3):
    with pytest.raises(ValueError):
        make_model(tree3, "jc-dna", k=2)
    with pytest.raises(ValueError):
        make_model(tree3, "general-markov")      # needs k
    with pytest.raises(ValueError):
        make_model(tree3, "nonsense", k=2)


def test_root_weights(tree3):
    uni = make_model(tree3, "jc-binary")
    assert uni.root == [Rat(1, 2), Rat(1, 2)]
    free = make_model(tree3, "jc-binary", root_mode="free")
    assert free.root == ["pi0", "pi1"]
    assert "pi0" in free.symbols


def test_prefix_disjoint(tree3):
    a = make_model(tree3, "jc-binary", prefix="x0")
    b = make_model(tree3, "jc-binary", prefix="x1")
    assert not set(a.symbols) & set(b.symbols)


def test_state_labels(tree3):
    m = make_model(tree3, "jc-dna")
    assert [models.alphabet(m.k)[i] for i in range(4)] == list("ACGT")
    assert models.alphabet(m.k).index("G") == 2
    mb = make_model(tree3, "jc-binary")
    assert models.alphabet(mb.k)[1] == "1"


def test_validate_stochastic(tree3):
    m = make_model(tree3, "jc-binary")
    good = {}
    for eid in range(tree3.num_edges):
        letter = models.edge_letter(eid)
        good[f"{letter}0"] = Rat(3, 4)
        good[f"{letter}1"] = Rat(1, 4)
    assert models.validate_stochastic(m, good)["stochastic"]
    bad = dict(good, a0=Rat(1, 2))
    report = models.validate_stochastic(m, bad)
    assert not report["stochastic"]          # advisory, no exception
    with pytest.raises(KeyError):
        models.validate_stochastic(m, {"a0": 1})


def test_config_roundtrip(tmp_path):
    cfg = {"newick": "(1,(2,3));", "kind": "jc-dna", "root": "uniform",
           "params": {"a0": "1/4", "a1": "1/4"}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    model, params = models.load_model_config(path)
    assert model.kind == "jc-dna"
    assert model.tree.to_newick() == "(1,(2,3));"
    assert params == {"a0": Rat(1, 4), "a1": Rat(1, 4)}


@pytest.mark.parametrize("field", ["newick", "kind"])
def test_config_without_a_required_field(field):
    cfg = {"newick": "(1,(2,3));", "kind": "jc-dna"}
    del cfg[field]
    with pytest.raises(ValueError, match=f"config has no '{field}'"):
        models.load_model_config(cfg)


_QUARTET = {"newick": "((1,2),(3,4));", "kind": "jc-dna"}


@pytest.mark.parametrize("cfg, message", [
    (dict(_QUARTET, kind="general-markov", k="4"),
     "config: 'k' must be an int, got \"4\""),
    (dict(_QUARTET, newick=5), "config: 'newick' must be a string, got 5"),
    (dict(_QUARTET, params=["a0", "1/4"]), "params must be a JSON object"),
    (dict(_QUARTET, params={"a0": True}),
     "params: 'a0' must be a string or an int, got true"),
    (["((1,2),(3,4));"], "config must be a JSON object"),
], ids=["string-k", "int-newick", "list-params", "bool-param", "list"])
def test_config_of_the_wrong_type_is_a_value_error(tmp_path, cfg, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    for source in (cfg, path, str(path)):
        with pytest.raises(ValueError) as info:
            models.load_model_config(source)
        assert str(info.value) == message


@pytest.mark.parametrize("cfg, message", [
    (dict(_QUARTET, kind="jukes-cantor"), "unsupported model kind "
     "'jukes-cantor'"),
    (dict(_QUARTET, kind="homogeneous", homogeneous_base="foo", k=2),
     "unsupported homogeneous base 'foo'"),
    (dict(_QUARTET, kind="homogeneous", homogeneous_base="homogeneous", k=2),
     "unsupported homogeneous base 'homogeneous'"),
], ids=["kind", "base", "nested-base"])
def test_config_names_the_unsupported_kind(cfg, message):
    # the kind was once checked after k, so an unknown kind without k was
    # reported as needing k, and a bad base as an unsupported 'homogeneous'
    with pytest.raises(ValueError) as info:
        models.load_model_config(cfg)
    assert str(info.value) == message


def test_params_are_read_exactly():
    assert models.read_params({"a0": "1/4", "a1": 3}) == \
        {"a0": Rat(1, 4), "a1": Rat(3)}
    with pytest.raises(ValueError, match="params: 'a0' must be a string or "
                       "an int, got 0.25"):
        models.read_params({"a0": 0.25})


@pytest.mark.parametrize("k", [12, 20])
def test_general_markov_symbols_are_distinct_beyond_ten_states(tree3, k):
    # with two-digit states, a[1][10] and a[11][0] were both "a110"
    m = make_model(tree3, "general-markov", root_mode="free", k=k)
    for tpl in m.templates:
        assert len({s for row in tpl for s in row}) == k * k
    assert len(m.symbols) == m.tree.num_edges * k * k + k
    assert m.templates[0][1][10] == "a1a" and m.templates[0][11][0] == "ab0"
    assert m.root[10] == "pia"


def test_symbols_up_to_ten_states_keep_their_names(tree3):
    m = make_model(tree3, "general-markov", root_mode="free", k=10)
    assert m.templates[1] == [[f"b{i}{j}" for j in range(10)]
                              for i in range(10)]
    assert m.root == [f"pi{s}" for s in range(10)]
    r = make_model(tree3, "reversible", k=10)
    assert r.templates[0][9][3] == "a39"


def test_make_model_rejects_more_than_36_states(tree3):
    assert make_model(tree3, "general-markov", k=36).templates[0][35][0] \
        == "az0"
    with pytest.raises(ValueError, match="k must be at most 36, got 37"):
        make_model(tree3, "general-markov", k=37)


CATERPILLAR16 = "(1,(2,(3,(4,(5,(6,(7,(8,9))))))));"


@pytest.mark.parametrize("kind, shared", [
    ("general-markov", "pi0, pi1, pi2, pi3, pi4, pi5, pi6, pi7, pi8, pi9, "
                       "pia, pib, pic, pid, pie, pif, pig, pih, pii"),
    ("reversible", "pii")], ids=["general-markov", "reversible"])
def test_root_weights_must_not_share_edge_symbols(kind, shared):
    # edge 15 has letter p, so its cells (18, s) are named like root weights
    tree = parse_newick(CATERPILLAR16)
    assert tree.num_edges == 16
    with pytest.raises(ValueError) as err:
        make_model(tree, kind, root_mode="free", k=19)
    assert str(err.value) == \
        f"root weights share names with edge parameters: {shared}"
    m = make_model(tree, kind, root_mode="free", k=18)
    cells = {s for tpl in m.templates for row in tpl for s in row}
    assert not cells & set(m.root)


def test_a_tree_without_edges_has_no_model():
    with pytest.raises(ValueError, match="the tree has no edges"):
        make_model(parse_newick("A;"), "jc-dna")

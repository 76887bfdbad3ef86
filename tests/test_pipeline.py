import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phyloag import expand_map, make_model, parse_newick
from phyloag.exactalg import Rat
from phyloag import invariants, paramap, pipeline

from conftest import rational_scan_inverse_cdf, stochastic_jc_params


@pytest.fixture
def quartet_setup(tree4):
    model = make_model(tree4, "jc-dna")
    jmap = expand_map(model)
    params = stochastic_jc_params(tree4, 4, denom_base=30)
    return model, jmap, params


def test_exact_distribution_sums_to_one(quartet_setup):
    model, jmap, params = quartet_setup
    probs = pipeline.exact_distribution(jmap, params)
    assert sum(probs, Rat(0)) == 1
    assert all(v > 0 for v in probs)


def test_exact_distribution_rejects_bad_params(quartet_setup, monkeypatch):
    model, jmap, params = quartet_setup
    bad = dict(params, a0=Rat(1, 2))
    with pytest.raises(ValueError):
        pipeline.exact_distribution(jmap, bad)
    # weights that miss their denominator by one fail the exact check
    weights, D = paramap.pattern_weights(model, params)
    weights[0] += 1
    monkeypatch.setattr(paramap, "pattern_weights",
                        lambda model, params: (weights.copy(), D))
    with pytest.raises(ValueError, match=r"sums to \d+/\d+, not 1"):
        pipeline.exact_distribution(jmap, params)


def test_exact_distribution_rejects_a_mixture(tree4):
    mix = invariants.make_mixture(tree4, "jc-dna", 2)
    params = {s: Rat(1, 4) for s in mix.symbols()}
    with pytest.raises(ValueError, match="mixture of 2 models"):
        pipeline.exact_distribution(mix, params)
    with pytest.raises(ValueError, match="mixture of 2 models"):
        pipeline.sample_alignment(mix, params, 10, seed=1)


def test_sampling_deterministic(quartet_setup):
    model, jmap, params = quartet_setup
    a = pipeline.sample_alignment(jmap, params, 500, seed=123)
    b = pipeline.sample_alignment(jmap, params, 500, seed=123)
    c = pipeline.sample_alignment(jmap, params, 500, seed=124)
    assert a.rows == b.rows
    assert a.rows != c.rows
    assert a.num_sites == 500
    assert a.names == ["1", "2", "3", "4"]


def test_empirical_tensor_counts(quartet_setup):
    model, jmap, params = quartet_setup
    aln = pipeline.sample_alignment(jmap, params, 200, seed=1)
    counts = pipeline.pattern_counts(aln, model.k)
    assert sum(counts) == 200
    freqs = pipeline.empirical_tensor(aln, model)
    assert abs(sum(freqs) - 1.0) < 1e-12


def test_pattern_counts_rejects_ragged():
    aln = pipeline.Alignment(names=["1", "2", "3", "4"],
                             rows=["ACGTA", "ACGTA", "ACGTA", "AC"])
    with pytest.raises(ValueError, match="unequal lengths"):
        pipeline.pattern_counts(aln, 4)


def test_empirical_tensor_maps_rows_by_name(quartet_setup):
    model, jmap, params = quartet_setup
    aln = pipeline.sample_alignment(jmap, params, 300, seed=3)
    order = [0, 2, 1, 3]
    permuted = pipeline.Alignment(names=[aln.names[i] for i in order],
                                  rows=[aln.rows[i] for i in order])
    assert pipeline.empirical_tensor(permuted, model) == \
        pipeline.empirical_tensor(aln, model)


@pytest.mark.parametrize("names, num_rows", [
    (["x", "y", "z", "w"], 4),          # foreign
    (["1", "2", "3"], 3),               # missing
    (["1", "2", "3", "4", "5"], 5),     # extra
    (["1", "2", "3", "3"], 4),          # duplicate
    (["1", "2", "3", "4"], 3),          # a name without a row
])
def test_empirical_tensor_rejects_foreign_names(quartet_setup, names,
                                                num_rows):
    model, _, _ = quartet_setup
    aln = pipeline.Alignment(names=names, rows=["ACGT"] * num_rows)
    with pytest.raises(ValueError, match="names"):
        pipeline.empirical_tensor(aln, model)


@st.composite
def distributions_and_draws(draw):
    """An exact distribution with zero-probability patterns, and Philox-style
    draws m * 2^-53 that include 0 and every cumulative value's neighbours,
    so ties between a draw and a cumulative sum occur."""
    size = draw(st.integers(1, 12))
    if draw(st.booleans()):
        # denominator 2^53: cumulative sums are themselves possible draws
        cuts = sorted(draw(st.lists(st.integers(0, 2**53), min_size=size - 1,
                                    max_size=size - 1)))
        bounds = [0] + cuts + [2**53]
        probs = [Rat(b - a, 2**53) for a, b in zip(bounds, bounds[1:])]
    else:
        weights = draw(st.lists(st.integers(0, 50), min_size=size,
                                max_size=size).filter(any))
        probs = [Rat(w, sum(weights)) for w in weights]
    ms = draw(st.lists(st.integers(0, 2**53 - 1), max_size=20)) + [0]
    acc = Rat(0)
    for p in probs:
        acc += p
        base = acc.numerator * 2**53 // acc.denominator
        ms += [m for m in (base - 1, base, base + 1) if 0 <= m < 2**53]
    return probs, np.array(ms, dtype=np.float64) * 2.0**-53


def integer_cdf(probs):
    """(cum, D): the cumulative sums of exact probabilities as integers over
    their common denominator D."""
    D = math.lcm(*(int(p.denominator) for p in probs))
    return list(itertools.accumulate(
        int(p.numerator) * (D // int(p.denominator)) for p in probs)), D


@given(distributions_and_draws())
@settings(max_examples=200, deadline=None)
def test_inverse_cdf_matches_rational_scan(case):
    probs, u = case
    assert pipeline._inverse_cdf(*integer_cdf(probs), u).tolist() == \
        rational_scan_inverse_cdf(probs, u)


def test_total_variation_converges(quartet_setup):
    model, jmap, params = quartet_setup
    probs = pipeline.exact_distribution(jmap, params)
    tv_small = pipeline.total_variation(
        probs, pipeline.empirical_tensor(
            pipeline.sample_alignment(jmap, params, 500, seed=5), model))
    tv_large = pipeline.total_variation(
        probs, pipeline.empirical_tensor(
            pipeline.sample_alignment(jmap, params, 20000, seed=5), model))
    assert tv_large < tv_small


def test_leaf_alignments_reject_a_model_without_hidden_nodes(tree3):
    # its patterns have a digit per node, but only the leaves have rows
    model = make_model(tree3, "jc-binary", no_hidden=True)
    params = stochastic_jc_params(tree3, 2)
    with pytest.raises(ValueError, match="internal nodes"):
        pipeline.sample_alignment(expand_map(model), params, 3, seed=1)
    aln = pipeline.sample_alignment(
        expand_map(make_model(tree3, "jc-binary")), params, 3, seed=1)
    with pytest.raises(ValueError, match="internal nodes"):
        pipeline.empirical_tensor(aln, model)


def test_total_variation_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="8 and 32 entries"):
        pipeline.total_variation([0.125] * 8, [Rat(1, 32)] * 32)


def test_quartet_scores_exact_zero(quartet_setup):
    model, jmap, params = quartet_setup
    probs = pipeline.exact_distribution(jmap, params)
    winner, scores, decisive = pipeline.infer_quartet(probs,
                                                      ["1", "2", "3", "4"],
                                                      4, 4)
    assert winner == "(12)(34)"
    assert scores["(12)(34)"] == 0.0
    assert scores["(13)(24)"] > 0
    assert decisive


def test_quartet_indecisive_on_star():
    # star tree data carries no split signal
    star = parse_newick("(1,2,3,4);")
    jmap = expand_map(make_model(star, "jc-dna"))
    params = stochastic_jc_params(star, 4, denom_base=25)
    probs = pipeline.exact_distribution(jmap, params)
    _, scores, decisive = pipeline.infer_quartet(probs, ["1", "2", "3", "4"],
                                                 4, 4)
    assert not decisive


def test_score_splits_validates_leaf_count():
    with pytest.raises(ValueError):
        pipeline.score_splits([0.0] * 8, ["1", "2", "3"], 2, 1)


@pytest.mark.parametrize("k, rank", [(2, 0), (2, 4), (4, -1), (4, 16)])
def test_score_splits_validates_rank(k, rank):
    with pytest.raises(ValueError, match="rank must be in"):
        pipeline.score_splits([0.0] * k ** 4, ["1", "2", "3", "4"], k, rank)


def test_fasta_roundtrip(tmp_path, quartet_setup):
    model, jmap, params = quartet_setup
    aln = pipeline.sample_alignment(jmap, params, 50, seed=9)
    path = tmp_path / "a.fasta"
    pipeline.write_fasta(aln, path)
    back = pipeline.read_fasta(path)
    assert back.names == aln.names
    assert back.rows == aln.rows


def test_fasta_wrapped_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    names = ["1", "2", "3", "4"]
    rows = ["".join(rng.choice(list("ACGT"), 150)) for _ in names]
    wrapped = tmp_path / "wrapped.fasta"
    wrapped.write_text("".join(
        f">{name}\n" + "".join(row[i:i + 60] + "\n"
                               for i in range(0, len(row), 60))
        for name, row in zip(names, rows)))
    back = pipeline.read_fasta(wrapped)
    assert (back.names, back.rows) == (names, rows)
    flat = tmp_path / "flat.fasta"
    pipeline.write_fasta(back, flat)
    again = pipeline.read_fasta(flat)
    assert (again.names, again.rows) == (names, rows)


def test_fasta_rejects_ragged(tmp_path):
    path = tmp_path / "bad.fasta"
    path.write_text(">x\nACGT\n>y\nAC\n")
    with pytest.raises(ValueError):
        pipeline.read_fasta(path)


def test_pattern_counts_beyond_ten_states():
    # states 10 and 11 are the characters a and b
    aln = pipeline.Alignment(names=["1", "2"], rows=["0ab", "b0a"])
    counts = pipeline.pattern_counts(aln, 12)
    assert len(counts) == 144 and sum(counts) == 3
    assert counts[0 * 12 + 11] == counts[10 * 12 + 0] == \
        counts[11 * 12 + 10] == 1
    with pytest.raises(ValueError, match="'c' is not in the 12-state"):
        pipeline.pattern_counts(
            pipeline.Alignment(names=["1", "2"], rows=["0c", "00"]), 12)

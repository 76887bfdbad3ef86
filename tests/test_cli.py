import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from phyloag import Rat, invariants, parse_newick
from phyloag.cli import main

from conftest import draw_newick, fresh_process_env, stochastic_jc_params


@pytest.fixture
def tree_file(tmp_path):
    p = tmp_path / "t.nwk"
    p.write_text("((1,2),(3,4));\n")
    return str(p)


@pytest.fixture
def params_file(tmp_path):
    from fractions import Fraction
    params = {}
    for i, letter in enumerate("abcdef"):
        a1 = Fraction(1, 40 + i)
        params[f"{letter}1"] = str(a1)
        params[f"{letter}0"] = str(1 - 3 * a1)
    p = tmp_path / "params.json"
    p.write_text(json.dumps(params))
    return str(p), params


def test_param_json(tree_file, capsys):
    rc = main(["param", "--tree", tree_file, "--model", "jc-dna",
               "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 6
    assert out["num_coordinates"] == 256


def test_param_coordinate_and_stats(tree_file, capsys):
    rc = main(["param", "--tree", tree_file, "--model", "jc-dna",
               "--coordinate", "AAAA", "--circuit-stats", "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "AAAA" in out["coordinate"]
    assert out["circuit_stats"]["0"]["mul"] > 0


# SHA-256 of the stdout of `phylo-ag param`; the homogeneous model's
# coordinates print powers
_PARAM_STDOUT = [
    ("((1,2),((3,4),(5,6)));", ["--model", "jc-dna", "--accumulated"],
     "0e7e63ee48b89e91c587ca4574f6e30a227f6e3c189b631f55cc14062806f245"),
    ("(1,(2,3));", ["--model", "homogeneous", "--k", "2", "--root", "free",
                    "--accumulated"],
     "27f37ce9c432da6966bbbf0c3c3309b2b94843e37a13fc47c9ccfe35493c633e"),
    ("(1,(2,3));", ["--model", "homogeneous", "--k", "2", "--root", "free",
                    "--coordinate", "010", "--format", "json"],
     "5a204ced754a2945bb4bef8bcc3f0fe64cb567cf0190cd50010281814cf4bbad"),
    ("((1,2),((3,4),(5,6)));", ["--model", "jc-dna", "--circuit-stats"],
     "220bbb51f06780b8131683258fecf542e5841dd35ad01ab1bba2e28e817bfcd8"),
]


@pytest.mark.parametrize("newick, extra, digest", _PARAM_STDOUT,
                         ids=["jc-dna-6-accumulated",
                              "homogeneous-accumulated",
                              "homogeneous-coordinate-json",
                              "jc-dna-6-circuit-stats"])
def test_param_stdout_is_pinned(tmp_path, newick, extra, digest):
    # a fresh process, so the digest covers the command's whole output path
    tree = tmp_path / "t.nwk"
    tree.write_text(newick + "\n")
    out = subprocess.run(
        [sys.executable, "-m", "phyloag.cli", "param", "--tree", str(tree)]
        + extra, env=fresh_process_env(), capture_output=True,
        check=True).stdout
    assert hashlib.sha256(out).hexdigest() == digest


def test_param_bad_pattern(tree_file, capsys):
    assert main(["param", "--tree", tree_file, "--model", "jc-dna",
                 "--coordinate", "AA"]) == 2


def test_param_rejects_a_state_outside_the_model(tree_file, capsys):
    # state 2 does not exist for k=2, though its flat index is in range
    assert main(["param", "--tree", tree_file, "--model", "jc-binary",
                 "--coordinate", "0002"]) == 2
    captured = capsys.readouterr()
    assert "bad pattern '0002'" in captured.err
    assert captured.out == ""


def test_fourier_map_csv(tree_file, capsys):
    rc = main(["fourier", "--tree", tree_file, "--model", "jc-dna", "--map"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].count(",") == 13
    assert len(lines) == 13


def test_fourier_binomials(tree_file, capsys):
    rc = main(["fourier", "--tree", tree_file, "--model", "jc-dna",
               "--binomials", "2", "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["binomials"]) == 10


def test_closed_output_pipe_exits_quietly(tmp_path):
    # about 250 kB of binomials, more than a pipe buffers, so the writer
    # meets the closed pipe while it still has lines to print
    tree = tmp_path / "t.nwk"
    tree.write_text("((1,2),(3,(4,5)));\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "phyloag.cli", "fourier", "--tree", str(tree),
         "--model", "jc-dna", "--binomials", "3"],
        env=fresh_process_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(5)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert all(line.endswith(b"\n") for line in head)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_fourier_rejects_general_markov(tree_file):
    assert main(["fourier", "--tree", tree_file, "--model", "general-markov",
                 "--k", "2"]) == 2


@pytest.mark.parametrize("extra", [[], ["--binomials", "2"]])
def test_fourier_rejects_a_free_root(tree_file, capsys, extra):
    assert main(["fourier", "--tree", tree_file, "--model", "jc-dna",
                 "--root", "free"] + extra) == 2
    assert "monomial map requires a uniform root" in capsys.readouterr().err


def test_invariants_flatten_minors(tree_file, capsys):
    rc = main(["invariants", "--tree", tree_file, "--model", "general-markov",
               "--k", "2", "--flatten", "1,2|3,4", "--minors", "3",
               "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["flattening"]) == 4
    assert len(out["minors"]) == 16


def test_invariants_bad_split(tree_file):
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--flatten", "1|2"]) == 2


def test_invariants_split_without_a_bar(tree_file, capsys):
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--flatten", "1,2"]) == 2
    assert "split must look like '1,2|3,4'" in capsys.readouterr().err


@pytest.mark.parametrize("split, leaf", [("1,1|2,3,4", "'1'"),
                                         ("1|2,3,4,4", "'4'")])
def test_invariants_split_naming_a_leaf_twice(tree_file, capsys, split,
                                              leaf):
    # a repeated leaf must not collapse into the 1|2,3,4 flattening
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--flatten", split]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the split names leaf {leaf} twice" in captured.err


def test_infer_quartet_rejects_a_repeated_sequence_name(tmp_path, capsys):
    aln = tmp_path / "twice.fasta"
    aln.write_text(">a\nACGT\n>a\nACGA\n>b\nACGT\n>c\nAGGT\n")
    assert main(["infer-quartet", "--alignment", str(aln)]) == 2
    assert "the leaf order names leaf 'a' twice" in capsys.readouterr().err


def test_dim_command(tree_file, capsys):
    rc = main(["dim", "--tree", tree_file, "--model", "jc-dna",
               "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["projective_dimension"] == 5


@pytest.mark.parametrize("command", ["dim"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_dim_rejects_mixture_below_one(tree_file, capsys, command, count):
    assert main([command, "--tree", tree_file, "--model", "jc-dna",
                 "--mixture", count]) == 2
    assert "--mixture must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["param", "dim"])
@pytest.mark.parametrize("k", ["0", "-2"])
def test_k_below_one_is_validation_error(tree_file, capsys, command, k):
    assert main([command, "--tree", tree_file, "--model", "general-markov",
                 "--k", k]) == 2
    assert f"k must be at least 1, got {k}" in capsys.readouterr().err


def test_fourier_binomial_degree_too_high(tree_file, capsys):
    assert main(["fourier", "--tree", tree_file, "--model", "jc-dna",
                 "--binomials", "5"]) == 2
    assert "binomial search supports degree <= 3" in capsys.readouterr().err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_fourier_binomial_degree_below_one(tree_file, capsys, degree):
    assert main(["fourier", "--tree", tree_file, "--model", "jc-dna",
                 "--binomials", degree]) == 2
    assert f"binomial degree must be at least 1, got {degree}" in \
        capsys.readouterr().err


def test_invariants_minors_need_a_flattening(tree_file, capsys):
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--minors", "2"]) == 2
    assert "--minors needs --flatten SPLIT" in capsys.readouterr().err


def test_invariants_minor_size_out_of_range(tmp_path, capsys):
    tree = tmp_path / "t3.nwk"
    tree.write_text("(1,(2,3));\n")
    assert main(["invariants", "--tree", str(tree), "--model", "jc-dna",
                 "--flatten", "1|2,3", "--minors", "9"]) == 2
    assert "minor size 9 out of range for 4x16" in capsys.readouterr().err


def test_invariants_bad_coords_polynomial(tree_file, tmp_path, capsys):
    coords = tmp_path / "coords.json"
    coords.write_text(json.dumps({"x": "u*", "y": "u"}))
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--interpolate", "1", "--coords", str(coords)]) == 2
    assert "bad coords" in capsys.readouterr().err


def test_invariants_interpolate_needs_coords(tree_file, capsys):
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--interpolate", "1"]) == 2
    assert "--interpolate needs --coords FILE" in capsys.readouterr().err


def test_interpolation_out_of_primes_is_degenerate(tree_file, tmp_path,
                                                   capsys, monkeypatch):
    # a coefficient of 2 * 200 bits outgrows two primes of 23 bits
    monkeypatch.setattr(invariants, "_primes",
                        lambda: iter(invariants._PRIMES[:2]))
    path = tmp_path / "coords.json"
    path.write_text(json.dumps({"x": "u",
                                "y": f"{2 ** 200 - 1}/{2 ** 200 - 3}*u"}))
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--interpolate", "1", "--coords", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("degenerate: interpolation failed")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 4.20 GiB for an array with shape "
                 "(23761, 23751) and data type float64"),
     "error: out of memory: Unable to allocate 4.20 GiB for an array with "
     "shape (23761, 23751) and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_2(tree_file, tmp_path, capsys, monkeypatch,
                               exc, message):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(invariants, "interpolate_vanishing_forms", fail)
    path = tmp_path / "coords.json"
    path.write_text(json.dumps({"x": "u", "y": "u"}))
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--interpolate", "1", "--coords", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_check_config_without_params(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"newick": "((1,2),(3,4));",
                                "kind": "jc-dna"}))
    assert main(["check", "--config", str(path)]) == 2
    assert "config has no params to check" in capsys.readouterr().err


def test_check_command(tmp_path, params_file, capsys):
    path, params = params_file
    cfg = {"newick": "((1,2),(3,4));", "kind": "jc-dna", "root": "uniform",
           "params": params}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(cfg_path)]) == 0
    bad = dict(cfg, params=dict(params, a0="1/2"))
    cfg_path.write_text(json.dumps(bad))
    assert main(["check", "--config", str(cfg_path)]) == 2


def test_check_zero_denominator(tmp_path, params_file, capsys):
    cfg = {"newick": "((1,2),(3,4));", "kind": "jc-dna", "root": "uniform",
           "params": dict(params_file[1], a0="1/0")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(cfg_path)]) == 2
    assert "zero denominator in '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1/2/3", "abc", "1e5"])
def test_check_malformed_rational(tmp_path, params_file, capsys, text):
    cfg = {"newick": "((1,2),(3,4));", "kind": "jc-dna", "root": "uniform",
           "params": dict(params_file[1], a0=text)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "'a0'" in err and f"{text!r} is not an integer or p/q" in err


def test_check_rational_with_too_many_digits(tmp_path, params_file, capsys):
    cfg = {"newick": "((1,2),(3,4));", "kind": "jc-dna", "root": "uniform",
           "params": dict(params_file[1], a0="1" * 5000)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "'a0'" in err and "has too many digits" in err
    assert len(err) < 200


def test_simulate_zero_denominator(tree_file, params_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(params_file[1], a0="1/0")))
    argv = _simulate_argv(tree_file, (str(bad),), str(tmp_path / "a.fasta"),
                          10)
    assert main(argv) == 2
    assert "zero denominator in '1/0'" in capsys.readouterr().err


def _simulate_argv(tree_file, params_file, out, length, seed=11):
    return ["simulate", "--tree", tree_file, "--model", "jc-dna",
            "--params", params_file[0], "--length", str(length),
            "--seed", str(seed), "--out", out]


def test_simulate_and_infer(tree_file, params_file, tmp_path, capsys):
    out_fasta = str(tmp_path / "a.fasta")
    assert main(_simulate_argv(tree_file, params_file, out_fasta, 3000)) == 0
    capsys.readouterr()
    rc = main(["infer-quartet", "--alignment", out_fasta, "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["split"] == "(12)(34)"
    assert out["decisive"]


@pytest.fixture
def binary_alignment(tree_file, tmp_path, capsys):
    """A 2000-site jc-binary alignment simulated on ((1,2),(3,4))."""
    from fractions import Fraction
    params = {}
    for i, letter in enumerate("abcdef"):
        a1 = Fraction(1, 6 + i)
        params[f"{letter}1"], params[f"{letter}0"] = str(a1), str(1 - a1)
    params_path = tmp_path / "binary.json"
    params_path.write_text(json.dumps(params))
    out = str(tmp_path / "binary.fasta")
    assert main(["simulate", "--tree", tree_file, "--model", "jc-binary",
                 "--params", str(params_path), "--length", "2000",
                 "--seed", "11", "--out", out]) == 0
    capsys.readouterr()
    return out


def test_infer_quartet_rank_defaults_to_the_states(binary_alignment, capsys):
    # a rank of 4 would score every 4 x 4 binary flattening 0, a tie
    assert main(["infer-quartet", "--alignment", binary_alignment,
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["split"] == "(12)(34)" and out["decisive"]


@pytest.mark.parametrize("rank", ["-1", "0", "4"])
def test_infer_quartet_rejects_rank_outside_the_flattening(
        binary_alignment, capsys, rank):
    assert main(["infer-quartet", "--alignment", binary_alignment,
                 "--rank", rank]) == 2
    assert f"rank must be in 1..3 for 2 states, got {rank}" in \
        capsys.readouterr().err


def test_simulate_fasta_is_pinned(tree_file, params_file, tmp_path):
    # bit-for-bit reproducibility across versions, not just within one
    out = tmp_path / "a.fasta"
    assert main(_simulate_argv(tree_file, params_file, str(out), 2000)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "4e7d92aa5bbd11b73d3e945f845d9ae28b577c62c22aa1d1a80ffb12e2af6d56"


def _general_markov_params(tree):
    """Row-stochastic two-state general Markov values and free root
    weights, different on every edge."""
    params = {"pi0": Rat(3, 10), "pi1": Rat(7, 10)}
    for eid in range(tree.num_edges):
        letter = "abcdefghij"[eid]
        x, y = Rat(1, 7 + eid), Rat(2, 11 + 3 * eid)
        params.update({f"{letter}00": 1 - x, f"{letter}01": x,
                       f"{letter}10": y, f"{letter}11": 1 - y})
    return params


# SHA-256 of the FASTA of `phylo-ag simulate`, 2000 sites at seed 11, beyond
# the quartet: the eight-leaf tree fixes the order in which the pruning
# combines patterns, the free root its root weights
_SIMULATE_FASTA = [
    ("(((1,2),(3,4)),((5,6),(7,8)));", ["--model", "jc-dna"],
     lambda tree: stochastic_jc_params(tree, 4, denom_base=80),
     "0a182f90b68ff4f69a39c8384a30cf3d7863794982d511ca4af7964466ca1cb7"),
    ("((1,2),(3,4));",
     ["--model", "general-markov", "--k", "2", "--root", "free"],
     _general_markov_params,
     "3be6b0a5e988b04e0d8717601a5b1186c6d33fb5cf38752133b58b5e95ea99db"),
]


@pytest.mark.parametrize("newick, model, make_params, digest",
                         _SIMULATE_FASTA, ids=["jc-dna-8", "gm2-free-root"])
def test_simulate_fasta_beyond_the_quartet_is_pinned(tmp_path, newick, model,
                                                     make_params, digest):
    tree = tmp_path / "t.nwk"
    tree.write_text(newick + "\n")
    params = tmp_path / "params.json"
    params.write_text(json.dumps(
        {s: str(v) for s, v in make_params(parse_newick(newick)).items()}))
    out = tmp_path / "a.fasta"
    assert main(["simulate", "--tree", str(tree), *model, "--params",
                 str(params), "--length", "2000", "--seed", "11", "--out",
                 str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("changes, fault", [
    ({"a0": "1/2"}, "edge 0 row 0 sums to 23/40, not 1; edge 0 row 1 sums "
     "to 23/40, not 1; edge 0 row 2 sums to 23/40, not 1"),
    ({"a0": "-7/2", "a1": "3/2"}, "edge 0 row 0 has entries outside "
     "[0, 1]: a0 = -7/2, a1 = 3/2; edge 0 row 1 has entries outside "
     "[0, 1]: a1 = 3/2, a0 = -7/2; edge 0 row 2 has entries outside "
     "[0, 1]: a1 = 3/2, a0 = -7/2"),
    ({"b0": "2"}, "edge 1 row 0 sums to 85/41, not 1 and has entries "
     "outside [0, 1]: b0 = 2; edge 1 row 1 sums to 85/41, not 1 and has "
     "entries outside [0, 1]: b0 = 2; edge 1 row 2 sums to 85/41, not 1 "
     "and has entries outside [0, 1]: b0 = 2"),
], ids=["sum", "range", "both"])
def test_non_stochastic_parameters_are_named_in_plain_text(
        tree_file, params_file, tmp_path, capsys, changes, fault):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(params_file[1], **changes)))
    argv = _simulate_argv(tree_file, (str(bad),), str(tmp_path / "a.fasta"),
                          10)
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: parameters are not stochastic: {fault}\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"newick": "((1,2),(3,4));", "kind": "jc-dna",
                               "params": dict(params_file[1], **changes)}))
    assert main(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: parameters are not stochastic: {fault}\n")


def test_non_stochastic_root_weights_are_named(tmp_path, capsys):
    tree = tmp_path / "t.nwk"
    tree.write_text("((1,2),(3,4));\n")
    params = dict(_general_markov_params(parse_newick("((1,2),(3,4));")),
                  pi0=Rat(1, 2), pi1=Rat(1, 3))
    path = tmp_path / "params.json"
    path.write_text(json.dumps({s: str(v) for s, v in params.items()}))
    assert main(["simulate", "--tree", str(tree), "--model",
                 "general-markov", "--k", "2", "--root", "free", "--params",
                 str(path), "--length", "10", "--seed", "1", "--out",
                 str(tmp_path / "a.fasta")]) == 2
    assert capsys.readouterr().err == "error: parameters are not " \
        "stochastic: the root distribution sums to 5/6, not 1\n"


def test_simulate_length(tree_file, params_file, tmp_path, capsys):
    out = tmp_path / "a.fasta"
    assert main(_simulate_argv(tree_file, params_file, str(out), -3)) == 2
    assert "num_sites must be non-negative" in capsys.readouterr().err
    assert main(_simulate_argv(tree_file, params_file, str(out), 0)) == 0
    assert "wrote 0 sites" in capsys.readouterr().out
    assert out.read_text() == ">1\n\n>2\n\n>3\n\n>4\n\n"


def test_missing_tree_is_validation_error():
    assert main(["param", "--tree", "/nonexistent.nwk",
                 "--model", "jc-dna"]) == 2


def test_infer_quartet_rejects_data_before_the_first_header(tmp_path,
                                                           capsys):
    aln = tmp_path / "headless.fasta"
    aln.write_text("ACGT\n>1\nACGT\n>2\nACGT\n>3\nACGT\n>4\nACGT\n")
    assert main(["infer-quartet", "--alignment", str(aln)]) == 2
    assert "sequence data before first '>' header" in capsys.readouterr().err


def test_degenerate_exit_code(tmp_path, capsys):
    # constant alignment: all flattenings rank 1, scores tie at zero
    aln = tmp_path / "flat.fasta"
    aln.write_text(">1\nAAAA\n>2\nAAAA\n>3\nAAAA\n>4\nAAAA\n")
    assert main(["infer-quartet", "--alignment", str(aln)]) == 3


@pytest.mark.parametrize("rows, message", [
    (["ACGT", "ACNT", "AC-T", "ACGT"], "'N'"),     # ambiguity and gap
    (["acgt", "acgt", "acgt", "acgt"], "'a'"),     # lowercase bases
    (["", "", "", ""], "no sites"),
    (["0101", "0121", "0101", "0101"], "'2'"),     # state 2 in a 0/1 alignment
    (["ACGT"] * 3, "exactly 4 sequences"),
    (["ACGT"] * 5, "exactly 4 sequences"),
])
def test_infer_quartet_rejects_bad_alignment(tmp_path, capsys, rows, message):
    aln = tmp_path / "bad.fasta"
    aln.write_text("".join(f">{i + 1}\n{row}\n" for i, row in enumerate(rows)))
    assert main(["infer-quartet", "--alignment", str(aln)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    ({"a0": 0.5}, "params: 'a0' must be a string or an int, got 0.5"),
    ({"a0": True}, "params: 'a0' must be a string or an int, got true"),
    (["a0", "1/2"], "params must be a JSON object"),
], ids=["float", "bool", "list"])
def test_simulate_params_of_the_wrong_shape(tree_file, tmp_path, capsys,
                                            params, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params))
    argv = _simulate_argv(tree_file, (str(bad),), str(tmp_path / "a.fasta"),
                          10)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("coords, message", [
    ([1, 2], "coords must be a JSON object"),
    ({"x": "u", "y": 1.5}, "coords: 'y' must be a string or an int, got 1.5"),
], ids=["list", "float"])
def test_invariants_coords_of_the_wrong_shape(tree_file, tmp_path, capsys,
                                              coords, message):
    path = tmp_path / "coords.json"
    path.write_text(json.dumps(coords))
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--interpolate", "1", "--coords", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_invariants_integer_coordinate_is_a_constant(tree_file, tmp_path,
                                                     capsys):
    path = tmp_path / "coords.json"
    path.write_text(json.dumps({"x": "2*u", "y": "u", "z": 1}))
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--interpolate", "1", "--coords", str(path)]) == 0
    assert capsys.readouterr().out == "1*x - 2*y\n"


@pytest.mark.parametrize("config, message", [
    ({"newick": "((1,2),(3,4));", "kind": "jc-dna", "params": {"a0": 0.5}},
     "params: 'a0' must be a string or an int, got 0.5"),
    ({"newick": "((1,2),(3,4));", "kind": "jc-dna", "params": ["a0"]},
     "params must be a JSON object"),
    (["((1,2),(3,4));"], "config must be a JSON object"),
    ({"newick": 5, "kind": "jc-dna", "params": {}},
     "config: 'newick' must be a string, got 5"),
    ({"newick": "((1,2),(3,4));", "kind": ["jc-dna"], "params": {}},
     "config: 'kind' must be a string, got [\"jc-dna\"]"),
    ({"newick": "((1,2),(3,4));", "kind": "jc-dna", "root": 0, "params": {}},
     "config: 'root' must be a string, got 0"),
    ({"newick": "((1,2),(3,4));", "kind": "homogeneous", "k": 2,
      "homogeneous_base": None, "params": {}},
     "config: 'homogeneous_base' must be a string, got null"),
    ({"newick": "((1,2),(3,4));", "kind": "general-markov", "k": True,
      "params": {}}, "config: 'k' must be an int, got true"),
    ({"newick": "((1,2),(3,4));", "kind": "general-markov", "k": "2",
      "params": {}}, "config: 'k' must be an int, got \"2\""),
    ({"kind": "jc-dna", "params": {}}, "config has no 'newick'"),
    # an unknown kind was once reported as needing k, an unknown base as
    # an unsupported kind 'homogeneous'
    ({"newick": "((1,2),(3,4));", "kind": "jukes-cantor", "params": {}},
     "unsupported model kind 'jukes-cantor'"),
    ({"newick": "((1,2),(3,4));", "kind": "homogeneous", "k": 2,
      "homogeneous_base": "foo", "params": {}},
     "unsupported homogeneous base 'foo'"),
    ({"newick": "((1,2),(3,4));", "kind": "jc-dna", "root": "weird",
      "params": {}}, "error: unsupported root mode 'weird'"),
], ids=["float-param", "list-params", "list-config", "int-newick",
        "list-kind", "int-root", "null-base", "bool-k", "string-k",
        "no-newick", "unknown-kind", "unknown-base", "unknown-root"])
def test_check_config_of_the_wrong_shape(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["check", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


_json_keys = st.sampled_from(["a0", "a1", "b0", "x", "y", "newick", "kind",
                              "root", "k", "params", "homogeneous_base"])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5)
    | st.floats(-2, 2, allow_nan=False)
    | st.text(alphabet="0123456789/-+*^abxy(),;", max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_json_keys, inner, max_size=3),
    max_leaves=6)


@st.composite
def _tree_texts(draw):
    if draw(st.booleans()):
        return draw_newick(draw, 3, 4)
    return draw(st.text(alphabet="(),;:12345x. ", max_size=14))


@st.composite
def _cli_runs(draw):
    """(tree file text, JSON file value, command, model kind, root mode,
    pattern text)."""
    tree = draw(_tree_texts())
    command = draw(st.sampled_from(["check", "simulate", "interpolate",
                                    "fourier", "param"]))
    if command == "check" and draw(st.booleans()):
        value = draw(st.fixed_dictionaries({
            "newick": st.one_of(_tree_texts(), _json_values),
            "kind": st.sampled_from(["jc-dna", "general-markov",
                                     "homogeneous", "kimura9"])
            | _json_values,
            "params": st.dictionaries(_json_keys, _json_values, max_size=4),
        }, optional={"root": st.sampled_from(["uniform", "free"])
                     | _json_values,
                     "k": _json_values, "homogeneous_base": _json_values}))
    else:
        value = draw(_json_values)
    model = draw(st.sampled_from(["jc-binary", "jc-dna"]))
    root = draw(st.sampled_from(["uniform", "free"]))
    pattern = draw(st.text(alphabet="0123ACGTa ", max_size=5))
    return tree, value, command, model, root, pattern


@given(_cli_runs())
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exits_with_a_documented_code(run):
    tree, value, command, model, root, pattern = run
    with tempfile.TemporaryDirectory() as tmp:
        tree_file, json_file = Path(tmp, "t.nwk"), Path(tmp, "in.json")
        tree_file.write_text(tree)
        json_file.write_text(json.dumps(value))
        argv = {
            "check": ["check", "--config", str(json_file)],
            "simulate": ["simulate", "--tree", str(tree_file), "--model",
                         model, "--params", str(json_file), "--length", "5",
                         "--seed", "1", "--out", str(Path(tmp, "a.fasta"))],
            "interpolate": ["invariants", "--tree", str(tree_file),
                            "--model", model, "--interpolate", "1",
                            "--coords", str(json_file)],
            "fourier": ["fourier", "--tree", str(tree_file), "--model", model,
                        "--root", root],
            "param": ["param", "--tree", str(tree_file), "--model", model,
                      "--coordinate", pattern],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)


def test_flatten_beyond_ten_states_has_distinct_cells(tmp_path, capsys):
    tree = tmp_path / "t3.nwk"
    tree.write_text("(1,(2,3));\n")
    assert main(["invariants", "--tree", str(tree), "--model",
                 "general-markov", "--k", "11", "--flatten", "1|2,3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 11 and all(len(row) == 121 for row in rows)
    assert len({cell for row in rows for cell in row}) == 11 ** 3


@pytest.mark.parametrize("command", ["param", "dim"])
def test_k_above_36_is_validation_error(tree_file, capsys, command):
    assert main([command, "--tree", tree_file, "--model", "general-markov",
                 "--k", "37"]) == 2
    assert "k must be at most 36, got 37" in capsys.readouterr().err


def test_root_weight_collision_is_validation_error(tmp_path, capsys):
    # check reads the model without building its 19^9-coordinate map
    config = tmp_path / "model.json"
    config.write_text(json.dumps({
        "newick": "(1,(2,(3,(4,(5,(6,(7,(8,9))))))));", "kind": "reversible",
        "root": "free", "k": 19, "params": {}}))
    assert main(["check", "--config", str(config)]) == 2
    assert capsys.readouterr().err == \
        "error: root weights share names with edge parameters: pii\n"


def test_check_reads_the_coordinates_a_form_names(tree_file, tmp_path,
                                                  capsys):
    forms = tmp_path / "forms.txt"
    forms.write_text("pAAAA - pCCCC\npAAAA - pAAAC\n")
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--check", str(forms)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "vanishes: pAAAA - pCCCC", "NONZERO: pAAAA - pAAAC"]


def test_check_reports_an_unknown_coordinate(tree_file, tmp_path, capsys):
    forms = tmp_path / "forms.txt"
    forms.write_text("pAAAA - pXXXXX\n")
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--check", str(forms)]) == 2
    assert capsys.readouterr().err == \
        "error: form uses unknown coordinates ['pXXXXX']\n"
    # a name that is not a coordinate name at all
    forms.write_text("x - pAAAA\n")
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--check", str(forms)]) == 2
    assert capsys.readouterr().err == \
        "error: form uses unknown coordinates ['x']\n"


def test_polynomial_text_rejects_a_term_above_the_degree_bound(
        tree_file, tmp_path, capsys):
    # 'u^1000000' once took 30 MB, a monomial holding u a million times
    forms = tmp_path / "forms.txt"
    forms.write_text("pAAAA^1000000 - pAAAA\n")
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--check", str(forms)]) == 2
    assert capsys.readouterr().err == "error: term 'pAAAA^1000000' has " \
        "degree above 100 in 'pAAAA^1000000 - pAAAA'\n"
    coords = tmp_path / "coords.json"
    coords.write_text(json.dumps({"x": "u^1000000", "y": "u"}))
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--interpolate", "1", "--coords", str(coords)]) == 2
    assert "term 'u^1000000' has degree above 100 in 'u^1000000'" in \
        capsys.readouterr().err


def test_check_rejects_a_doubled_sign(tree_file, tmp_path, capsys):
    # 'pAAAA - -pAAAA' is no form of the grammar; it was once read as 0
    forms = tmp_path / "forms.txt"
    forms.write_text("pAAAA - -pAAAA\n")
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--check", str(forms)]) == 2
    assert capsys.readouterr().err == \
        "error: bad term '' in 'pAAAA - -pAAAA'\n"


@pytest.mark.parametrize("extra", [
    ["param"], ["fourier", "--map"], ["dim"],
    ["invariants", "--flatten", "A|A"],
    ["simulate", "--params", "p.json", "--length", "5", "--seed", "1",
     "--out", "a.fasta"],
], ids=lambda extra: extra[0])
def test_a_tree_without_edges_is_validation_error(tmp_path, capsys, extra):
    tree = tmp_path / "leaf.nwk"
    tree.write_text("A;\n")
    argv = [extra[0], "--tree", str(tree), "--model", "jc-dna"] + extra[1:]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: the tree has no edges; a model needs at least one\n"


def test_invariants_rejects_a_negative_degree(tree_file, tmp_path, capsys):
    coords = tmp_path / "coords.json"
    coords.write_text(json.dumps({"x": "u", "y": "v"}))
    assert main(["invariants", "--tree", tree_file, "--model", "jc-dna",
                 "--interpolate", "-1", "--coords", str(coords)]) == 2
    assert capsys.readouterr().err == \
        "error: degree must be non-negative, got -1\n"


def test_simulate_reports_a_missing_symbol(tree_file, params_file, tmp_path,
                                           capsys):
    path, params = params_file
    Path(path).write_text(json.dumps(
        {s: v for s, v in params.items() if s != "a0"}))
    assert main(["simulate", "--tree", tree_file, "--model", "jc-dna",
                 "--params", path, "--length", "10", "--seed", "1",
                 "--out", str(tmp_path / "aln.fasta")]) == 2
    assert capsys.readouterr().err == "error: missing symbol 'a0'\n"

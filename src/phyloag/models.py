"""Model families: per-edge transition-matrix templates with parameter ties
and a root weight row.

A template is a k x k array of parameter symbol names; repeating a symbol
encodes a tie.  The root is one more row, of k weights (see ModelSpec).

This module owns the state alphabet: each state is one character, the
digits then the lower-case letters (`STATES`, so k <= 36).  Symbols that
name states (general Markov and reversible cells, free root weights) write
them from `STATES`; pattern labels and coordinate names (see paramap) from
`alphabet`, which reads the four states as ACGT when k = 4.
"""

from __future__ import annotations

import json
import os
import string
from dataclasses import dataclass

from .exactalg import Rat, rat
from . import treecore

DNA = "ACGT"
# one character per state, state i the i-th
STATES = "0123456789abcdefghijklmnopqrstuvwxyz"
KINDS = ("general-markov", "jc-binary", "jc-dna", "kimura2", "kimura3",
         "reversible", "homogeneous")


def edge_letter(i):
    if i < 26:
        return string.ascii_lowercase[i]
    return f"e{i}"


@dataclass
class ModelSpec:
    """A model on a tree: one template per edge id, the edge into node c
    being c - 1, and the root row of k weights, Rat(1, k) each for a uniform
    root or the symbols {prefix}pi{s} for a free root."""

    kind: str
    k: int
    tree: treecore.Tree
    templates: list            # per edge id: k x k list of symbol names
    root: list                 # k root weights: Rats or symbol names
    no_hidden: bool = False
    prefix: str = ""

    @property
    def symbols(self):
        """Distinct parameter symbols: the template cells by edge id, row
        and column, then the root weights when they are symbols."""
        return list(dict.fromkeys(s for tpl in [*self.templates, [self.root]]
                                  for row in tpl for s in row
                                  if isinstance(s, str)))


def _template(kind, k, letter):
    if kind == "general-markov":
        return [[f"{letter}{STATES[i]}{STATES[j]}" for j in range(k)]
                for i in range(k)]
    if kind == "jc-binary":
        return [[f"{letter}0", f"{letter}1"], [f"{letter}1", f"{letter}0"]]
    if kind == "jc-dna":
        return [[f"{letter}0" if i == j else f"{letter}1" for j in range(4)]
                for i in range(4)]
    if kind in ("kimura2", "kimura3"):
        # cell (g, h) depends only on g + h in Z2 x Z2, which is g ^ h on
        # state indices (see fourier); kimura2 ties the (1,1)-coset to the
        # (1,0)-coset
        top = 2 if kind == "kimura2" else 3
        return [[f"{letter}{min(g ^ h, top)}" for h in range(4)]
                for g in range(4)]
    return [[f"{letter}{STATES[min(i, j)]}{STATES[max(i, j)]}"
             for j in range(k)] for i in range(k)]     # reversible


def make_model(tree, kind, root_mode="uniform", k=None, homogeneous_base=None,
               no_hidden=False, prefix=""):
    """Build a ModelSpec for a tree.

    kind selects the template family; k is implied except for general-markov,
    reversible and homogeneous.  homogeneous ties every edge to one shared
    template of the given base kind.  prefix is prepended to every symbol
    (used to keep mixture components disjoint).  A tree with no edges raises
    ValueError.
    """
    if tree.num_edges == 0:
        raise ValueError("the tree has no edges; a model needs at least one")
    if kind not in KINDS:
        raise ValueError(f"unsupported model kind {kind!r}")
    base = kind
    if kind == "homogeneous":
        base = homogeneous_base or "general-markov"
        if base not in KINDS or base == "homogeneous":
            raise ValueError(f"unsupported homogeneous base {base!r}")
    implied = {"jc-binary": 2, "jc-dna": 4, "kimura2": 4, "kimura3": 4}
    if base in implied:
        if k is not None and k != implied[base]:
            raise ValueError(f"{base} requires k={implied[base]}")
        k = implied[base]
    elif k is None:
        raise ValueError(f"kind {base!r} needs an explicit k")
    elif k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    elif k > len(STATES):
        raise ValueError(f"k must be at most {len(STATES)}, got {k}")

    if kind == "homogeneous":
        shared = _template(base, k, prefix + edge_letter(0))
        templates = [shared for _ in range(tree.num_edges)]
    else:
        templates = [_template(base, k, prefix + edge_letter(i))
                     for i in range(tree.num_edges)]

    if root_mode == "free":
        root = [f"{prefix}pi{STATES[s]}" for s in range(k)]
        cells = {s for tpl in templates for row in tpl for s in row}
        shared = [s for s in root if s in cells]
        if shared:
            raise ValueError("root weights share names with edge "
                             f"parameters: {', '.join(shared)}")
    elif root_mode == "uniform":
        root = [Rat(1, k)] * k
    else:
        raise ValueError(f"unsupported root mode {root_mode!r}")
    return ModelSpec(kind=kind, k=k, tree=tree, templates=templates,
                     root=root, no_hidden=no_hidden, prefix=prefix)


def _row_check(row, params):
    """(exact sum, what is wrong with the row as a probability vector in
    plain text, or None); a row entry is a symbol or a Rat."""
    values = []
    for s in row:
        if isinstance(s, str) and s not in params:
            raise KeyError(f"missing symbol {s!r}")
        values.append(Rat(params[s] if isinstance(s, str) else s))
    total = sum(values, Rat(0))
    outside = [f"{s} = {v}" for s, v in dict(zip(row, values)).items()
               if not 0 <= v <= 1]
    faults = []
    if total != 1:
        faults.append(f"sums to {total}, not 1")
    if outside:
        faults.append(f"has entries outside [0, 1]: {', '.join(outside)}")
    return total, " and ".join(faults) or None


def validate_stochastic(model, params):
    """Advisory report on row sums and entry ranges; "faults" names each row
    that is not a probability vector, and why, in plain text.

    Never raises on non-stochastic values; raises KeyError when a symbol is
    missing from params.
    """
    rows, faults = [], []
    for eid, tpl in enumerate(model.templates):
        for i, row in enumerate(tpl):
            total, fault = _row_check(row, params)
            rows.append({"edge": eid, "row": i, "sum": total,
                         "row_stochastic": fault is None})
            if fault:
                faults.append(f"edge {eid} row {i} {fault}")
    _, fault = _row_check(model.root, params)
    if fault:
        faults.append(f"the root distribution {fault}")
    return {"rows": rows, "faults": faults, "stochastic": not faults}


def alphabet(k):
    """The k states' labels as one string, state i the i-th character: ACGT
    for k = 4, else the first k characters of STATES."""
    return DNA if k == 4 else STATES[:k]


# -- model config JSON ------------------------------------------------------

_CONFIG_FIELDS = {"newick": str, "kind": str, "root": str,
                  "homogeneous_base": str, "k": int}


def json_mapping(raw, what):
    """raw, checked to be a JSON object whose values are strings or ints;
    ValueError naming `what` otherwise."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    for sym, val in raw.items():
        if isinstance(val, bool) or not isinstance(val, (str, int)):
            raise ValueError(f"{what}: {sym!r} must be a string or an int, "
                             f"got {json.dumps(val)}")
    return raw


def read_params(raw):
    """Parameter values from a JSON object {symbol: "num/den" or int}."""
    params = {}
    for sym, val in json_mapping(raw, "params").items():
        try:
            params[sym] = rat(val)
        except ValueError as exc:
            raise ValueError(f"params: {sym!r}: {exc}") from None
    return params


def load_model_config(path_or_dict):
    """Model config: {newick, kind, root?, k?, homogeneous_base?, params?:
    {symbol: "num/den"}}, from a path or an already decoded JSON value.

    A config that is not a JSON object, a field of the wrong JSON type or a
    params value that is neither a string nor an int raises ValueError.
    """
    if isinstance(path_or_dict, (str, os.PathLike)):
        with open(path_or_dict, encoding="utf-8") as fh:
            cfg = json.load(fh)
    else:
        cfg = path_or_dict
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    for field, kind in _CONFIG_FIELDS.items():
        val = cfg.get(field)
        if field in cfg and (isinstance(val, bool) or not isinstance(val, kind)):
            what = "an int" if kind is int else "a string"
            raise ValueError(f"config: {field!r} must be {what}, got "
                             f"{json.dumps(val)}")
    params = read_params(cfg["params"]) if "params" in cfg else None
    for field in ("newick", "kind"):
        if field not in cfg:
            raise ValueError(f"config has no {field!r}")
    tree = treecore.parse_newick(cfg["newick"])
    model = make_model(tree, cfg["kind"], root_mode=cfg.get("root", "uniform"),
                       k=cfg.get("k"),
                       homogeneous_base=cfg.get("homogeneous_base"))
    return model, params


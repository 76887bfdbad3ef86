"""Simulation and split inference: exact model distributions (integer
pruning, every pattern's weight over one common denominator), alignment
sampling, empirical tensors and SVD-based quartet split scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactalg import Rat, mat_rank_nullspace
from . import models as _models
from . import invariants as _invariants
from . import paramap as _paramap


@dataclass
class Alignment:
    """Site patterns over the leaf set: one sequence name and one string of
    equal length per leaf (sample_alignment writes them in tree leaf order)."""

    names: list
    rows: list

    @property
    def num_sites(self):
        return len(self.rows[0]) if self.rows else 0


# two best split scores closer than this, relative to the largest, are a tie
_TIE_THRESHOLD = 1e-12


def _single_model(joint_map):
    if len(joint_map.models) != 1:
        raise ValueError(f"expected the map of a single model, got a mixture "
                         f"of {len(joint_map.models)} models")
    return joint_map.models[0]


def _checked_weights(joint_map, params):
    """(weights, D): paramap.pattern_weights, checked as exact_distribution
    describes; pattern x has probability weights[x] / D."""
    model = _single_model(joint_map)
    report = _models.validate_stochastic(model, params)
    if not report["stochastic"]:
        raise ValueError("parameters are not stochastic: "
                         + "; ".join(report["faults"][:3]))
    weights, D = _paramap.pattern_weights(model, params)
    total = weights.sum()
    if total != D:
        raise ValueError(f"distribution sums to {Rat(total, D)}, not 1")
    return weights, D


def exact_distribution(joint_map, params):
    """Exact coordinate vector of a single model at stochastic parameters:
    one Rat per pattern, each the pruning's integer weight over its common
    denominator (paramap.pattern_weights).

    Rejects parameter values whose rows are not probability vectors, naming
    the rows; the result is checked to sum to one exactly.  Raises
    ValueError on the map of a mixture.
    """
    weights, D = _checked_weights(joint_map, params)
    return [Rat(w, D) for w in weights]


# thresholds are computed this many patterns at a time, so the Python-int
# temporaries of cum * 2^53 // D stay small
_CHUNK = 1 << 14


def _inverse_cdf(cum, D, u):
    """Index of the first pattern whose cumulative weight cum[x] / D is >= u,
    per draw, for integer cumulative weights ending at D.

    Philox doubles are m * 2^-53 with an integer m < 2^53, and for an exact
    rational c, c < m * 2^-53 iff floor(c * 2^53) < m, so comparing the
    integer thresholds cum * 2^53 // D with m reproduces the exact scan,
    ties included.
    """
    thresholds = np.empty(len(cum), dtype=np.int64)
    for s in range(0, len(cum), _CHUNK):
        thresholds[s:s + _CHUNK] = \
            np.asarray(cum[s:s + _CHUNK], dtype=object) * 2**53 // D
    m = (u * 2**53).astype(np.int64)
    return np.searchsorted(thresholds, m, side="left")


def sample_alignment(joint_map, params, num_sites, seed):
    """I.i.d. site patterns from the exact distribution.

    Uses numpy's Philox counter-based generator, so a given (seed, num_sites)
    pair is reproducible across runs and platforms.  Sampling is exact integer
    inverse CDF (_inverse_cdf): each draw is m * 2^-53 and lands on the first
    pattern with cum * 2^53 // D >= m, exactly as a rational comparison
    would; no Rat is made.  Raises ValueError on a model without hidden
    nodes.
    """
    if num_sites < 0:
        raise ValueError(f"num_sites must be non-negative, got {num_sites}")
    model = _single_model(joint_map)
    if model.no_hidden:
        raise ValueError("internal nodes have no sequence names")
    weights, D = _checked_weights(joint_map, params)
    rng = np.random.Generator(np.random.Philox(seed))
    idx = _inverse_cdf(np.cumsum(weights), D, rng.random(num_sites))
    states = _paramap.pattern_of_flat(idx, model.tree.num_leaves, model.k)
    return Alignment(names=list(model.tree.leaf_labels),
                     rows=[_paramap.pattern_label(s, model.k)
                           for s in states])


def pattern_counts(alignment, k):
    """Pattern counts as a flat int list of length k^n.

    Sites are read in the k-state alphabet (models.alphabet); raises
    ValueError on any other character, on rows of unequal length and on an
    alignment without sites.
    """
    if len({len(r) for r in alignment.rows}) > 1:
        raise ValueError("alignment rows have unequal lengths")
    if alignment.num_sites == 0:
        raise ValueError("alignment has no sites")
    flat = _paramap.flat_index(
        [_paramap.parse_states(row, k) for row in alignment.rows], k)
    return np.bincount(flat, minlength=k ** len(alignment.rows)).tolist()


def empirical_tensor(alignment, model):
    """Relative pattern frequencies as a flat float list of length k^n, with
    rows matched to the tree's leaves by sequence name; raises ValueError on
    missing, extra or duplicate names and on a model without hidden
    nodes."""
    if model.no_hidden:
        raise ValueError("internal nodes have no sequence names")
    leaves = list(model.tree.leaf_labels)
    if sorted(alignment.names) != sorted(leaves) or \
            len(alignment.rows) != len(leaves):
        raise ValueError(f"{len(alignment.rows)} rows with sequence names "
                         f"{alignment.names} do not match the tree's leaves "
                         f"{leaves}")
    row_of = dict(zip(alignment.names, alignment.rows))
    ordered = Alignment(names=leaves, rows=[row_of[leaf] for leaf in leaves])
    counts = pattern_counts(ordered, model.k)
    total = ordered.num_sites
    return [c / total for c in counts]


def total_variation(p, q):
    if len(p) != len(q):
        raise ValueError(f"distributions of {len(p)} and {len(q)} entries")
    return sum(abs(float(a) - float(b)) for a, b in zip(p, q)) / 2


def score_splits(tensor, leaf_order, k, rank):
    """Rank-r distance of each quartet flattening.

    For each of the three splits of four leaves, the score is the Frobenius
    norm of the flattening minus its best rank-`rank` approximation (the tail
    singular values).  Lower is better; the rank is in 1..k^2 - 1.
    """
    if len(leaf_order) != 4:
        raise ValueError("split scoring expects exactly four leaves")
    if not 1 <= rank < k * k:
        raise ValueError(f"rank must be in 1..{k * k - 1} for {k} states, "
                         f"got {rank}")
    exact = all(isinstance(x, (Rat, int)) for x in tensor)
    scores = {}
    for name, (below, above) in _invariants.quartet_splits(leaf_order).items():
        mat = _invariants.flatten(tensor, leaf_order, (below, above), k=k)
        if exact:
            # exact rank test first so model points score exactly zero
            r, _ = mat_rank_nullspace(mat)
            if r <= rank:
                scores[name] = 0.0
                continue
        M = np.array([[float(x) for x in row] for row in mat])
        s = np.linalg.svd(M, compute_uv=False)
        scores[name] = float(np.sqrt(np.sum(s[rank:] ** 2)))
    return scores


def infer_quartet(tensor, leaf_order, k, rank):
    """Best split by rank-r score, with a confidence gap.

    Returns (winner, scores, decisive); decisive is False when the two best
    scores are within _TIE_THRESHOLD relative to the largest score (ties)."""
    scores = score_splits(tensor, leaf_order, k, rank)
    ordered = sorted(scores.items(), key=lambda kv: kv[1])
    scale = max(ordered[-1][1], 1e-300)
    decisive = (ordered[1][1] - ordered[0][1]) / scale > _TIE_THRESHOLD
    return ordered[0][0], scores, decisive


# -- file formats -----------------------------------------------------------


def write_fasta(alignment, path):
    with open(path, "w", encoding="utf-8") as fh:
        for name, row in zip(alignment.names, alignment.rows):
            fh.write(f">{name}\n{row}\n")


def read_fasta(path):
    """Records of a FASTA file; a record's wrapped lines are joined once."""
    names, parts = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                names.append(line[1:].strip())
                parts.append([])
            else:
                if not parts:
                    raise ValueError("sequence data before first '>' header")
                parts[-1].append(line)
    rows = ["".join(p) for p in parts]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("sequences have unequal lengths")
    return Alignment(names=names, rows=rows)


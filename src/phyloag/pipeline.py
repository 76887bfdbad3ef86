"""Simulation and split inference: exact model distributions, alignment
sampling, empirical tensors and SVD-based quartet split scoring."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .exactalg import Rat, mat_rank_nullspace
from . import models as _models
from . import paramap as _paramap
from . import invariants as _invariants


@dataclass
class Alignment:
    """Site patterns over the leaf set: names in tree leaf order, one string
    of equal length per leaf."""

    names: list
    rows: list

    @property
    def num_sites(self):
        return len(self.rows[0]) if self.rows else 0


def exact_distribution(joint_map, params, require_stochastic=True):
    """Exact coordinate vector of the model at stochastic parameters.

    Rejects parameter values whose rows do not sum to one unless told
    otherwise; the result is checked to sum to one exactly.
    """
    report = _models.validate_stochastic(joint_map.model, params)
    if require_stochastic and not report["stochastic"]:
        bad = [r for r in report["rows"] if not r["row_stochastic"]]
        raise ValueError(f"parameters are not stochastic: {bad[:3]}")
    probs = joint_map.eval(params, mode="exact")
    total = sum(probs, Rat(0))
    if require_stochastic and total != 1:
        raise ValueError(f"distribution sums to {total}, not 1")
    return probs


def sample_alignment(joint_map, params, num_sites, seed):
    """I.i.d. site patterns from the exact distribution.

    Uses numpy's Philox counter-based generator, so a given (seed, num_sites)
    pair is reproducible across runs and platforms; sampling is by inverse
    CDF over the exact cumulative probabilities.
    """
    probs = exact_distribution(joint_map, params)
    cum = list(itertools.accumulate(probs))
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(num_sites)
    model = joint_map.model
    n, k = joint_map.n, joint_map.k
    cols = []
    for x in u:
        x = Rat(x.item())
        idx = 0
        while cum[idx] < x:
            idx += 1
        states = _paramap.pattern_of_flat(idx, n, k)
        cols.append(_paramap.pattern_label(model, states))
    rows = ["".join(col[i] for col in cols) for i in range(n)]
    return Alignment(names=list(model.tree.leaf_labels), rows=rows)


def pattern_counts(alignment, k):
    """Pattern counts as a flat int list of length k^n.

    Sites are read in the k-state alphabet (ACGT for k = 4, else the digits
    0..k-1); raises ValueError on any other character and on an alignment
    without sites.
    """
    if alignment.num_sites == 0:
        raise ValueError("alignment has no sites")
    alphabet = _models.DNA if k == 4 else "".join(map(str, range(k)))
    index = {ch: s for s, ch in enumerate(alphabet)}
    counts = [0] * (k ** len(alignment.rows))
    for column in zip(*alignment.rows):
        flat = 0
        for ch in column:
            if ch not in index:
                raise ValueError(f"character {ch!r} is not in the "
                                 f"{k}-state alphabet {alphabet}")
            flat = flat * k + index[ch]
        counts[flat] += 1
    return counts


def empirical_tensor(alignment, model):
    """Relative pattern frequencies as a flat float list of length k^n."""
    counts = pattern_counts(alignment, model.k)
    total = alignment.num_sites
    return [c / total for c in counts]


def total_variation(p, q):
    return sum(abs(float(a) - float(b)) for a, b in zip(p, q)) / 2


def score_splits(tensor, leaf_order, k, rank):
    """Rank-r distance of each quartet flattening.

    For each of the three splits of four leaves, the score is the Frobenius
    norm of the flattening minus its best rank-`rank` approximation (the tail
    singular values).  Lower is better.
    """
    if len(leaf_order) != 4:
        raise ValueError("split scoring expects exactly four leaves")
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


def infer_quartet(tensor, leaf_order, k, rank, rel_threshold=1e-12):
    """Best split by rank-r score, with a confidence gap.

    Returns (winner, scores, decisive); decisive is False when the two best
    scores are within rel_threshold relative to the largest score (ties)."""
    scores = score_splits(tensor, leaf_order, k, rank)
    ordered = sorted(scores.items(), key=lambda kv: kv[1])
    scale = max(ordered[-1][1], 1e-300)
    decisive = (ordered[1][1] - ordered[0][1]) / scale > rel_threshold
    return ordered[0][0], scores, decisive


# -- file formats -----------------------------------------------------------


def write_fasta(alignment, path):
    with open(path, "w", encoding="utf-8") as fh:
        for name, row in zip(alignment.names, alignment.rows):
            fh.write(f">{name}\n{row}\n")


def read_fasta(path):
    names, rows = [], []
    cur = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                names.append(line[1:].strip())
                rows.append("")
                cur = len(rows) - 1
            else:
                if cur is None:
                    raise ValueError("sequence data before first '>' header")
                rows[cur] += line
    if len({len(r) for r in rows}) > 1:
        raise ValueError("sequences have unequal lengths")
    return Alignment(names=names, rows=rows)


def write_tensor_csv(counts, path):
    """One row per flat pattern index: index, count, frequency."""
    total = sum(counts)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "count", "frequency"])
        for i, c in enumerate(counts):
            w.writerow([i, c, c / total if total else 0.0])


def read_tensor_csv(path):
    """(counts, frequencies), row order taken from the index column."""
    rows = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        if header[:3] != ["index", "count", "frequency"]:
            raise ValueError("expected 'index,count,frequency' header")
        for idx, count, freq in rdr:
            rows[int(idx)] = (int(count), float(freq))
    size = max(rows) + 1 if rows else 0
    counts = [rows.get(i, (0, 0.0))[0] for i in range(size)]
    freqs = [rows.get(i, (0, 0.0))[1] for i in range(size)]
    return counts, freqs

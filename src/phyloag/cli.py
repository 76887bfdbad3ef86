"""Command-line front end.

Exit codes: 0 success (also when the reader of standard output closes it
early), 2 validation error (bad input or non-stochastic parameters), 3
numeric degeneracy (ties, failed interpolation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exactalg import minors, parse_poly, rat
from . import fourier as _fourier
from . import invariants as _invariants
from . import models as _models
from . import paramap as _paramap
from . import pipeline as _pipeline
from . import treecore


class ValidationError(Exception):
    pass


class DegeneracyError(Exception):
    pass


def _load_tree(path):
    try:
        return treecore.read_newick(path)
    except (OSError, treecore.NewickError) as exc:
        raise ValidationError(f"cannot read tree: {exc}")


def _build_model(args, tree):
    try:
        return _models.make_model(tree, args.model, root_mode=args.root,
                                  k=args.k)
    except ValueError as exc:
        raise ValidationError(str(exc))


def _load_json(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what}: {exc}")


def _mapping(raw, what):
    """raw, checked to be a JSON object whose values are strings or ints."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be a JSON object")
    for sym, val in raw.items():
        if isinstance(val, bool) or not isinstance(val, (str, int)):
            raise ValidationError(f"{what}: {sym!r} must be a string or an "
                                  f"int, got {json.dumps(val)}")
    return raw


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def _add_model_args(sp, root_default="uniform"):
    sp.add_argument("--tree", required=True)
    sp.add_argument("--model", required=True, choices=_models.KINDS)
    sp.add_argument("--root", default=root_default,
                    choices=("uniform", "free"))
    sp.add_argument("--k", type=int)
    sp.add_argument("--format", default="text", choices=("json", "text"))


def cmd_param(args):
    tree = _load_tree(args.tree)
    model = _build_model(args, tree)
    jmap = _paramap.expand_map(model)
    payload = {"tree": tree.to_newick(), "model": model.kind}
    lines = []
    if args.coordinate is not None:
        try:
            states = _paramap.parse_pattern(model, args.coordinate)
        except (ValueError, IndexError):
            raise ValidationError(f"bad pattern {args.coordinate!r}")
        if len(states) != tree.num_leaves:
            raise ValidationError("pattern length != leaf count")
        poly = jmap.coordinate(_paramap.LeafPattern(states).flat_index(model.k))
        payload["coordinate"] = {args.coordinate: str(poly)}
        lines.append(f"p_{args.coordinate} = {poly}")
    if args.accumulated:
        classes = _paramap.symmetry_classes(jmap)
        acc = _paramap.accumulate_classes(jmap, classes)
        payload["classes"] = [len(c) for c in classes]
        payload["accumulated"] = [str(p) for p in acc]
        for cls, p in zip(classes, acc):
            states = _paramap.pattern_of_flat(cls[0], jmap.n, model.k)
            lines.append(f"class {_paramap.pattern_label(model, states)} "
                         f"(size {len(cls)}): {p}")
    if args.circuit_stats:
        counts, stats = {}, {}
        for i, node in sorted(jmap.circuit.outputs.items()):
            if node not in counts:
                counts[node] = jmap.circuit.op_counts(node)
            m, a = counts[node]
            stats[i] = {"mul": m, "add": a}
        payload["circuit_stats"] = stats
        for i, st in stats.items():
            lines.append(f"coordinate {i}: {st['mul']} mul, {st['add']} add")
    if not (args.coordinate or args.accumulated or args.circuit_stats):
        payload["degree"] = _paramap.degree_profile(jmap)
        payload["num_coordinates"] = jmap.num_coordinates
        payload["parameters"] = model.symbols
        lines.append(f"coordinates: {jmap.num_coordinates}, "
                     f"degree: {payload['degree']}, "
                     f"parameters: {len(model.symbols)}")
    _emit(args, payload, lines)


def cmd_fourier(args):
    tree = _load_tree(args.tree)
    model = _build_model(args, tree)
    if not model.is_group_based():
        raise ValidationError(f"model {model.kind!r} is not group-based")
    mm = _fourier.monomial_map(model)
    if args.binomials is not None:
        try:
            forms = _fourier.binomials_up_to_degree(mm, args.binomials)
        except ValueError as exc:
            raise ValidationError(str(exc))
        _emit(args, {"binomials": [str(f) for f in forms]},
              [str(f) for f in forms])
    elif args.map:
        sys.stdout.write(_fourier.exponent_matrix_csv(mm))
    else:
        pairs = [(nm, str(p)) for nm, p in zip(mm.coord_names, mm.monomials)]
        _emit(args, {"coordinates": dict(pairs)},
              [f"{nm} = {p}" for nm, p in pairs])


def _parse_split(text, leaf_order):
    parts = text.split("|")
    if len(parts) != 2:
        raise ValidationError("split must look like '1,2|3,4'")
    below = [s for s in parts[0].replace(",", " ").split() if s]
    above = [s for s in parts[1].replace(",", " ").split() if s]
    if set(below) | set(above) != set(leaf_order) or set(below) & set(above):
        raise ValidationError("split is not a bipartition of the leaves")
    return below, above


def _dimension(args, tree, model):
    """(affine rank, projective dimension) of the model or its mixture."""
    if args.mixture < 1:
        raise ValidationError(f"--mixture must be at least 1, got "
                              f"{args.mixture}")
    if args.mixture > 1:
        jmap = _invariants.make_mixture(tree, model.kind, args.mixture,
                                        root_mode=args.root, k=model.k)
    else:
        jmap = _paramap.expand_map(model)
    return _invariants.jacobian_dimension(jmap)


def cmd_invariants(args):
    tree = _load_tree(args.tree)
    model = _build_model(args, tree)
    payload = {}
    lines = []
    if args.dim:
        rank, dim = _dimension(args, tree, model)
        payload["affine_rank"] = rank
        payload["projective_dimension"] = dim
        lines.append(f"affine rank {rank}, projective dimension {dim}")
    if args.flatten is not None:
        split = _parse_split(args.flatten, tree.leaf_labels)
        tensor = _invariants.symbolic_tensor(tree.num_leaves, model.k,
                                             dna=(model.k == 4))
        mat = _invariants.flatten(tensor, tree.leaf_labels, split, k=model.k)
        payload["flattening"] = [[str(x) for x in row] for row in mat]
        lines += [" ".join(str(x) for x in row) for row in mat]
        if args.minors is not None:
            try:
                forms = minors(mat, args.minors)
            except ValueError as exc:
                raise ValidationError(str(exc))
            payload["minors"] = [str(f) for f in forms]
            lines += [str(f) for f in forms]
    if args.interpolate is not None:
        if not args.coords:
            raise ValidationError("--interpolate needs --coords FILE")
        raw = _mapping(_load_json(args.coords, "coords"), "coords")
        try:
            coords = [(nm, parse_poly(str(tx))) for nm, tx in raw.items()]
        except ValueError as exc:
            raise ValidationError(f"bad coords: {exc}")
        try:
            forms = _invariants.interpolate_vanishing_forms(coords,
                                                            args.interpolate)
        except RuntimeError as exc:
            raise DegeneracyError(str(exc))
        payload["forms"] = [str(f) for f in forms]
        lines += [str(f) for f in forms]
    if args.check is not None:
        try:
            with open(args.check, encoding="utf-8") as fh:
                form_texts = [l.strip() for l in fh if l.strip()]
        except OSError as exc:
            raise ValidationError(f"cannot read forms: {exc}")
        jmap = _paramap.expand_map(model)
        coords = {}
        for i in range(jmap.num_coordinates):
            states = _paramap.pattern_of_flat(i, jmap.n, model.k)
            coords["p" + _paramap.pattern_label(model, states)] = \
                jmap.coordinate(i)
        results = []
        for tx in form_texts:
            try:
                ok = _invariants.vanishing_check(parse_poly(tx), coords)
            except (KeyError, ValueError) as exc:
                raise ValidationError(str(exc))
            results.append({"form": tx, "vanishes": ok})
            lines.append(f"{'vanishes' if ok else 'NONZERO'}: {tx}")
        payload["checks"] = results
    _emit(args, payload, lines)


def cmd_simulate(args):
    tree = _load_tree(args.tree)
    model = _build_model(args, tree)
    raw = _mapping(_load_json(args.params, "params"), "params")
    try:
        params = {sym: rat(val) for sym, val in raw.items()}
    except ValueError as exc:
        raise ValidationError(f"cannot read params: {exc}")
    jmap = _paramap.expand_map(model)
    try:
        aln = _pipeline.sample_alignment(jmap, params, args.length, args.seed)
    except (ValueError, KeyError) as exc:
        raise ValidationError(str(exc))
    _pipeline.write_fasta(aln, args.out)
    _emit(args, {"sites": aln.num_sites, "out": args.out},
          [f"wrote {aln.num_sites} sites to {args.out}"])


def cmd_infer_quartet(args):
    try:
        aln = _pipeline.read_fasta(args.alignment)
    except (OSError, ValueError) as exc:
        raise ValidationError(str(exc))
    if len(aln.names) != 4:
        raise ValidationError("quartet inference needs exactly 4 sequences")
    # binary digits mark a 0/1 alignment, anything else is read as DNA
    k = 2 if set("".join(aln.rows)) & set("01") else 4
    try:
        counts = _pipeline.pattern_counts(aln, k)
    except ValueError as exc:
        raise ValidationError(str(exc))
    freqs = [c / aln.num_sites for c in counts]
    winner, scores, decisive = _pipeline.infer_quartet(freqs, aln.names, k,
                                                       args.rank)
    payload = {"split": winner, "scores": scores, "decisive": decisive}
    lines = [f"{nm}: {sc:.6g}" for nm, sc in sorted(scores.items())]
    lines.append(f"best split: {winner}")
    _emit(args, payload, lines)
    if not decisive:
        raise DegeneracyError("split scores tie within tolerance")


_CONFIG_FIELDS = {"newick": str, "kind": str, "root": str,
                  "homogeneous_base": str, "k": int}


def cmd_check(args):
    cfg = _load_json(args.config, "config")
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    for field, kind in _CONFIG_FIELDS.items():
        val = cfg.get(field)
        if field in cfg and (isinstance(val, bool) or not isinstance(val, kind)):
            what = "an int" if kind is int else "a string"
            raise ValidationError(f"config: {field!r} must be {what}, got "
                                  f"{json.dumps(val)}")
    _mapping(cfg.get("params", {}), "params")
    try:
        model, params = _models.load_model_config(cfg)
    except (ValueError, KeyError, treecore.NewickError) as exc:
        raise ValidationError(f"bad config: {exc}")
    if params is None:
        raise ValidationError("config has no params to check")
    try:
        report = _models.validate_stochastic(model, params)
    except KeyError as exc:
        raise ValidationError(str(exc))
    payload = {"stochastic": report["stochastic"],
               "rows": [{**r, "sum": str(r["sum"])} for r in report["rows"]]}
    lines = [f"stochastic: {report['stochastic']}"]
    _emit(args, payload, lines)
    if not report["stochastic"]:
        raise ValidationError("parameters are not stochastic")


def cmd_dim(args):
    tree = _load_tree(args.tree)
    model = _build_model(args, tree)
    rank, dim = _dimension(args, tree, model)
    _emit(args, {"affine_rank": rank, "projective_dimension": dim},
          [f"affine rank {rank}, projective dimension {dim}"])


def build_parser():
    ap = argparse.ArgumentParser(prog="phylo-ag",
                                 description="Exact phylogenetic model maps, "
                                 "invariants and simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("param", help="joint-probability map")
    _add_model_args(sp)
    sp.add_argument("--coordinate")
    sp.add_argument("--accumulated", action="store_true")
    sp.add_argument("--circuit-stats", action="store_true")
    sp.set_defaults(func=cmd_param)

    sp = sub.add_parser("fourier", help="transformed coordinates")
    _add_model_args(sp)
    sp.add_argument("--map", action="store_true")
    sp.add_argument("--binomials", type=int)
    sp.set_defaults(func=cmd_fourier)

    sp = sub.add_parser("invariants", help="flattenings, forms, dimensions")
    _add_model_args(sp)
    sp.add_argument("--flatten")
    sp.add_argument("--minors", type=int)
    sp.add_argument("--interpolate", type=int)
    sp.add_argument("--coords")
    sp.add_argument("--dim", action="store_true")
    sp.add_argument("--mixture", type=int, default=1)
    sp.add_argument("--check")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("simulate", help="sample an alignment")
    _add_model_args(sp)
    sp.add_argument("--params", required=True)
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("infer-quartet", help="score quartet splits")
    sp.add_argument("--alignment", required=True)
    sp.add_argument("--rank", type=int, default=4)
    sp.add_argument("--format", default="text", choices=("json", "text"))
    sp.set_defaults(func=cmd_infer_quartet)

    sp = sub.add_parser("check", help="validate a model config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--format", default="text", choices=("json", "text"))
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("dim", help="image dimension via Jacobian rank")
    _add_model_args(sp)
    sp.add_argument("--mixture", type=int, default=1)
    sp.set_defaults(func=cmd_dim)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout; keep the flush at exit from raising
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())

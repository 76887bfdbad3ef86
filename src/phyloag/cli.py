"""Command-line front end.

Exit codes: 0 success (also when the reader of standard output closes it
early), 2 validation error (bad input or non-stochastic parameters), 3
numeric degeneracy (ties, failed interpolation).

The library makes the input checks: any ValueError, KeyError or OSError it
raises exits 2 with its message, caught once in `main`.  ValidationError is
for the checks that only concern the command line itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .exactalg import minors, parse_poly
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


def _load_model(args):
    return _models.make_model(treecore.read_newick(args.tree), args.model,
                              root_mode=args.root, k=args.k)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def _add_model_args(sp):
    sp.add_argument("--tree", required=True)
    sp.add_argument("--model", required=True, choices=_models.KINDS)
    sp.add_argument("--root", default="uniform", choices=("uniform", "free"))
    sp.add_argument("--k", type=int)
    sp.add_argument("--format", default="text", choices=("json", "text"))


def cmd_param(args):
    model = _load_model(args)
    jmap = _paramap.expand_map(model)
    n = model.tree.num_leaves
    payload = {"tree": model.tree.to_newick(), "model": model.kind}
    lines = []
    if args.coordinate is not None:
        text = str(jmap.coordinate(_paramap.flat_index(_paramap.parse_pattern(
            args.coordinate, n, model.k), model.k)))
        payload["coordinate"] = {args.coordinate: text}
        lines.append(f"p_{args.coordinate} = {text}")
    if args.accumulated:
        classes = _paramap.symmetry_classes(jmap)
        texts = [str(p) for p in _paramap.accumulate_classes(jmap, classes)]
        payload["classes"] = [len(c) for c in classes]
        payload["accumulated"] = texts
        for cls, text in zip(classes, texts):
            label = _paramap.pattern_label(
                _paramap.pattern_of_flat(cls[0], n, model.k), model.k)
            lines.append(f"class {label} (size {len(cls)}): {text}")
    if args.circuit_stats:
        counts, stats = {}, {}
        for i, node in enumerate(jmap.circuit.outputs.tolist()):
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
    mm = _fourier.monomial_map(_load_model(args))
    if args.binomials is not None:
        texts = [str(f) for f in
                 _fourier.binomials_up_to_degree(mm, args.binomials)]
        _emit(args, {"binomials": texts}, texts)
    elif args.map:
        sys.stdout.write(_fourier.exponent_matrix_csv(mm))
    else:
        pairs = [(nm, str(p)) for nm, p in zip(mm.coord_names, mm.monomials)]
        _emit(args, {"coordinates": dict(pairs)},
              [f"{nm} = {p}" for nm, p in pairs])


def _parse_split(text):
    parts = text.split("|")
    if len(parts) != 2:
        raise ValidationError("split must look like '1,2|3,4'")
    return [part.replace(",", " ").split() for part in parts]


def cmd_invariants(args):
    if args.minors is not None and args.flatten is None:
        raise ValidationError("--minors needs --flatten SPLIT")
    model = _load_model(args)
    payload = {}
    lines = []
    if args.flatten is not None:
        split = _parse_split(args.flatten)
        tensor = _invariants.symbolic_tensor(model.tree.num_leaves, model.k)
        mat = _invariants.flatten(tensor, model.tree.leaf_labels, split,
                                  k=model.k)
        cells = [[str(x) for x in row] for row in mat]
        payload["flattening"] = cells
        lines += [" ".join(row) for row in cells]
        if args.minors is not None:
            texts = [str(f) for f in minors(mat, args.minors)]
            payload["minors"] = texts
            lines += texts
    if args.interpolate is not None:
        if not args.coords:
            raise ValidationError("--interpolate needs --coords FILE")
        raw = _models.json_mapping(_load_json(args.coords), "coords")
        try:
            coords = [(nm, parse_poly(str(tx))) for nm, tx in raw.items()]
        except ValueError as exc:
            raise ValidationError(f"bad coords: {exc}")
        try:
            forms = _invariants.interpolate_vanishing_forms(coords,
                                                            args.interpolate)
        except RuntimeError as exc:
            raise DegeneracyError(str(exc))
        texts = [str(f) for f in forms]
        payload["forms"] = texts
        lines += texts
    if args.check is not None:
        with open(args.check, encoding="utf-8") as fh:
            form_texts = [l.strip() for l in fh if l.strip()]
        jmap = _paramap.expand_map(model)
        results = []
        for tx in form_texts:
            form = parse_poly(tx)
            # vanishing_check reports the names that are not coordinates
            coords = {}
            for nm in form.variables():
                with contextlib.suppress(ValueError):
                    coords[nm] = jmap.coordinate(_paramap.coordinate_index(
                        nm, model.tree.num_leaves, model.k))
            ok, _ = _invariants.vanishing_check(form, coords)
            results.append({"form": tx, "vanishes": ok})
            lines.append(f"{'vanishes' if ok else 'NONZERO'}: {tx}")
        payload["checks"] = results
    _emit(args, payload, lines)


def cmd_simulate(args):
    model = _load_model(args)
    params = _models.read_params(_load_json(args.params))
    jmap = _paramap.expand_map(model)
    aln = _pipeline.sample_alignment(jmap, params, args.length, args.seed)
    _pipeline.write_fasta(aln, args.out)
    _emit(args, {"sites": aln.num_sites, "out": args.out},
          [f"wrote {aln.num_sites} sites to {args.out}"])


def cmd_infer_quartet(args):
    aln = _pipeline.read_fasta(args.alignment)
    # checked before the k^n pattern counts are made
    if len(aln.names) != 4:
        raise ValidationError("quartet inference needs exactly 4 sequences")
    # binary digits mark a 0/1 alignment, anything else is read as DNA
    k = 2 if any("0" in row or "1" in row for row in aln.rows) else 4
    counts = _pipeline.pattern_counts(aln, k)
    freqs = [c / aln.num_sites for c in counts]
    # the rank of a flattening of a k-state tree model is k
    rank = k if args.rank is None else args.rank
    winner, scores, decisive = _pipeline.infer_quartet(freqs, aln.names, k,
                                                       rank)
    payload = {"split": winner, "scores": scores, "decisive": decisive}
    lines = [f"{nm}: {sc:.6g}" for nm, sc in sorted(scores.items())]
    lines.append(f"best split: {winner}")
    _emit(args, payload, lines)
    if not decisive:
        raise DegeneracyError("split scores tie within tolerance")


def cmd_check(args):
    model, params = _models.load_model_config(args.config)
    if params is None:
        raise ValidationError("config has no params to check")
    report = _models.validate_stochastic(model, params)
    payload = {"stochastic": report["stochastic"],
               "rows": [{**r, "sum": str(r["sum"])} for r in report["rows"]]}
    lines = [f"stochastic: {report['stochastic']}"]
    _emit(args, payload, lines)
    if not report["stochastic"]:
        raise ValidationError("parameters are not stochastic: "
                              + "; ".join(report["faults"][:3]))


def cmd_dim(args):
    model = _load_model(args)
    if args.mixture < 1:
        raise ValidationError(f"--mixture must be at least 1, got "
                              f"{args.mixture}")
    rank, dim = _invariants.jacobian_dimension(_invariants.make_mixture(
        model.tree, model.kind, args.mixture, root_mode=args.root, k=model.k))
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

    sp = sub.add_parser("invariants", help="flattenings, forms, checks")
    _add_model_args(sp)
    sp.add_argument("--flatten")
    sp.add_argument("--minors", type=int)
    sp.add_argument("--interpolate", type=int)
    sp.add_argument("--coords")
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
    sp.add_argument("--rank", type=int)
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
    except BrokenPipeError:
        # the reader closed stdout; keep the flush at exit from raising.
        # An OSError, so this clause must come before the one below.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (ValidationError, ValueError, KeyError, OSError,
            MemoryError) as exc:
        # ValueError covers NewickError, JSONDecodeError and
        # UnicodeDecodeError, and numpy's MemoryError names the allocation
        # that failed; other exceptions are bugs and keep their traceback
        # a KeyError's str is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        if isinstance(exc, MemoryError):
            msg = "out of memory" + (str(exc) and f": {exc}")
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

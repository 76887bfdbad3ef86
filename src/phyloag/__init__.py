"""Exact symbolic and numeric machinery for phylogenetic tree models:
joint-probability maps, sum-product circuits, character-transformed (toric)
coordinates, invariants and a simulation / split-inference pipeline."""

from .exactalg import Poly, Rat, parse_poly, rat
from .treecore import Tree, parse_newick, read_newick
from .models import ModelSpec, make_model, load_model_config
from .paramap import JointMap, expand_map
from .fourier import monomial_map, transform_tensor
from .invariants import (flatten, interpolate_vanishing_forms,
                         jacobian_dimension)
from .pipeline import (exact_distribution, infer_quartet, sample_alignment,
                       score_splits)

__all__ = [
    "Poly", "Rat", "parse_poly", "rat",
    "Tree", "parse_newick", "read_newick",
    "ModelSpec", "make_model", "load_model_config",
    "JointMap", "expand_map",
    "monomial_map", "transform_tensor",
    "flatten", "interpolate_vanishing_forms", "jacobian_dimension",
    "exact_distribution", "infer_quartet", "sample_alignment", "score_splits",
]

__version__ = "0.1.0"

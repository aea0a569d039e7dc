"""Brute-force construction of extremal disc packings on hyperbolic surfaces."""

from .config import PipelineConfig, load_config, primitive_pair
from .domain import Attachment, FundamentalDomain, SidePairing, build_domain, enumerate_pairings
from .geom import GeneralizedCircle, Isometry, IsometryClass, classify, dist
from .group import GroupPresentation, group_from_solution, second_packing_certificate
from .pipeline import run_pipeline
from .search import Candidate, PairingSolution, candidates, complete_pairing
from .tess import DistanceSet, admissible_distances, polygon_metrics, triangle_generators

__version__ = "0.1.0"

__all__ = [
    "Attachment",
    "Candidate",
    "DistanceSet",
    "FundamentalDomain",
    "GeneralizedCircle",
    "GroupPresentation",
    "Isometry",
    "IsometryClass",
    "PairingSolution",
    "PipelineConfig",
    "SidePairing",
    "admissible_distances",
    "build_domain",
    "candidates",
    "classify",
    "complete_pairing",
    "dist",
    "enumerate_pairings",
    "group_from_solution",
    "load_config",
    "polygon_metrics",
    "primitive_pair",
    "run_pipeline",
    "second_packing_certificate",
    "triangle_generators",
]

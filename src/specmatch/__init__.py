"""Spectral graph matching for non-rigid 3D shape registration.

Pipeline: mesh -> weighted graph -> Laplacian spectrum -> commute-time
embedding -> eigenbasis alignment -> EM point registration.
"""

from .alignment import EigenAlignment, align_embeddings, eigensignature, histogram_similarity
from .em_registration import Correspondence, em_register
from .embedding import (
    commute_time_distance,
    commute_time_embedding,
    normalize_hypersphere,
    select_dimension,
    theta_min,
)
from .errors import (
    DisconnectedGraphError,
    InputError,
    MeshParseError,
    NonConvergenceError,
    NumericalError,
    PipelineError,
    SpecmatchError,
)
from .evaluation import (
    GroundTruth,
    geodesic_diameter,
    geodesic_distances,
    registration_error,
    synth_transform,
)
from .isomorphism import exact_spectral_isomorphism, hoffman_wielandt_gap, umeyama_match
from .laplacian import assemble
from .matutil import PermutationMatrix, birkhoff_decompose, hungarian
from .mesh_graph import Graph, Mesh, build_graph, load_mesh, save_mesh
from .pipeline import MatchResult, PipelineConfig, run_match
from .shapes import bent_cylinder, bumpy_sphere, bumpy_torus
from .spectral import Spectrum, check_spectral_properties, dense_eig, eigs_smallest

__version__ = "0.1.0"

__all__ = [
    "EigenAlignment",
    "align_embeddings",
    "eigensignature",
    "histogram_similarity",
    "Correspondence",
    "em_register",
    "commute_time_distance",
    "commute_time_embedding",
    "normalize_hypersphere",
    "select_dimension",
    "theta_min",
    "DisconnectedGraphError",
    "InputError",
    "MeshParseError",
    "NonConvergenceError",
    "NumericalError",
    "PipelineError",
    "SpecmatchError",
    "GroundTruth",
    "geodesic_diameter",
    "geodesic_distances",
    "registration_error",
    "synth_transform",
    "exact_spectral_isomorphism",
    "hoffman_wielandt_gap",
    "umeyama_match",
    "assemble",
    "PermutationMatrix",
    "birkhoff_decompose",
    "hungarian",
    "Graph",
    "Mesh",
    "build_graph",
    "load_mesh",
    "save_mesh",
    "MatchResult",
    "PipelineConfig",
    "run_match",
    "bent_cylinder",
    "bumpy_sphere",
    "bumpy_torus",
    "Spectrum",
    "check_spectral_properties",
    "dense_eig",
    "eigs_smallest",
]

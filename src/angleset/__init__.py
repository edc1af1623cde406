"""Configurations of subspaces meeting at prescribed angles, driven by graphs.

A finite simple graph fixes which pairs of lines may be non-orthogonal; a
parameter tau in (0, 1] fixes the common angle arccos(sqrt(tau)). This package
decides for which tau such a configuration exists, computes the admissible
interval and the minimal ambient dimension, classifies graphs by spectral
index, and builds numerically verified explicit configurations.
"""

from .admissible import (
    ExistenceVerdict,
    PSD_TOL,
    QuarterPosition,
    SigmaInterval,
    TauWeighting,
    existence,
    gram_matrix,
    sigma_cycle,
    sigma_tree,
    trichotomy,
)
from .classify import (
    ComponentClass,
    GraphClass,
    IndexClass,
    IndexKind,
    classify_index,
    classify_structure,
)
from .configurations import (
    VERIFY_TOL,
    SubspaceConfiguration,
    VerificationReport,
    configuration_document,
    construct_configuration,
    load_configuration,
    verify_configuration,
)
from .graphs import (
    Graph,
    GraphError,
    NamedFamily,
    adjacency_matrix,
    component_vertex_sets,
    generate_named,
    is_connected,
    is_tree,
    parse_edge_list,
    parse_named_spec,
    tree_from_pruefer,
)
from .spectra import (
    ConvergenceError,
    Spectrum,
    eigen_symmetric,
    eigenpairs,
    eigenvalues,
    graph_index,
    graph_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentClass",
    "ConvergenceError",
    "ExistenceVerdict",
    "Graph",
    "GraphClass",
    "GraphError",
    "IndexClass",
    "IndexKind",
    "NamedFamily",
    "PSD_TOL",
    "QuarterPosition",
    "SigmaInterval",
    "Spectrum",
    "SubspaceConfiguration",
    "TauWeighting",
    "VERIFY_TOL",
    "VerificationReport",
    "adjacency_matrix",
    "classify_index",
    "classify_structure",
    "component_vertex_sets",
    "configuration_document",
    "construct_configuration",
    "eigen_symmetric",
    "eigenpairs",
    "eigenvalues",
    "existence",
    "generate_named",
    "gram_matrix",
    "graph_index",
    "graph_spectrum",
    "is_connected",
    "is_tree",
    "load_configuration",
    "parse_edge_list",
    "parse_named_spec",
    "sigma_cycle",
    "sigma_tree",
    "tree_from_pruefer",
    "trichotomy",
    "verify_configuration",
]

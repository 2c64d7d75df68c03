"""mvtrace: multi-view latent fusion and trace regression on triangulated meshes.

The package fits per-vertex multi-view representations (autoencoders or PCA),
stacks them into per-subject latent matrices, and regresses a scalar score on
those matrices with a graph-Laplacian smoothness penalty and a row-wise
group-sparsity penalty, solved by monotone FISTA.
"""

__version__ = "0.1.0"

from .mesh import Mesh, GraphLaplacian, load_mesh, build_laplacian, quadratic_form
from .data import SubjectRecord
from .trace_regression import (
    RegularizationConfig,
    FistaConfig,
    RegressionDataset,
    fit_mfista,
)

__all__ = [
    "Mesh",
    "GraphLaplacian",
    "load_mesh",
    "build_laplacian",
    "quadratic_form",
    "SubjectRecord",
    "RegularizationConfig",
    "FistaConfig",
    "RegressionDataset",
    "fit_mfista",
    "__version__",
]

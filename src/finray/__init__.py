"""Visual grasp-force sensing for fin-ray compliant grippers.

Inverse-FEA force estimation driven by keypoint observations, iterative
contact localization against a posed object twin, and mesh scale
calibration, validated against an internal forward-contact oracle.
"""

__version__ = "0.1.0"

from .mesh_model import TetMesh, SurfaceMesh, IntersectionResult
from .fem_core import MaterialModel, StiffnessSystem, ComplianceOperators
from .inverse_solver import EffectorSet, ContactCandidateSet, ForceSolution
from .contact_localizer import PoseTransform, ContactState

__all__ = [
    "TetMesh",
    "SurfaceMesh",
    "IntersectionResult",
    "MaterialModel",
    "StiffnessSystem",
    "ComplianceOperators",
    "EffectorSet",
    "ContactCandidateSet",
    "ForceSolution",
    "PoseTransform",
    "ContactState",
    "__version__",
]

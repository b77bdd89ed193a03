"""Hierarchical (k+1, n)-threshold secret sharing with proactive share
renewal, curve-commitment tamper detection, and a deterministic mobile
adversary simulator."""

from .algebra import FieldParams, Polynomial
from .curve import PROFILES, STANDARD_CURVE, TOY_CURVE, CurveParams, CurvePoint
from .errors import HierShareError, InvariantViolation
from .hierarchy import ROOT_ID, HierarchyTree
from .proactive import RenewalBundle, Verdict
from .sharing import DealerState, GroupShares, HeldShare, ThresholdFactor
from .simnet import SimReport, World

__version__ = "0.1.0"

__all__ = [
    "FieldParams",
    "Polynomial",
    "CurveParams",
    "CurvePoint",
    "PROFILES",
    "TOY_CURVE",
    "STANDARD_CURVE",
    "HierShareError",
    "InvariantViolation",
    "ROOT_ID",
    "HierarchyTree",
    "RenewalBundle",
    "Verdict",
    "DealerState",
    "GroupShares",
    "HeldShare",
    "ThresholdFactor",
    "SimReport",
    "World",
    "__version__",
]

"""Exact non-SOS certificates and numerical sum-of-squares decompositions.

Two halves share the multi-index core: an exact-rational pipeline that
constructs and certifies non-negative polynomials which are not sums of
squares (Newton polytope criteria, AM-GM certificates, homogenization and
degree lifts), and a floating-point pipeline that decomposes sampled
non-negative functions into finitely many half-regular squares and
verifies the reconstruction.
"""

__version__ = "0.1.0"

from .certificates import (
    AmgmCertificate,
    AmgmInequality,
    CertificateError,
    NotSosWitness,
    SosCriterionInconclusive,
    certify_nonnegative,
    certify_not_sos,
)
from .decompose import Decomposition, DecompositionError, decompose, partial_decompose, verify
from .errors import InputError
from .exactpoly import PolynomialFormatError, SparsePolynomial
from .generate import (
    CHOI_LAM,
    MOTZKIN,
    GeneratorInstance,
    construct_candidate,
    degree_lift,
    direct_search,
    emitted_certificate,
    homogenize_lift,
    make_instance,
    reproduce_table,
)
from .holder import (
    ControlField,
    SampledFunction,
    check_slow_variation,
    control_field,
    estimate_seminorm,
)
from .oddweights import OddWeightSystem, solve as solve_odd_weights, weights_for_nodes
from .polytope import GeneralPolytope, SimplexPolytope

__all__ = [
    "AmgmCertificate",
    "AmgmInequality",
    "CertificateError",
    "CHOI_LAM",
    "ControlField",
    "Decomposition",
    "DecompositionError",
    "GeneralPolytope",
    "GeneratorInstance",
    "InputError",
    "MOTZKIN",
    "NotSosWitness",
    "OddWeightSystem",
    "PolynomialFormatError",
    "SampledFunction",
    "SimplexPolytope",
    "SosCriterionInconclusive",
    "SparsePolynomial",
    "certify_nonnegative",
    "certify_not_sos",
    "check_slow_variation",
    "construct_candidate",
    "control_field",
    "decompose",
    "degree_lift",
    "direct_search",
    "emitted_certificate",
    "estimate_seminorm",
    "homogenize_lift",
    "make_instance",
    "partial_decompose",
    "reproduce_table",
    "solve_odd_weights",
    "verify",
    "weights_for_nodes",
]

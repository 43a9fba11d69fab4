"""Exact Groebner-basis ideal arithmetic with a certificate layer."""

from .fields import GF, QQ, PrimeField, RationalField, is_prime
from .orders import Block, DegRevLex, Lex
from .poly import Polynomial, Ring
from .groebner import (
    buchberger,
    is_groebner,
    normal_form,
    s_polynomial,
)
from .matrix import PolyMatrix, canonical_sign
from .idealops import (
    Ideal,
    kernel_of_map,
    linear_type_by_rees,
    rees_ideal,
    rees_ring,
)
from .certify import (
    CertificateReport,
    ComplexData,
    GradeCertificate,
    MinorIdeal,
    MinorWitness,
    buchsbaum_eisenbud,
    grade_at_least,
    is_regular_sequence,
    linear_type_obstruction,
    resolution_minimal,
    smallest_valuation_vector,
    syzygetic_obstruction,
    verify_complex,
)
from .corpus import CORPUS, LemmaCorpusEntry, verify_lemma
from .parse import InputError, SessionInput, parse_poly, parse_session

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "PrimeField",
    "RationalField",
    "is_prime",
    "Block",
    "DegRevLex",
    "Lex",
    "Polynomial",
    "Ring",
    "buchberger",
    "is_groebner",
    "normal_form",
    "s_polynomial",
    "PolyMatrix",
    "canonical_sign",
    "Ideal",
    "kernel_of_map",
    "linear_type_by_rees",
    "rees_ideal",
    "rees_ring",
    "CertificateReport",
    "ComplexData",
    "GradeCertificate",
    "MinorIdeal",
    "MinorWitness",
    "buchsbaum_eisenbud",
    "grade_at_least",
    "is_regular_sequence",
    "linear_type_obstruction",
    "resolution_minimal",
    "smallest_valuation_vector",
    "syzygetic_obstruction",
    "verify_complex",
    "CORPUS",
    "LemmaCorpusEntry",
    "verify_lemma",
    "InputError",
    "SessionInput",
    "parse_poly",
    "parse_session",
    "__version__",
]

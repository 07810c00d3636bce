"""qhc: exact rewriting workbench for the GL2 spherical double affine Hecke
algebra, quantum differential operators on GL2, and the Harish-Chandra
identification between their reductions.

All computations are exact over the field of rational functions in q and t.
"""

from .coeffring import RatCoeff, RAT, QQField, CoeffError, DenomProfile
from .ncpoly import Alphabet, GenSym, NcPoly, Word, ANY_BIDEGREE
from .rewrite import (
    AlgebraSpec,
    AmbiguityReport,
    EngineError,
    HilbertTable,
    NonTermination,
    QCentralGen,
    RankResult,
    RewriteRule,
    SpecError,
    check_ambiguities,
    hilbert_table,
    normal_form,
    rank_of_family,
    straighten_trace,
)

__all__ = [
    "RatCoeff", "RAT", "QQField", "CoeffError", "DenomProfile",
    "Alphabet", "GenSym", "NcPoly", "Word", "ANY_BIDEGREE",
    "AlgebraSpec", "AmbiguityReport", "EngineError", "HilbertTable",
    "NonTermination", "QCentralGen", "RankResult", "RewriteRule", "SpecError",
    "check_ambiguities", "hilbert_table", "normal_form",
    "rank_of_family", "straighten_trace",
]

__version__ = "0.1.0"

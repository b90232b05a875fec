"""cycalc: exact calculator for fractional Calabi-Yau semiorthogonal components.

Given a rectangular Lefschetz base, one of three spherical constructions
(divisor, double cover, root stack) and a degree, the package computes the
normal form of the relevant Serre-functor power in the abelian group
generated by the shift, the line twist and two order-2 symmetries, extracts
the fractional Calabi-Yau dimension as an exact rational, enumerates the
integer Calabi-Yau cases over a builtin catalog, and validates homology
predictions for projective-space cases through Hodge theory.
"""

import importlib

from .autoeq import Generator, NormalForm, Word, resolve
from .catalog import BUILTIN_IDS, LefschetzBase, builtin, fonarev_rank, load_catalog_file
from .constructions import ALL_KINDS, ConstructionKind, SubstitutionTable, substitution_table
from .engine import (
    CaseResult,
    FractionalCYWitness,
    SweepBounds,
    analyze,
    closed_form,
    extract_witness,
    serre_power,
    sweep,
    verify_cross_check,
)

#: Names served from :mod:`cycalc.hodge`, which is imported on first use
#: (PEP 562) so that commands without a Hodge query do not load it.
_HODGE_NAMES = frozenset({
    "HHProfile",
    "HodgeDiamond",
    "PoincareSeries",
    "cy_hh_check",
    "hh_component",
    "hh_pipeline",
    "hkr",
    "jacobian_poincare",
})

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "BUILTIN_IDS",
    "CaseResult",
    "ConstructionKind",
    "FractionalCYWitness",
    "Generator",
    "HHProfile",
    "HodgeDiamond",
    "LefschetzBase",
    "NormalForm",
    "PoincareSeries",
    "SubstitutionTable",
    "SweepBounds",
    "Word",
    "analyze",
    "builtin",
    "closed_form",
    "cy_hh_check",
    "extract_witness",
    "fonarev_rank",
    "hh_component",
    "hh_pipeline",
    "hkr",
    "jacobian_poincare",
    "load_catalog_file",
    "resolve",
    "serre_power",
    "substitution_table",
    "sweep",
    "verify_cross_check",
]


def __getattr__(name: str):
    if name == "hodge" or name in _HODGE_NAMES:
        hodge = importlib.import_module(".hodge", __name__)
        return hodge if name == "hodge" else getattr(hodge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

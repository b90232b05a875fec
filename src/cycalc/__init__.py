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

#: The public names, by the submodule that defines them.  Nothing is imported
#: here: a name or a submodule (errors and value included) loads its module on
#: first use (PEP 562), so each command loads only the layers it runs.
_EXPORTS = {
    "autoeq": ("Generator", "NormalForm", "resolve"),
    "catalog": ("BUILTIN_IDS", "LefschetzBase", "builtin", "fonarev_rank", "load_catalog_file"),
    "constructions": ("ALL_KINDS", "ConstructionKind", "SubstitutionTable", "substitution_table"),
    "engine": (
        "CaseResult", "FractionalCYWitness", "SweepBounds", "analyze", "closed_form",
        "extract_witness", "serre_power", "sweep", "verify_cross_check",
    ),
    "errors": (),
    "hodge": (
        "HHProfile", "HodgeDiamond", "PoincareSeries", "cy_hh_check", "hh_component",
        "hh_pipeline", "hkr", "jacobian_poincare",
    ),
    "value": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

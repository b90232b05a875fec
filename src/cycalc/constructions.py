"""The three spherical constructions, encoded as substitution tables.

Given a base M with a rectangular decomposition of length m (with respect to
a polarization L satisfying omega_M = L^-m) and a degree 1 <= d <= m, each
construction produces a variety or stack X with a spherical pushforward to M,
and the induced autoequivalences of D(X) resolve into the abelian group of
:mod:`cycalc.autoeq`:

* divisor - X in |L^d| inside M;           twist T = L^-d [2]
* double cover - X -> M branched in |L^2d|; twist T = tau L^-d [1]
* root stack - the mu_2-quotient variant;   twist T = chi L^-d [1]

From T the two working composites follow:

    comp_twist  = T . L^d
    serre_twist = S_X . T . L^m

and the Serre functor of X itself is the canonical twist followed by the
shift by dim X.  For the root stack the relative canonical bundle carries the
nontrivial character, so its Serre entry is chi L^(d-m) [dim X]; the
character then cancels against the one in T, leaving serre_twist a pure
shift.  Cyclic covers of degree greater than two have no kind here: the
pushforward along such a cover is not spherical, so no table exists.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Mapping

from .autoeq import Generator, NormalForm
from .catalog import LefschetzBase
from .errors import DegreeOutOfRange, HypothesisViolation
from .value import Value


class ConstructionKind(enum.Enum):
    DIVISOR = "divisor"
    DOUBLE_COVER = "cover"
    ROOT_STACK = "root"


ALL_KINDS: tuple[ConstructionKind, ...] = tuple(ConstructionKind)


class SubstitutionTable(Value):
    """Resolved normal forms of the symbolic generators for one case.

    ``entries`` is a read-only mapping.  It takes part in equality but not in
    the hash, which the other fields already determine.
    """

    __slots__ = ("kind", "d", "m", "dim_m", "dim_x", "entries")

    def __init__(
        self, kind: ConstructionKind, d: int, m: int, dim_m: int, dim_x: int,
        entries: Mapping[Generator, NormalForm],
    ) -> None:
        twist = entries[Generator.SPHERICAL_TWIST]
        serre = entries[Generator.SERRE]
        comp = twist.compose(NormalForm(ltwist=d))
        if comp != entries[Generator.COMP_TWIST]:
            raise AssertionError("comp_twist entry inconsistent with twist . L^d")
        serre_twist = serre.compose(twist).compose(NormalForm(ltwist=m))
        if serre_twist != entries[Generator.SERRE_TWIST]:
            raise AssertionError("serre_twist entry inconsistent with S . T . L^m")
        self._set(kind, d, m, dim_m, dim_x, entries)

    def __hash__(self) -> int:
        return hash((self.kind, self.d, self.m, self.dim_m, self.dim_x))


def check_case(kind: ConstructionKind, d: int, base: LefschetzBase) -> None:
    """Raise unless the construction of degree d exists on the base."""
    m = base.length_m
    if not 1 <= d <= m:
        raise DegreeOutOfRange(f"degree must satisfy 1 <= d <= {m}, got d={d}")
    if not base.omega_is_l_minus_m:
        raise HypothesisViolation(
            f"base {base.id!r} does not satisfy omega_M = L^-m; the reduction "
            "to pure shifts is unavailable"
        )
    if kind is ConstructionKind.ROOT_STACK and not base.chi_stable:
        raise HypothesisViolation(
            f"base {base.id!r} is not stable under the order-2 character; "
            "the root-stack construction needs a character-stable block"
        )


def substitution_table(kind: ConstructionKind, d: int, base: LefschetzBase) -> SubstitutionTable:
    """Build the resolved table for (kind, d) on the given base."""
    check_case(kind, d, base)
    m = base.length_m
    n = base.dim_m
    if kind is ConstructionKind.DIVISOR:
        twist = NormalForm(shift=2, ltwist=-d)
        serre = NormalForm(shift=n - 1, ltwist=d - m)
        dim_x = n - 1
    elif kind is ConstructionKind.DOUBLE_COVER:
        twist = NormalForm(shift=1, ltwist=-d, tau=1)
        serre = NormalForm(shift=n, ltwist=d - m)
        dim_x = n
    else:
        twist = NormalForm(shift=1, ltwist=-d, chi=1)
        # the relative canonical bundle carries the character
        serre = NormalForm(shift=n, ltwist=d - m, chi=1)
        dim_x = n

    entries = MappingProxyType(
        {
            Generator.SPHERICAL_TWIST: twist,
            Generator.SERRE: serre,
            Generator.COMP_TWIST: twist.compose(NormalForm(ltwist=d)),
            Generator.SERRE_TWIST: serre.compose(twist).compose(NormalForm(ltwist=m)),
        }
    )
    return SubstitutionTable(kind=kind, d=d, m=m, dim_m=n, dim_x=dim_x, entries=entries)

"""Word algebra of autoequivalences and its canonical normal form.

The autoequivalences tracked here all live in one abelian group

    Z x Z x Z/2 x Z/2

generated by the homological shift ``[1]``, the twist by the polarizing line
bundle ``L``, an order-2 involution ``tau`` (covering involution) and an
order-2 character ``chi`` (stacky character).  Commutativity holds because a
Serre functor commutes with every autoequivalence, the spherical twist
commutes with ``L``, and the involution fixes ``L``; all composites resolved
by this module are generated by Serre functors, twists by ``L``, ``tau`` and
``chi``, so no ordering information needs to be kept.

Two layers are provided:

* :class:`NormalForm` - an element of the resolved group, with exact integer
  components (Python ints never overflow, so parameter sweeps are safe).
* a word - a formal product of symbolic generators with integer exponents,
  written as a sequence of (generator, exponent) pairs.  Every generator is
  symbolic: spherical twists, Serre functors and the two standard composites
  have no meaning until a geometric construction supplies a substitution
  table; :func:`resolve` then collapses a word to a normal form.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

from .errors import UnresolvedGenerator
from .value import Value


class Generator(enum.Enum):
    """Symbols that may occur in a word.

    Each is a placeholder whose meaning depends on the spherical
    construction, so it resolves only through that construction's table:

    * ``SPHERICAL_TWIST`` - twist T induced on the source by the spherical
      pushforward,
    * ``SERRE`` - Serre functor S of the source,
    * ``COMP_TWIST`` - T composed with the degree-d line twist; its powers
      become pure shifts (times parity factors) once resolved,
    * ``SERRE_TWIST`` - S composed with T and the length-m line twist.
    """

    SPHERICAL_TWIST = "spherical_twist"
    SERRE = "serre"
    COMP_TWIST = "comp_twist"
    SERRE_TWIST = "serre_twist"


class NormalForm(Value):
    """Element (shift, L-twist, tau parity, chi parity) of the resolved group.

    ``tau`` and ``chi`` are stored reduced mod 2; composition is componentwise
    addition.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("shift", "ltwist", "tau", "chi")

    def __init__(self, shift: int = 0, ltwist: int = 0, tau: int = 0, chi: int = 0) -> None:
        self._set(shift, ltwist, tau % 2, chi % 2)

    def compose(self, other: "NormalForm") -> "NormalForm":
        return NormalForm(
            self.shift + other.shift,
            self.ltwist + other.ltwist,
            self.tau + other.tau,
            self.chi + other.chi,
        )

    def power(self, k: int) -> "NormalForm":
        """k-fold composition; k may be negative or zero."""
        return NormalForm(k * self.shift, k * self.ltwist, k * self.tau, k * self.chi)

    def __str__(self) -> str:
        parts = []
        if self.ltwist:
            parts.append(f"L^{self.ltwist}")
        parts.append(f"τ^{self.tau} χ^{self.chi} [{self.shift}]")
        return " ".join(parts)


IDENTITY = NormalForm()


def resolve(
    factors: Iterable[tuple[Generator, int]], table: Mapping[Generator, NormalForm]
) -> NormalForm:
    """Collapse a word, given as (generator, exponent) pairs, to its normal form.

    No pairs make the identity, and exponents may be any integer.  ``table``
    supplies the normal form of each generator (spherical twist, Serre functor
    and their composites).  Every generator resolves into the same abelian
    group, so the result does not depend on the order of ``factors``.  Raises
    :class:`~cycalc.errors.UnresolvedGenerator` when a factor has no entry.
    """
    result = IDENTITY
    for gen, exponent in factors:
        form = table.get(gen)
        if form is None:
            raise UnresolvedGenerator(f"generator {gen.value!r} has no substitution entry")
        result = result.compose(form.power(exponent))
    return result

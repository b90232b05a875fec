"""Serre-functor engine: power evaluation, witnesses, sweeps, cross-check.

For a component cut out by blocks of a length-m rectangular decomposition via
a degree-d spherical construction, the central identity evaluated here is

    S^(d/c)  =  comp_twist^(-m/c) . serre_twist^(d/c),      c = gcd(d, m),

where S is the Serre functor of the component.  Both sides live in the
abelian group Z x Z x Z/2 x Z/2 of :mod:`cycalc.autoeq`, so the evaluation is
exact integer arithmetic.  Two independent code paths compute it:

* :func:`serre_power` builds the symbolic word and resolves it through the
  construction's substitution table;
* :func:`closed_form` evaluates the per-construction closed expression
  directly (shift and parity arithmetic, no word algebra).

:func:`verify_cross_check` runs both over a sweep window and collects the
cases where they disagree; agreement is this package's main internal
consistency guarantee.  A window that compares nothing is refused.

A witness (p, q) with S^q = [p] is extracted from the resolved power: if the
parity components vanish the power itself is a pure shift; otherwise its
square is, because the involution and the character both have order two.  The
component is an integer Calabi-Yau category precisely when q = 1, i.e. when S
itself is a pure shift.  The ratio p/q may reduce to an integer without q
being 1 (for a quartic fourfold S^2 = [6]); such cases are fractional, not
integer, and the two notions are kept distinct throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter
from typing import Iterator

from .autoeq import Generator, NormalForm, resolve
from .catalog import FAMILIES, LefschetzBase, _check_ints
from .constructions import ALL_KINDS, ConstructionKind, _check_kind, check_case, substitution_table
from .errors import (
    CycalcError, InvalidParams, NotPureShiftable, SizeLimitExceeded, UnknownBase,
)
from .value import Value


class FractionalCYWitness(Value):
    """Integers p, q with S^q = [p] for the component's Serre functor S.

    The witness is produced by the power reduction and is not claimed to be
    minimal; q is d/c when the resolved power is already a pure shift and
    2d/c otherwise.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        self._set(p, q)


class CaseResult(Value):
    """Full analysis of one (base, construction, degree) case.

    It stores what :func:`analyze` computed; an error row stores the message
    and ``None`` for the normal form, the witness and dim X.  Everything else
    follows from those fields and is a read-only property.
    """

    __slots__ = ("base", "kind", "d", "serre_power_nf", "witness", "dim_x", "error")

    def __init__(
        self, base: LefschetzBase, kind: ConstructionKind, d: int,
        serre_power_nf: NormalForm | None, witness: FractionalCYWitness | None,
        dim_x: int | None, error: str | None = None,
    ) -> None:
        self._set(base, kind, d, serre_power_nf, witness, dim_x, error)

    @property
    def c(self) -> int:
        """c = gcd(d, m)."""
        return gcd(self.d, self.base.length_m)

    @property
    def power(self) -> int:
        """Exponent q0 = d/c of the Serre functor the normal form describes."""
        return self.d // self.c

    @property
    def cy_dimension(self) -> Fraction | None:
        """p/q of the witness; ``None`` on an error row."""
        return self.witness and Fraction(self.witness.p, self.witness.q)

    @property
    def is_integer_cy(self) -> bool:
        """q = 1: the Serre functor itself is a shift."""
        return self.witness is not None and self.witness.q == 1

    @property
    def component_is_whole(self) -> bool:
        """d = m: the component is all of D(X)."""
        return self.d == self.base.length_m


def serre_power(base: LefschetzBase, kind: ConstructionKind, d: int) -> NormalForm:
    """Resolve the (d/c)-th Serre power through word algebra."""
    table = substitution_table(kind, d, base)  # checks the case before gcd reads d
    m = base.length_m
    c = gcd(d, m)
    factors = ((Generator.COMP_TWIST, -(m // c)), (Generator.SERRE_TWIST, d // c))
    return resolve(factors, table.entries)


def closed_form(base: LefschetzBase, kind: ConstructionKind, d: int) -> NormalForm:
    """Evaluate the (d/c)-th Serre power by direct arithmetic.

    divisor:       [ (dim M + 1) d/c - 2m/c ]
    double cover:  tau^((m-d)/c) [ (dim M + 1) d/c - m/c ]
    root stack:    chi^(m/c)     [ (dim M + 1) d/c - m/c ]
    """
    check_case(kind, d, base)
    m = base.length_m
    n = base.dim_m
    c = gcd(d, m)
    if kind is ConstructionKind.DIVISOR:
        return NormalForm(shift=((n + 1) * d - 2 * m) // c)
    if kind is ConstructionKind.DOUBLE_COVER:
        return NormalForm(shift=((n + 1) * d - m) // c, tau=(m - d) // c)
    return NormalForm(shift=((n + 1) * d - m) // c, chi=m // c)


def extract_witness(nf: NormalForm, q0: int) -> FractionalCYWitness:
    """Turn the normal form of S^q0 into a witness (p, q) with S^q = [p].

    Parity factors square away, so a form with nonzero tau or chi witnesses
    the property at exponent 2*q0.  A nonzero line twist cannot be removed by
    taking powers and is rejected.
    """
    _check_ints({"q0": q0})
    if q0 < 1:
        raise ValueError(f"q0 must be positive, got {q0}")
    if nf.ltwist != 0:
        raise NotPureShiftable(
            f"normal form {nf} has a line-twist component; no power is a shift"
        )
    if nf.tau == 0 and nf.chi == 0:
        return FractionalCYWitness(p=nf.shift, q=q0)
    return FractionalCYWitness(p=2 * nf.shift, q=2 * q0)


def _integrality_expected(kind: ConstructionKind, d: int, m: int) -> bool:
    """Divisibility form of the integer-CY condition, per construction.

    divisor: d | m;  double cover: d | m and m/d odd;  root: d | m, m/d even.
    """
    if m % d != 0:
        return False
    if kind is ConstructionKind.DIVISOR:
        return True
    if kind is ConstructionKind.DOUBLE_COVER:
        return (m // d) % 2 == 1
    return (m // d) % 2 == 0


def analyze(base: LefschetzBase, kind: ConstructionKind, d: int) -> CaseResult:
    """Run the full pipeline for one case."""
    m = base.length_m
    nf = serre_power(base, kind, d)
    table = substitution_table(kind, d, base)
    witness = extract_witness(nf, d // gcd(d, m))
    if (witness.q == 1) != _integrality_expected(kind, d, m):
        raise AssertionError(
            f"integrality witness disagrees with the divisibility criterion "
            f"for {base.id} {kind.value} d={d}"
        )
    return CaseResult(base, kind, d, nf, witness, table.dim_x)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

#: Ceiling on the cases of one sweep or verify window: the sum over its bases
#: of m times the number of kinds.  The largest default window,
#: ``verify --include-weighted`` (weight sum <= 30, all three kinds), holds
#: 2,261,139 cases.
MAX_WINDOW_CASES = 3_000_000


class SweepBounds(Value):
    """Finite enumeration window for catalog sweeps.

    ``kinds`` defaults to the two honest-variety constructions; root-stack
    cases duplicate double-cover numerics with a character in place of the
    involution and are opt-in.  Weighted projective bases are likewise opt-in
    (all-ones weights duplicate ``pn`` and the weighted family is infinite in
    spirit) and run up to weight sum ``max_weight_sum``.  The three bounds must
    be ``int``s.  ``kinds`` is a collection of ``ConstructionKind`` members,
    read once, so an iterator works; it is stored as the members it names,
    once each and in ``ALL_KINDS`` order (the order windows sweep them in).  A
    ``kinds`` naming no member is refused, and so is one holding anything but
    a member, such as the name ``"cover"``: nothing is dropped silently.  A
    bare string for ``kinds`` or ``families`` is refused rather than read
    letter by letter.  Every id in ``families`` must select something: it is
    a builtin family or an ``extra_bases`` id, and ``wpn`` needs
    ``include_weighted``; an empty ``families`` is refused too.
    """

    __slots__ = (
        "max_n", "max_s", "max_weight_sum", "include_weighted", "kinds", "families",
        "extra_bases",
    )

    def __init__(
        self, max_n: int = 30, max_s: int = 5, max_weight_sum: int = 30,
        include_weighted: bool = False,
        kinds: tuple[ConstructionKind, ...] = (
            ConstructionKind.DIVISOR, ConstructionKind.DOUBLE_COVER,
        ),
        families: tuple[str, ...] | None = None,
        extra_bases: tuple[LefschetzBase, ...] = (),
    ) -> None:
        _check_ints({"max_n": max_n, "max_s": max_s, "max_weight_sum": max_weight_sum})
        for field, names in (("kinds", kinds), ("families", families)):
            if isinstance(names, str):
                raise InvalidParams(f"{field} must be a collection, not the string {names!r}")
        named = tuple(kinds)
        self._set(
            max_n, max_s, max_weight_sum, include_weighted,
            tuple(kind for kind in ALL_KINDS if kind in named), families, extra_bases,
        )
        if not self.kinds:
            raise InvalidParams("at least one construction kind is required")
        for kind in named:
            _check_kind(kind, "every entry of kinds")
        if self.families is None:
            return
        if not self.families:
            raise InvalidParams("the families filter names no base id")
        extra_ids = {base.id for base in self.extra_bases}
        for family_id in self.families:
            if family_id not in FAMILIES and family_id not in extra_ids:
                raise UnknownBase(
                    f"unknown base id {family_id!r} in the families filter; "
                    f"builtins: {', '.join(FAMILIES)}"
                )
        if "wpn" in self.families and not self.include_weighted:
            raise InvalidParams(
                "the families filter names wpn, which is swept only with "
                "--include-weighted (include_weighted=True)"
            )


def iter_sweep_bases(bounds: SweepBounds) -> Iterator[LefschetzBase]:
    """The bases of the window, ordered by id and then by parameters.

    Families and ``extra_bases`` are merged by id (ids are distinct, as the
    catalog loader ensures), each family's bases built by its row in window order.
    """
    for source in sorted([*FAMILIES.values(), *bounds.extra_bases], key=attrgetter("id")):
        if bounds.families is not None and source.id not in bounds.families:
            continue
        if isinstance(source, LefschetzBase):
            yield source
        else:
            yield from map(source.base, source.window(bounds))


def iter_cases(bounds: SweepBounds) -> Iterator[CaseResult]:
    """All (base, kind, d) analyses in the window; errors recorded inline.

    The order is (base id, parameters, kind in ``ALL_KINDS`` order, d).  A
    first walk over the bases counts the cases and keeps no base, so a window
    over :data:`MAX_WINDOW_CASES` is refused before any case is analysed and
    without holding the bases it counted; an admitted window is walked again.
    """
    cases = 0
    for base in iter_sweep_bases(bounds):
        cases += base.length_m * len(bounds.kinds)
        if cases > MAX_WINDOW_CASES:
            raise SizeLimitExceeded(
                f"the window holds more than {MAX_WINDOW_CASES:,} cases; refused "
                f"(narrow it with --max-n, --max-s, --max-weight-sum, --kinds or --families)"
            )
    for base in iter_sweep_bases(bounds):
        for kind in bounds.kinds:
            for d in range(1, base.length_m + 1):
                try:
                    yield analyze(base, kind, d)
                except CycalcError as exc:
                    yield CaseResult(base, kind, d, None, None, None, str(exc))


def sweep(
    bounds: SweepBounds | None = None,
    cy_dim: Fraction | int | None = None,
    integer_only: bool = False,
) -> list[CaseResult]:
    """Enumerate cases, optionally filtered by Calabi-Yau dimension.

    An integral ``cy_dim`` selects integer Calabi-Yau components of that
    dimension (q = 1 witnesses only); a non-integral one selects fractional
    components with that exact reduced dimension.  Dimension filters and
    ``integer_only`` look at proper components only, so d = m rows (where the
    component is the whole derived category) are excluded.  The result is in
    (base id, parameters, construction, degree) order, as the window is walked.
    """
    bounds = bounds or SweepBounds()
    if cy_dim is not None:
        if not isinstance(cy_dim, Fraction):
            _check_ints({"cy_dim": cy_dim}, owner="a non-Fraction ")
        cy_dim = Fraction(cy_dim)
        integer_only = integer_only or cy_dim.denominator == 1
    filtered = cy_dim is not None or integer_only
    # an error row has no witness, so it is neither integer nor of a dimension
    return [
        case for case in iter_cases(bounds)
        if not filtered or (
            not case.component_is_whole
            and (not integer_only or case.is_integer_cy)
            and (cy_dim is None or case.cy_dimension == cy_dim)
        )
    ]


# ---------------------------------------------------------------------------
# Cross-check and sweep-level reports
# ---------------------------------------------------------------------------


class VerifyReport(Value):
    """What a cross-check saw: ``cases`` in the window, of which ``compared``
    had a closed form to compare against (the rest do not exist on their base).
    """

    __slots__ = ("cases", "mismatches", "negatives", "compared")

    def __init__(
        self, cases: int, mismatches: tuple[CaseResult, ...],
        negatives: tuple[CaseResult, ...], compared: int,
    ) -> None:
        self._set(cases, mismatches, negatives, compared)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_cross_check(bounds: SweepBounds) -> VerifyReport:
    """Compare the word-algebra path against the closed forms over ``bounds``.

    It reads the case stream that :func:`sweep` filters.  The same pass
    collects into ``negatives`` the proper integer components whose dimension
    is negative.  A window that compares nothing, because it holds no case or
    none that exists on its base, raises CycalcError.
    """
    total = compared = 0
    mismatches = []
    negatives = []
    for case in iter_cases(bounds):
        total += 1
        try:
            via_formula = closed_form(case.base, case.kind, case.d)
        except CycalcError:
            continue  # the construction does not exist on this base
        compared += 1
        # the case is valid, so an error row of the word path is a
        # disagreement too (e.g. a line twist left in the normal form)
        if case.serre_power_nf != via_formula:
            mismatches.append(case)
        if case.is_integer_cy and not case.component_is_whole and case.witness.p < 0:
            negatives.append(case)
    if not total:
        raise CycalcError("the verify window holds no case, so nothing was compared")
    if not compared:
        raise CycalcError(
            f"none of the {total} cases of the verify window exists on its base, "
            "so nothing was compared"
        )
    return VerifyReport(total, tuple(mismatches), tuple(negatives), compared)

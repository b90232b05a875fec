"""Hodge diamonds via graded quotient rings, and Hochschild homology.

For a smooth degree-D hypersurface X in a (weighted) projective space
P(w_0, ..., w_n) admitting a Fermat-type member (w_i | D for all i), the
primitive middle Hodge numbers are graded pieces of the quotient of the
coordinate ring by the partial derivatives of the defining equation.  For
the Fermat member that quotient is a tensor product of truncated polynomial
rings, so its Poincare series is the exact polynomial

    prod_i (1 - t^(D - w_i)) / (1 - t^(w_i)),

and the primitive part of h^{dim - q, q} is its coefficient in degree
(q+1) D - sum(w).  Off the middle row the diamond agrees with the ambient
space (h^{p,p} = 1, all else 0), and when the dimension is even the middle
(p, p) spot gains one non-primitive class from the ambient hyperplane
section.  Hodge numbers are constant in smooth families, so the Fermat
member's numbers are reported for the whole family; smoothness of the chosen
member itself is assumed, never checked.

Every supported case is realised as one such hypersurface: a double cover
of P^n branched in degree 2d is the degree-2d hypersurface in
P(1, ..., 1, d), and a hyperplane of P^n is the linear space P^(n-1).

Hochschild homology of the derived category is read off the diamond,

    HH_k = sum over q - p = k of h^{p,q},

and semiorthogonal components subtract their exceptional blocks: each of the
m - d induced blocks of rank r contributes r to degree 0 and nothing
elsewhere.  A nonzero component of an n-Calabi-Yau flavor must have nonzero
homology in degree -n (that group equals its zeroth Hochschild cohomology),
which is the check :func:`cy_hh_check` performs; a case that is not integer
Calabi-Yau has no such n, and its check is ``None``.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, repeat
from math import gcd
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .catalog import LefschetzBase
from .constructions import ConstructionKind
from .engine import CaseResult
from .errors import (
    HodgeUnsupported,
    InvalidParams,
    InvalidWeights,
    NegativeDimension,
    SizeLimitExceeded,
)
from .value import Value

#: Ceiling on the work of one diamond: the Poincare kernel's coefficient
#: updates plus the cells read, of the whole Hodge table or its middle row.
MAX_HODGE_WORK = 2_000_000


class PoincareSeries(Value):
    """Finitely supported series with nonnegative integer coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._set(tuple(coeffs))

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return 0


def _validate_weights(weights: Sequence[int], degree: int) -> None:
    if not weights:
        raise InvalidWeights("weight list must be nonempty")
    for w in weights:
        if w < 1:
            raise InvalidWeights(f"weights must be positive, got {w}")
        if degree % w != 0:
            raise InvalidWeights(
                f"weight {w} does not divide the degree {degree}; "
                "no Fermat-type member exists"
            )
        if degree <= w:
            raise InvalidWeights(f"degree {degree} must exceed every weight, got weight {w}")


def jacobian_poincare(weights: Sequence[int], degree: int) -> PoincareSeries:
    """Poincare series of the Fermat member's partial-derivative quotient.

    Each variable of weight w contributes the truncated geometric factor
    1 + t^w + ... + t^((s-1) w) with s = D/w - 1 terms.  Multiplying by it is
    a running sum with stride w,

        new[i] = old[i] + new[i - w] - old[i - s w],

    so each factor costs O(len) exact integer additions.  Top degree is
    sum(D - 2 w_i).
    """
    _validate_weights(weights, degree)
    series = [1]
    for w in weights:
        span = (degree // w - 1) * w  # s w
        old = series + [0] * (span - w)  # room for the factor's top term t^((s-1) w)
        # delta[i] = old[i] - old[i - s w]; its stride-w prefix sums are new[i]
        delta = [a - b for a, b in zip(old, chain(repeat(0, span), old))]
        series = [0] * len(old)
        for residue in range(w):
            series[residue::w] = accumulate(delta[residue::w])
    return PoincareSeries(tuple(series))


class HodgeDiamond(Value):
    """Hodge numbers h^{p,q} of a hypersurface X of dimension ``dim_x``.

    Off the middle row the diamond is the ambient space's (h^{p,p} = 1, all
    else 0), so it stores only ``primitive``, the primitive part of the middle
    row h^{dim-q, q}, q = 0, ..., dim.  Conjugation symmetry and Serre duality
    both say that this row is a palindrome, which construction enforces.
    """

    __slots__ = ("dim_x", "primitive")

    def __init__(self, dim_x: int, primitive: tuple[int, ...]) -> None:
        self._set(dim_x, primitive)
        self._validate()

    def _validate(self) -> None:
        if self.primitive != self.primitive[::-1]:
            raise AssertionError(
                f"primitive middle row {self.primitive} breaks symmetry and duality"
            )

    def h(self, p: int, q: int) -> int:
        n = self.dim_x
        if 0 <= p <= n and 0 <= q <= n:
            return int(p == q) + (self.primitive[q] if p + q == n else 0)
        return 0

    @property
    def hodge(self) -> tuple[tuple[int, ...], ...]:
        """The (dim+1) x (dim+1) table, h^{p,q} at ``hodge[p][q]``."""
        cells = range(self.dim_x + 1)
        return tuple(tuple(self.h(p, q) for q in cells) for p in cells)

    def middle_row(self) -> tuple[int, ...]:
        """h^{dim-q, q} for q = 0, ..., dim."""
        return tuple(self.h(self.dim_x - q, q) for q in range(self.dim_x + 1))


class _Hypersurface(NamedTuple):
    """A degree-``degree`` hypersurface of dimension ``dim_x`` in P(1^ones, weights).

    The ``ones`` unit weights are counted, never listed, so a request with
    n = 10**12 is sized before anything of that size exists.  With no
    weights at all X is a linear space P^dim_x: there is no equation, and the
    primitive middle row is zero.
    """

    dim_x: int
    ones: int
    weights: tuple[int, ...]
    degree: int


def _check_size(x: _Hypersurface, table: bool) -> None:
    """Refuse a diamond whose work would exceed :data:`MAX_HODGE_WORK`.

    The work is the cells read, the table's (dim_x + 1)^2 or, unless ``table``,
    the middle row's dim_x + 1, plus the kernel's coefficient updates: the
    series length after each factor, summed.  The unit factors come first and
    the i-th of them leaves a series of length 1 + i (D - 2), so they are
    summed in closed form; the other weights are counted one by one until the
    ceiling is passed.  Nothing is allocated.
    """
    rows = x.dim_x + 1 if table else 1
    work = rows * (x.dim_x + 1) + x.ones + (x.degree - 2) * x.ones * (x.ones + 1) // 2
    length = 1 + (x.degree - 2) * x.ones
    for w in x.weights:
        if work > MAX_HODGE_WORK:
            break
        length += (x.degree // w - 2) * w
        work += length
    if work > MAX_HODGE_WORK:
        raise SizeLimitExceeded(
            f"a dimension-{x.dim_x} diamond of degree {x.degree} needs more than "
            f"{MAX_HODGE_WORK:,} coefficient updates and table cells; refused"
        )


def _diamond(x: _Hypersurface, table: bool = True) -> HodgeDiamond:
    """The one path to a diamond: validate, size, run the kernel, read off
    the primitive middle row (zero for a linear space, which has no equation).
    """
    # the unit weights pass or fail together, so one of them stands for all
    checked = (1,) * min(x.ones, 1) + x.weights
    if checked:
        _validate_weights(checked, x.degree)  # the size count assumes valid weights
    _check_size(x, table)
    primitive = (0,) * (x.dim_x + 1)
    if checked:
        series = jacobian_poincare((1,) * x.ones + x.weights, x.degree)
        shift = x.ones + sum(x.weights)
        primitive = tuple(
            series.coefficient((q + 1) * x.degree - shift) for q in range(x.dim_x + 1)
        )
    return HodgeDiamond(x.dim_x, primitive)


def _weighted(weights: Sequence[int], degree: int) -> _Hypersurface:
    if len(weights) < 3:
        raise InvalidParams("need an ambient space of dimension at least 2")
    return _Hypersurface(len(weights) - 2, 0, tuple(weights), degree)


def weighted_hypersurface_diamond(weights: Sequence[int], degree: int) -> HodgeDiamond:
    """Diamond of a quasi-smooth degree-D hypersurface in P(weights)."""
    return _diamond(_weighted(weights, degree))


class HHProfile(Value):
    """Hochschild homology dimensions by degree; zero entries are dropped.

    ``dims`` is a read-only mapping in increasing degree; the profile hashes
    by its items.
    """

    __slots__ = ("dims",)

    def __init__(self, dims: Mapping[int, int]) -> None:
        cleaned = {k: v for k, v in dims.items() if v != 0}
        if any(v < 0 for v in cleaned.values()):
            raise NegativeDimension(f"negative homology dimension in {cleaned}")
        self._set(MappingProxyType(dict(sorted(cleaned.items()))))

    def __hash__(self) -> int:
        return hash(tuple(self.dims.items()))

    def __reduce__(self):
        return HHProfile, (dict(self.dims),)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def __str__(self) -> str:
        if not self.dims:
            return "0"
        return " ".join(f"{k}:{v}" for k, v in self.dims.items())


def hkr(diamond: HodgeDiamond) -> HHProfile:
    """Hochschild homology of the derived category: HH_k = sum h^{p, p+k}.

    The diagonal gives dim + 1 to HH_0; the primitive class h^{dim-q, q}
    lands in degree 2q - dim.
    """
    n = diamond.dim_x
    dims = {2 * q - n: value for q, value in enumerate(diamond.primitive) if value}
    dims[0] = dims.get(0, 0) + n + 1
    return HHProfile(dims)


def hh_component(hh_x: HHProfile, base: LefschetzBase, d: int) -> HHProfile:
    """Homology of the orthogonal component, by block subtraction.

    Homology is additive over semiorthogonal decompositions and each of the
    m - d exceptional blocks contributes rank_b in degree 0.
    """
    blocks = (base.length_m - d) * base.rank_b
    if blocks < 0:
        raise NegativeDimension(f"degree {d} exceeds the decomposition length")
    if hh_x.dim(0) < blocks:
        raise NegativeDimension(
            f"cannot subtract {blocks} exceptional classes from HH_0 = {hh_x.dim(0)}"
        )
    dims = dict(hh_x.dims)
    dims[0] = dims.get(0, 0) - blocks
    return HHProfile(dims)


class HHCheckReport(Value):
    """Outcome of the degree -n nonvanishing check for an integer CY case.

    The check passes when ``nonvanishing`` holds.  For hypersurfaces in
    projective space the report additionally records whether the value is
    one-dimensional; that observation holds whenever the dimension is
    nonzero (a single middle Hodge group, one-dimensional by the residue
    description), while degree-2 sections land in degree 0 where the two
    spinor classes of an even quadric contribute as well.
    """

    __slots__ = ("n_cy", "value", "expect_one")

    def __init__(self, n_cy: int, value: int, expect_one: bool) -> None:
        self._set(n_cy, value, expect_one)

    @property
    def nonvanishing(self) -> bool:
        return self.value > 0

    @property
    def is_one(self) -> bool | None:
        return self.value == 1 if self.expect_one else None


def cy_hh_check(case: CaseResult, hh_a: HHProfile) -> HHCheckReport | None:
    """Check HH_{-n}(component) != 0 for an integer n-Calabi-Yau case.

    The reported value equals the component's zeroth Hochschild cohomology.
    A case that is not integer Calabi-Yau (a fractional witness, or an error
    row) has no n to check: the result is ``None``.
    """
    if not case.is_integer_cy:
        return None
    n_cy = case.witness.p
    expect_one = (
        case.base.id == "pn" and case.kind is ConstructionKind.DIVISOR and n_cy != 0
    )
    return HHCheckReport(n_cy=n_cy, value=hh_a.dim(-n_cy), expect_one=expect_one)


def _realisation(case: CaseResult) -> _Hypersurface:
    """The total space X of a supported case, as one hypersurface.

    This is the one place that reads a case's base and construction and
    decides which weights, degree and dimension it stands for; ``hodge`` and
    ``hh`` both pass through it.  X has the case's own ``dim_x``:

    * pn divisor: degree d in P(1^(n+1)); for d = 1 the linear space P^(n-1)
    * pn cover: y^2 = f(x), of degree 2d in P(1^(n+1), d)
    * wpn divisor: degree d in P(w_0, ..., w_n), each w_i dividing d

    Root-stack cases are rejected: the stack's homology includes twisted
    sectors that this module does not model.  Every other base and
    construction has no Hodge machinery here.
    """
    base, kind, d = case.base, case.kind, case.d
    if kind is ConstructionKind.ROOT_STACK:
        raise HodgeUnsupported("root-stack cases carry twisted sectors; not computed")
    if (base.id, kind) == ("wpn", ConstructionKind.DIVISOR):
        return _weighted(base.param_key(), d)
    if base.id != "pn":
        raise HodgeUnsupported(
            f"no Hodge machinery for base {base.id!r} with construction {kind.value!r}"
        )
    n = base.dim_m
    if n < 2:
        where = "ambient" if kind is ConstructionKind.DIVISOR else "base"
        raise InvalidParams(f"{where} projective space must have n >= 2, got {n}")
    if kind is ConstructionKind.DOUBLE_COVER:
        return _Hypersurface(case.dim_x, n + 1, (d,), 2 * d)
    ones = n + 1 if d > 1 else 0  # a hyperplane is the linear space P^(n-1): no equation
    return _Hypersurface(case.dim_x, ones, (), d)


def diamond_for_case(case: CaseResult) -> HodgeDiamond:
    """Diamond of the total space X of a supported case (see :func:`_realisation`),
    sized for its whole table."""
    return _diamond(_realisation(case))


class HHPipelineResult(Value):
    __slots__ = ("diamond", "hh_total", "hh_component", "check")

    def __init__(
        self, diamond: HodgeDiamond, hh_total: HHProfile, hh_component: HHProfile,
        check: HHCheckReport | None,
    ) -> None:
        self._set(diamond, hh_total, hh_component, check)


def hh_pipeline(case: CaseResult) -> HHPipelineResult:
    """Diamond -> HH(D(X)) -> HH(component) -> nonvanishing check.

    The case is realised once (:func:`_realisation`), so ``hh`` refuses
    exactly what ``hodge`` refuses, with the same message.  It then also
    refuses a realised hypersurface whose weights are not pairwise coprime:
    the Fermat member meets a stacky stratum, and the twisted sectors it adds
    to HH_0 are not modelled, so the block subtraction would be wrong.  The
    unit weights, and the weight d that a cover of P^n adds, are coprime to
    every other weight.  The diamond is sized for the middle row it reads.
    """
    x = _realisation(case)
    if any(gcd(a, b) > 1 for a, b in combinations(x.weights, 2)):
        raise HodgeUnsupported(
            f"weights {','.join(map(str, x.weights))} are not pairwise coprime; "
            "the twisted sectors of the stacky locus are not modelled"
        )
    diamond = _diamond(x, table=False)
    hh_x = hkr(diamond)
    hh_a = hh_component(hh_x, case.base, case.d)
    return HHPipelineResult(diamond, hh_x, hh_a, cy_hh_check(case, hh_a))

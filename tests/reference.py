"""Slow reference implementations and fixtures that the tests check against.

None of this is part of the package: each function recomputes, by the most
direct means, something that ``cycalc`` computes faster or as a side effect.
"""

import json
from functools import cache
from math import gcd

from cycalc.constructions import ALL_KINDS
from cycalc.hodge import _validate_weights

KIND_ORDER = {kind: index for index, kind in enumerate(ALL_KINDS)}


def sort_key(case):
    """The documented order of sweep records: base id, parameters, construction, degree."""
    return (case.base.id, case.base.param_key(), KIND_ORDER[case.kind], case.d)


def brute_force_jacobian_dim(weights, degree, target):
    """Count monomials of weighted degree ``target`` in the Jacobian quotient.

    Counts exponent vectors (e_0, ..., e_n) with e_i <= D/w_i - 2 and
    sum(w_i e_i) = target by a memoized depth-first enumeration over suffixes.
    Deliberately avoids polynomial arithmetic so that it checks
    :func:`cycalc.hodge.jacobian_poincare` from the outside.
    """
    _validate_weights(weights, degree)
    if target < 0:
        return 0

    @cache
    def count(index, remaining):
        if index == len(weights):
            return 1 if remaining == 0 else 0
        w = weights[index]
        cap = degree // w - 2
        total = 0
        for e in range(min(cap, remaining // w) + 1):
            total += count(index + 1, remaining - e * w)
        return total

    return count(0, target)


def fonarev_rank_by_rows(k, n):
    """The diagram count of :func:`cycalc.catalog.fonarev_rank`, row by row.

    Counts weakly decreasing diagrams (a_1 >= ... >= a_{k-1} >= 0) with
    a_p <= floor((n-k)(k-p)/k) by a prefix-sum dynamic program over the rows,
    in O(k n) steps; it reaches pairs far too large to enumerate.
    """
    if k == 1:
        return 1
    bounds = [((n - k) * (k - p)) // k for p in range(1, k)]
    # ways[v] = number of valid suffixes whose current row equals v
    ways = [1] * (bounds[-1] + 1)
    for p in range(k - 3, -1, -1):
        prefix = [0] * (bounds[p] + 1)
        running = 0
        for v in range(bounds[p] + 1):
            if v < len(ways):
                running += ways[v]
            prefix[v] = running
        ways = prefix
    return sum(ways)


def gr_window(max_n):
    """The (k, n) pairs of the ``gr`` sweep window, by brute enumeration.

    Every pair with 2 <= k, 2k < n <= max_n and gcd(k, n) = 1, found by
    testing all k < n <= max_n rather than by the window's own loop bounds.
    """
    return sorted(
        (k, n)
        for n in range(max_n + 1)
        for k in range(n)
        if 2 <= k and 2 * k < n and gcd(k, n) == 1
    )


def hodge_work(dim_x, weights, degree):
    """The work that ``cycalc.hodge.MAX_HODGE_WORK`` bounds, factor by factor.

    The (dim_x + 1)^2 cells of the diamond plus, for each weight in turn, the
    length of the Poincare series after multiplying by that weight's factor.
    """
    work, length = (dim_x + 1) ** 2, 1
    for w in weights:
        length += (degree // w - 2) * w
        work += length
    return work


def negative_dimension_cases(cases):
    """Proper integer Calabi-Yau components whose dimension is negative.

    If the nonnegativity expectation for Calabi-Yau components holds, every
    such component must vanish; within the builtin catalog these rows are
    exactly the hyperplane-type cases (divisor, d = 1) whose induced blocks
    already exhaust the derived category.
    """
    return [
        case
        for case in cases
        if case.error is None
        and case.is_integer_cy
        and case.d != case.base.length_m
        and case.cy_dimension < 0
    ]


def catalog_record(base):
    """One base as a record of the ``CYCALC_CATALOG`` file format."""
    return {
        "id": base.id,
        "display_name": base.display_name,
        "dim_m": base.dim_m,
        "length_m": base.length_m,
        "rank_b": base.rank_b,
        "line_bundle_note": base.line_bundle_note,
        "omega_is_l_minus_m": base.omega_is_l_minus_m,
        "parameters": dict(base.parameters),
        "chi_stable": base.chi_stable,
    }


def catalog_text(bases):
    """A catalog file holding the given bases."""
    return json.dumps([catalog_record(base) for base in bases], indent=2) + "\n"


def json_payload(rows):
    """The JSON output for ``rows``, rendered in one shot by the standard encoder."""
    return json.dumps({"schema_version": 1, "records": list(rows)}, indent=2) + "\n"


def replace(value, **changes):
    """A copy of a cycalc value object with the named fields changed.

    The copy is built through the class again, so it is validated and
    normalised like any other instance.
    """
    fields = {name: getattr(value, name) for name in value.__slots__}
    return type(value)(**{**fields, **changes})


def series_degree(series):
    """Top degree of a Poincare series: the index of its last nonzero coefficient."""
    return len(series.coefficients) - 1


def diamond_total(diamond):
    """Sum of all Hodge numbers of a diamond."""
    return sum(map(sum, diamond.hodge))


def profile_total(profile):
    """Total dimension of a Hochschild homology profile, over all degrees."""
    return sum(profile.dims.values())

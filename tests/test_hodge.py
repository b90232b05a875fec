"""Graded-quotient series, Hodge diamonds, and the homology pipeline."""

from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycalc import hodge
from cycalc.catalog import _weight_multisets, builtin
from cycalc.constructions import ConstructionKind
from cycalc.engine import SweepBounds, analyze, iter_cases
from cycalc.errors import (
    CycalcError,
    DegreeOutOfRange,
    HodgeUnsupported,
    InvalidParams,
    InvalidWeights,
    NegativeDimension,
    SizeLimitExceeded,
)
from cycalc.hodge import (
    HHProfile,
    _validate_weights,
    cy_hh_check,
    diamond_for_case,
    hh_component,
    hh_pipeline,
    hkr,
    jacobian_poincare,
    weighted_hypersurface_diamond,
)
from reference import (
    brute_force_jacobian_dim,
    diamond_total,
    hodge_work,
    profile_total,
    series_degree,
)

DIV = ConstructionKind.DIVISOR
COVER = ConstructionKind.DOUBLE_COVER


def pn_diamond(n, d, kind=DIV):
    """The diamond of a divisor or double cover of degree d over P^n."""
    return diamond_for_case(analyze(builtin("pn", {"n": n}), kind, d))


# ---------------------------------------------------------------------------
# Poincare series and the enumeration oracle
# ---------------------------------------------------------------------------


def test_series_for_cubic_in_six_variables_is_binomial():
    series = jacobian_poincare((1,) * 6, 3)
    assert series.coefficients == tuple(comb(6, i) for i in range(7))


def test_series_for_weighted_sextic():
    series = jacobian_poincare((1, 1, 1, 3), 6)
    assert series.coefficient(6) == 19
    assert series_degree(series) == sum(6 - 2 * w for w in (1, 1, 1, 3))


def test_series_degenerate_quadric_case():
    assert jacobian_poincare((1, 1), 2).coefficients == (1,)


def test_series_rejects_degree_not_exceeding_weight():
    with pytest.raises(InvalidWeights):
        jacobian_poincare((1, 1), 1)
    with pytest.raises(InvalidWeights):
        jacobian_poincare((1, 1, 3), 3)


def test_series_rejects_non_divisible_weight():
    with pytest.raises(InvalidWeights):
        jacobian_poincare((1, 2), 5)


def test_series_drops_trailing_zero_coefficients():
    series = hodge.PoincareSeries((1, 2, 0, 0))
    assert series.coefficients == (1, 2)
    assert series == hodge.PoincareSeries((1, 2))
    assert series.coefficient(3) == 0


def test_brute_force_examples():
    assert brute_force_jacobian_dim((1,) * 6, 3, 3) == comb(6, 3)
    assert brute_force_jacobian_dim((1, 1, 1, 3), 6, 0) == 1
    assert brute_force_jacobian_dim((1, 1, 1, 3), 6, -2) == 0


def convolution_poincare(weights, degree):
    """Slow oracle for :func:`jacobian_poincare`: each factor is applied as a
    full convolution, one shifted copy of the series per monomial, costing
    O(steps * len) per factor."""
    _validate_weights(weights, degree)
    series = [1]
    for w in weights:
        steps = degree // w - 1  # number of monomials 1, t^w, ..., t^((steps-1) w)
        product = [0] * (len(series) + (steps - 1) * w)
        for exponent in range(steps):
            offset = exponent * w
            for i, coeff in enumerate(series):
                product[offset + i] += coeff
        series = product
    return hodge.PoincareSeries(tuple(series))


@st.composite
def fermat_weight_systems(draw):
    """1-7 weights in 1..8 dividing a degree D > max(w), with D <= 48."""
    degree = draw(st.integers(2, 48))
    divisors = [w for w in range(1, 9) if degree % w == 0 and w < degree]
    weights = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=7))
    return tuple(weights), degree


@settings(deadline=None)
@given(system=fermat_weight_systems(), data=st.data())
@example(system=((1, 1, 1, 3), 6), data=None)  # double sextic: the weight-3 factor is 1
@example(system=((2, 4, 8), 16), data=None)
@example(system=((1,), 2), data=None)
def test_kernel_matches_convolution_and_enumeration_oracles(system, data):
    weights, degree = system
    series = jacobian_poincare(weights, degree)
    assert series == convolution_poincare(weights, degree)
    top = sum(degree - 2 * w for w in weights)
    assert series_degree(series) == top
    targets = [0, top, top + 1]
    if data is not None:
        targets += data.draw(st.lists(st.integers(0, top), max_size=3), label="targets")
    for target in targets:
        assert series.coefficient(target) == brute_force_jacobian_dim(weights, degree, target)


def _outcome(kernel, weights, degree):
    try:
        return kernel(weights, degree).coefficients
    except InvalidWeights as exc:
        return InvalidWeights, str(exc)


@settings(deadline=None)
@given(weights=st.lists(st.integers(-2, 9), max_size=4), degree=st.integers(-3, 24))
@example(weights=[], degree=6)
@example(weights=[0, 1], degree=6)
@example(weights=[1, 4], degree=6)
@example(weights=[1, 6], degree=6)
def test_kernel_and_oracle_accept_and_reject_the_same_inputs(weights, degree):
    assert _outcome(jacobian_poincare, weights, degree) == _outcome(
        convolution_poincare, weights, degree
    )


def test_kernel_matches_convolution_for_degree_40_in_p40():
    weights = (1,) * 41
    assert jacobian_poincare(weights, 40) == convolution_poincare(weights, 40)


def oracle_weight_systems(sum_cap=60):
    """The oracle sweep: weight systems with top degree at most sum_cap."""
    systems = []
    for count in range(2, 5):
        for weights in combinations_with_replacement((1, 2, 3), count):
            step = lcm(*weights)
            degree = step if step > max(weights) else 2 * step
            while sum(degree - 2 * w for w in weights) <= sum_cap:
                systems.append((weights, degree))
                degree += step
    systems.append(((1,) * 5, 8))
    systems.append(((1,) * 6, 8))
    systems.append(((1, 1, 1, 3), 12))
    return [
        (weights, degree)
        for weights, degree in systems
        if sum(degree - 2 * w for w in weights) <= sum_cap
    ]


def test_series_matches_enumeration_oracle_everywhere():
    systems = oracle_weight_systems()
    assert len(systems) > 40
    for weights, degree in systems:
        series = jacobian_poincare(weights, degree)
        top = sum(degree - 2 * w for w in weights)
        for a in range(top + 1):
            assert series.coefficient(a) == brute_force_jacobian_dim(weights, degree, a), (
                weights,
                degree,
                a,
            )
        assert brute_force_jacobian_dim(weights, degree, top + 1) == 0


def test_series_is_palindromic():
    for weights, degree in oracle_weight_systems(40):
        series = jacobian_poincare(weights, degree)
        coeffs = series.coefficients
        assert coeffs == coeffs[::-1]


# ---------------------------------------------------------------------------
# Hodge diamonds
# ---------------------------------------------------------------------------


def test_cubic_fourfold_diamond():
    diamond = pn_diamond(5, 3)
    assert diamond.dim_x == 4
    assert diamond.h(3, 1) == diamond.h(1, 3) == 1
    assert diamond.h(2, 2) == 21
    assert diamond.h(4, 0) == 0
    for p in (0, 1, 3, 4):
        assert diamond.h(p, p) == 1


def test_diamond_reads_zero_outside_its_table():
    diamond = pn_diamond(5, 3)
    for p, q in ((-1, 0), (0, -1), (5, 0), (0, 5), (5, 5)):
        assert diamond.h(p, q) == 0


def test_degree_one_hypersurface_is_projective_space():
    for n in (2, 3, 5, 8):
        diamond = pn_diamond(n, 1)
        assert diamond_total(diamond) == n  # h^{p,p} = 1 for p = 0..n-1
        for p in range(n):
            assert diamond.h(p, p) == 1


def test_quadric_threefold_diamond():
    diamond = pn_diamond(4, 2)
    assert diamond.middle_row() == (0, 0, 0, 0)
    assert all(diamond.h(p, p) == 1 for p in range(4))


def test_even_quadric_gets_extra_middle_class():
    diamond = pn_diamond(4, 1, COVER)  # double cover of P^4 in a quadric = Q^4
    assert diamond.h(2, 2) == 2
    assert diamond_total(diamond) == 6


def test_double_sextic_is_k3():
    diamond = pn_diamond(2, 3, COVER)
    assert diamond.dim_x == 2
    assert diamond.h(2, 0) == diamond.h(0, 2) == 1
    assert diamond.h(1, 1) == 20
    assert diamond_total(diamond) == 24


def test_quartic_double_p5_middle():
    diamond = pn_diamond(5, 2, COVER)
    assert diamond.h(4, 1) == 1


def test_plane_curves_have_classical_genus():
    assert pn_diamond(2, 1).h(1, 0) == 0  # a line
    # degrees 4 and 5 exceed m = 3, so P^2 has no such case; the curves are
    # taken as weighted hypersurfaces
    for d, genus in ((2, 0), (3, 1), (4, 3), (5, 6)):
        diamond = weighted_hypersurface_diamond((1, 1, 1), d)
        assert diamond.h(1, 0) == genus


def test_invalid_parameters():
    with pytest.raises(InvalidParams, match="ambient projective space must have n >= 2"):
        pn_diamond(1, 2)
    with pytest.raises(DegreeOutOfRange):  # a degree below 1 never reaches the Hodge layer
        analyze(builtin("pn", {"n": 4}), DIV, 0)
    with pytest.raises(InvalidParams, match="base projective space must have n >= 2"):
        pn_diamond(1, 2, COVER)
    with pytest.raises(InvalidParams, match="need an ambient space of dimension at least 2"):
        weighted_hypersurface_diamond((1, 1), 2)


def test_every_pn_case_is_its_weighted_hypersurface():
    for n in range(2, 9):
        for d in range(2, n + 2):
            assert pn_diamond(n, d) == weighted_hypersurface_diamond((1,) * (n + 1), d)
        for d in range(1, n + 2):
            cover = weighted_hypersurface_diamond((1,) * (n + 1) + (d,), 2 * d)
            assert pn_diamond(n, d, COVER) == cover


def _wpn_diamond(weights, degree):
    params = {f"w{i}": w for i, w in enumerate(weights)}
    return diamond_for_case(analyze(builtin("wpn", params), DIV, degree))


def test_every_fermat_wpn_divisor_is_its_weighted_hypersurface():
    compared = 0
    for weights in _weight_multisets(9):
        for degree in range(weights[-1] + 1, sum(weights) + 1):
            if len(weights) >= 3 and all(degree % w == 0 for w in weights):
                diamond = weighted_hypersurface_diamond(weights, degree)
                assert diamond == _wpn_diamond(weights, degree)
                compared += 1
    assert compared >= 50, compared


def _refusal(diamond, weights, degree):
    with pytest.raises(CycalcError) as err:
        diamond(weights, degree)
    return type(err.value), str(err.value)


@pytest.mark.parametrize(
    "weights, degree, error",
    [
        ((1, 1, 1, 2), 3, InvalidWeights),  # 2 does not divide 3
        ((1, 2, 3), 4, InvalidWeights),  # 3 does not divide 4
        ((1, 2), 2, InvalidParams),  # fewer than three weights
        ((1, 1), 2, InvalidParams),
    ],
)
def test_weighted_hypersurface_refuses_what_hodge_refuses(weights, degree, error):
    refusal = _refusal(weighted_hypersurface_diamond, weights, degree)
    assert refusal == _refusal(_wpn_diamond, weights, degree)
    assert refusal[0] is error


def test_diamond_symmetries_hold_for_a_sweep():
    for n in range(2, 8):
        for d in range(1, n + 2):
            diamond = pn_diamond(n, d)
            dim = diamond.dim_x
            for p in range(dim + 1):
                for q in range(dim + 1):
                    assert diamond.h(p, q) == diamond.h(q, p)
                    assert diamond.h(p, q) == diamond.h(dim - p, dim - q)


def test_size_ceiling_counts_table_cells_and_series_updates(monkeypatch):
    # cubic fourfold: 5 x 5 table cells, and six factors (1 + t) give series
    # of lengths 2, 3, ..., 7
    work = 25 + sum(range(2, 8))
    monkeypatch.setattr(hodge, "MAX_HODGE_WORK", work)
    assert pn_diamond(5, 3).h(2, 2) == 21
    monkeypatch.setattr(hodge, "MAX_HODGE_WORK", work - 1)
    with pytest.raises(SizeLimitExceeded):
        pn_diamond(5, 3)


def test_hh_is_sized_by_the_middle_row_it_reads(monkeypatch):
    # cubic fourfold: the 5 cells of the middle row, not the 25 of the table
    case = analyze(builtin("pn", {"n": 5}), DIV, 3)
    work = 5 + sum(range(2, 8))
    monkeypatch.setattr(hodge, "MAX_HODGE_WORK", work)
    assert hh_pipeline(case).diamond.primitive == (0, 1, 20, 1, 0)
    with pytest.raises(SizeLimitExceeded):
        diamond_for_case(case)
    monkeypatch.setattr(hodge, "MAX_HODGE_WORK", work - 1)
    with pytest.raises(SizeLimitExceeded):
        hh_pipeline(case)


def test_size_ceiling_refuses_exactly_above_the_work_of_each_factor(monkeypatch):
    # the unit factors are summed in closed form; hodge_work adds them one by one
    cases = [
        (pn_diamond, (n, d, kind), hodge_work(*realised))
        for n in range(2, 10)
        for d in range(1, n + 2)
        for kind, realised in (
            (DIV, (n - 1, (1,) * (n + 1), d) if d > 1 else (n - 1, (), 1)),
            (COVER, (n, (1,) * (n + 1) + (d,), 2 * d)),
        )
    ] + [
        (
            weighted_hypersurface_diamond, (weights, degree),
            hodge_work(len(weights) - 2, weights, degree),
        )
        for weights, degree in FERMAT_DIVISORS
        if len(weights) >= 3
    ]
    for diamond, args, work in cases:
        monkeypatch.setattr(hodge, "MAX_HODGE_WORK", work)
        diamond(*args)
        monkeypatch.setattr(hodge, "MAX_HODGE_WORK", work - 1)
        with pytest.raises(SizeLimitExceeded):
            diamond(*args)


def test_size_ceiling_refuses_huge_requests_before_allocating():
    with pytest.raises(SizeLimitExceeded):
        pn_diamond(10_000, 5_000)
    with pytest.raises(SizeLimitExceeded):
        pn_diamond(10_000, 1)
    with pytest.raises(SizeLimitExceeded):
        pn_diamond(10**12, 3, COVER)  # unit weights are never materialized
    with pytest.raises(SizeLimitExceeded):
        weighted_hypersurface_diamond((1, 1, 200_000, 200_000), 400_000)


def test_size_ceiling_admits_the_projective_range_in_use():
    for n in (44, 45):
        for d in (n, n + 1):
            pn_diamond(n, d)
            pn_diamond(n, d, COVER)
    weighted_hypersurface_diamond((1, 1, 1, 3), 12)


def test_size_ceiling_leaves_weight_errors_to_validation():
    with pytest.raises(InvalidWeights):
        weighted_hypersurface_diamond((1, 1, 7), 4_000_000)


# ---------------------------------------------------------------------------
# Hochschild homology
# ---------------------------------------------------------------------------


def test_hkr_cubic_fourfold():
    profile = hkr(pn_diamond(5, 3))
    assert profile.dims == {-2: 1, 0: 25, 2: 1}


def test_hkr_projective_space():
    profile = hkr(pn_diamond(5, 1))  # P^4
    assert profile.dims == {0: 5}


def test_hkr_k3():
    profile = hkr(pn_diamond(2, 3, COVER))
    assert profile.dims == {-2: 1, 0: 22, 2: 1}


def test_hkr_preserves_total_dimension():
    for n, d in ((3, 2), (4, 3), (5, 3), (6, 2), (5, 4)):
        diamond = pn_diamond(n, d)
        assert profile_total(hkr(diamond)) == diamond_total(diamond)


def test_hkr_support_bounded_by_dimension():
    for n, d in ((4, 4), (5, 5), (6, 3)):
        diamond = pn_diamond(n, d)
        assert all(abs(k) <= diamond.dim_x for k in hkr(diamond).dims)


def test_component_subtraction_cubic_fourfold():
    base = builtin("pn", {"n": 5})
    hh_x = hkr(pn_diamond(5, 3))
    hh_a = hh_component(hh_x, base, 3)
    assert hh_a.dims == {-2: 1, 0: 22, 2: 1}


def test_component_subtraction_cover():
    base = builtin("pn", {"n": 5})
    hh_x = hkr(pn_diamond(5, 2, COVER))
    hh_a = hh_component(hh_x, base, 2)
    assert hh_a.dim(0) == hh_x.dim(0) - 4


def test_component_subtraction_whole_category_unchanged():
    base = builtin("pn", {"n": 5})
    hh_x = hkr(pn_diamond(5, 3))
    assert hh_component(hh_x, base, base.length_m).dims == hh_x.dims


def test_component_subtraction_rejects_overdraw():
    base = builtin("pn", {"n": 5})
    tiny = HHProfile({0: 2})
    with pytest.raises(NegativeDimension):
        hh_component(tiny, base, 1)


def test_component_subtraction_rejects_a_degree_past_the_length():
    base = builtin("pn", {"n": 5})
    with pytest.raises(NegativeDimension, match="degree 7 exceeds the decomposition length"):
        hh_component(hkr(pn_diamond(5, 3)), base, 7)


def test_homology_profile_refuses_a_negative_dimension():
    with pytest.raises(NegativeDimension, match="negative homology dimension"):
        HHProfile({0: 3, 2: -1})


def test_cy_check_cubic_fourfold():
    case = analyze(builtin("pn", {"n": 5}), DIV, 3)
    report = cy_hh_check(case, hh_component(hkr(pn_diamond(5, 3)), case.base, 3))
    assert report.nonvanishing and report.value == 1 and report.is_one


def test_cy_check_cubic_sevenfold():
    case = analyze(builtin("pn", {"n": 8}), DIV, 3)
    pipeline = hh_pipeline(case)
    assert pipeline.check.n_cy == 3
    assert pipeline.check.value == 1
    assert pipeline.check.nonvanishing


def test_cy_check_rejects_fractional_case():
    case = analyze(builtin("pn", {"n": 3}), DIV, 3)
    assert not case.is_integer_cy
    assert cy_hh_check(case, HHProfile({0: 1})) is None


def test_pipeline_checks_exactly_the_integer_cases():
    """The pipeline's check is cy_hh_check's verdict, ``None`` off integer cases."""
    bounds = SweepBounds(
        max_n=8, max_weight_sum=9, include_weighted=True, families=("pn", "wpn")
    )
    seen = set()
    for case in iter_cases(bounds):
        try:
            pipeline = hh_pipeline(case)
        except CycalcError:
            continue  # no Hodge machinery for this case
        assert pipeline.check == cy_hh_check(case, pipeline.hh_component)
        assert (pipeline.check is None) == (not case.is_integer_cy), case
        seen.add((case.base.id, case.is_integer_cy))
    assert seen == {(family, integer) for family in ("pn", "wpn") for integer in (True, False)}


def test_pipeline_rejects_unsupported_bases():
    case = analyze(builtin("gr", {"k": 2, "n": 5}), COVER, 1)
    with pytest.raises(HodgeUnsupported):
        hh_pipeline(case)


def test_pipeline_rejects_root_stacks():
    case = analyze(builtin("pn", {"n": 3}), ConstructionKind.ROOT_STACK, 2)
    with pytest.raises(HodgeUnsupported):
        diamond_for_case(case)


#: Weighted divisors with 2-5 weights in 1..6 and a degree d <= sum(w) that
#: is a multiple of every weight and exceeds each (a Fermat member exists).
FERMAT_DIVISORS = [
    (weights, degree)
    for count in range(2, 6)
    for weights in combinations_with_replacement(range(1, 7), count)
    for degree in range(lcm(*weights), sum(weights) + 1, lcm(*weights))
    if degree > max(weights)
]


@settings(deadline=None)
@given(st.sampled_from(FERMAT_DIVISORS))
@example(((2, 2, 2, 2), 4))
@example(((1, 1, 1, 3), 6))
@example(((1, 1, 2, 3), 6))
@example(((1, 2), 2))
@example(((2, 2), 4))
def test_hh_refuses_exactly_the_weights_sharing_a_factor(system):
    weights, degree = system
    case = analyze(builtin("wpn", {f"w{i}": w for i, w in enumerate(weights)}), DIV, degree)
    if len(weights) < 3:
        # two weights span no surface: hh refuses it as hodge does, shared factor or not
        for compute in (hh_pipeline, diamond_for_case):
            with pytest.raises(InvalidParams):
                compute(case)
        return
    shared = any(gcd(a, b) > 1 for a, b in combinations(weights, 2))
    try:
        hh_pipeline(case)
        refused = False
    except HodgeUnsupported:
        refused = True
    assert refused == shared
    assert diamond_for_case(case).dim_x == len(weights) - 2


def _realised_weights(case):
    """The weights of the hypersurface that the README's table realises ``case``
    as, beside its unit weights; ``None`` when the case has no realisation."""
    base, kind = case.base, case.kind
    if base.id == "wpn" and kind is DIV and len(base.param_key()) >= 3:
        return base.param_key()
    if base.id == "pn" and kind is not ConstructionKind.ROOT_STACK and base.dim_m >= 2:
        return (case.d,) if kind is COVER else ()
    return None


def _case_outcome(compute, case):
    """(result, None), or (None, (error class, message)) for a refusal."""
    try:
        return compute(case), None
    except CycalcError as exc:
        return None, (type(exc), str(exc))


def _agreement_grid():
    """Every case of every kind and degree over small pn, wpn, gr and quadric bases."""
    bases = [builtin("pn", {"n": n}) for n in range(1, 7)]
    bases += [
        builtin("wpn", {f"w{i}": w for i, w in enumerate(weights)})
        for weights in _weight_multisets(10)
    ]
    bases += [builtin("gr", {"k": 2, "n": 5}), builtin("quadric4s2", {"s": 1})]
    for base in bases:
        for kind in ConstructionKind:
            for d in range(1, base.length_m + 1):
                try:
                    yield analyze(base, kind, d)
                except CycalcError:
                    continue  # the construction does not exist on this base


def test_hh_refuses_what_hodge_refuses_and_then_only_shared_weights():
    seen = set()
    for case in _agreement_grid():
        where = f"{case.base.display_name} {case.kind.value} d={case.d}"
        pipeline, hh_error = _case_outcome(hh_pipeline, case)
        diamond, hodge_error = _case_outcome(diamond_for_case, case)
        weights = _realised_weights(case)
        if weights is None:
            assert hodge_error is not None, where
        if weights and any(gcd(a, b) > 1 for a, b in combinations(weights, 2)):
            listed = ",".join(map(str, weights))
            assert hh_error == (HodgeUnsupported, f"weights {listed} are not pairwise coprime; "
                                "the twisted sectors of the stacky locus are not modelled"), where
        else:
            assert hh_error == hodge_error, where
        if diamond is not None:
            assert diamond.dim_x == case.dim_x, where
            if pipeline is not None:
                assert pipeline.diamond == diamond, where
        seen.add((case.base.id, hh_error and hh_error[0], hodge_error and hodge_error[0]))
    # the grid reaches every refusal and both successes
    assert {error for _, error, _ in seen} >= {
        None, HodgeUnsupported, InvalidParams, InvalidWeights
    }
    assert {base_id for base_id, _, _ in seen} == {"pn", "wpn", "gr", "quadric4s2"}


@pytest.mark.parametrize(
    "base_id, params, kind, d, error",
    [
        ("pn", {"n": 5}, DIV, 3, None),
        ("pn", {"n": 5}, DIV, 1, None),
        ("pn", {"n": 3}, COVER, 2, None),
        ("pn", {"n": 1}, DIV, 1, InvalidParams),
        ("pn", {"n": 3}, ConstructionKind.ROOT_STACK, 2, HodgeUnsupported),
        ("pn", {"n": 10**7}, DIV, 1, SizeLimitExceeded),
        ("wpn", {"w0": 1, "w1": 1, "w2": 1, "w3": 1, "w4": 2}, DIV, 6, None),
        ("wpn", {"w0": 1, "w1": 1, "w2": 2, "w3": 2}, DIV, 4, HodgeUnsupported),
        ("wpn", {"w0": 1, "w1": 1, "w2": 1, "w3": 3}, DIV, 4, InvalidWeights),
    ],
)
def test_hh_realises_each_case_once(monkeypatch, base_id, params, kind, d, error):
    calls = []
    realise = hodge._realisation
    monkeypatch.setattr(hodge, "_realisation", lambda case: calls.append(case) or realise(case))
    case = analyze(builtin(base_id, params), kind, d)
    if error is None:
        hh_pipeline(case)
    else:
        with pytest.raises(error):
            hh_pipeline(case)
    assert calls == [case]


def test_weighted_divisor_pipeline_matches_double_cover():
    # the weighted realization of a double cover gives the same diamond
    cover = pn_diamond(3, 2, COVER)
    weighted = weighted_hypersurface_diamond((1, 1, 1, 1, 2), 4)
    assert cover == weighted


def test_integer_cy_checks_over_projective_bases():
    """Nonvanishing holds whenever the component is nonempty.

    The only integer cases whose component homology vanishes entirely are the
    hyperplane rows (divisor, d = 1), where the induced blocks exhaust the
    category.
    """
    bounds = SweepBounds(max_n=10, families=("pn",))
    for case in iter_cases(bounds):
        if case.error is not None or not case.is_integer_cy:
            continue
        if dict(case.base.parameters)["n"] < 2:
            continue  # no ambient Hodge machinery below P^2
        pipeline = hh_pipeline(case)
        if profile_total(pipeline.hh_component) == 0:
            assert case.kind is DIV and case.d == 1
            assert not pipeline.check.nonvanishing
        else:
            assert pipeline.check.nonvanishing
            if case.kind is DIV and case.d >= 3:
                # one middle Hodge group, one-dimensional by the residue count
                assert pipeline.check.value == 1 and pipeline.check.is_one
            elif case.kind is DIV and case.d == 2:
                # degree 0: the two spinor classes of an even quadric
                assert pipeline.check.n_cy == 0
                assert pipeline.check.value == 2


def test_component_profile_symmetric_for_divisible_degrees():
    for n, d in ((5, 3), (5, 2), (7, 4), (9, 5), (11, 3)):
        if (n + 1) % d:
            continue
        case = analyze(builtin("pn", {"n": n}), DIV, d)
        pipeline = hh_pipeline(case)
        n_cy = case.witness.p
        assert pipeline.hh_component.dim(-n_cy) == pipeline.hh_component.dim(n_cy)

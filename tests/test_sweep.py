"""Catalog sweeps: golden lists, ordering, filters, inline errors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycalc.catalog import FAMILIES, Family, LefschetzBase, builtin
from cycalc.constructions import ALL_KINDS, ConstructionKind
from cycalc.engine import (
    SweepBounds,
    iter_cases,
    iter_sweep_bases,
    sweep,
)
from cycalc.errors import InvalidParams, UnknownBase
from reference import negative_dimension_cases, sort_key

DIV = ConstructionKind.DIVISOR
COVER = ConstructionKind.DOUBLE_COVER


def signature(case):
    return (case.base.id, case.base.param_key(), case.kind, case.d)


K3_CASES = {
    ("pn", (5,), DIV, 3),
    ("gr", (3, 10), DIV, 1),
    ("gr", (2, 5), COVER, 1),
}

THREEFOLD_CASES = {
    ("pn", (8,), DIV, 3),
    ("quadric4s2", (1,), DIV, 1),
    ("gr26_L2", (), DIV, 1),
    ("gr", (3, 11), DIV, 1),
    ("gr", (4, 9), DIV, 1),
    ("sgr36", (), DIV, 2),
    ("ogr510", (), DIV, 2),
    ("p3xp3", (), DIV, 2),
    ("pn", (5,), COVER, 2),
    ("g2gr", (), COVER, 1),
}


def test_k3_golden_list():
    assert {signature(c) for c in sweep(cy_dim=2)} == K3_CASES


def test_threefold_golden_list():
    assert {signature(c) for c in sweep(cy_dim=3)} == THREEFOLD_CASES


def test_fractional_filter_finds_cubic_surface_case():
    results = sweep(SweepBounds(max_n=4, families=("pn",)), cy_dim=Fraction(4, 3))
    assert {signature(c) for c in results} == {("pn", (3,), DIV, 3)}


def test_filter_with_empty_window_is_empty():
    assert sweep(SweepBounds(max_n=0, max_s=0, families=("pn", "gr")), cy_dim=2) == []


def test_high_dimension_filter_with_small_bounds():
    assert sweep(SweepBounds(max_n=4, families=("pn", "gr")), cy_dim=7) == []


def test_integer_only_filter():
    results = sweep(SweepBounds(max_n=8, families=("pn",)), integer_only=True)
    assert results
    for case in results:
        assert case.is_integer_cy
        assert not case.component_is_whole


def test_unfiltered_sweep_keeps_whole_and_fractional_rows():
    results = sweep(SweepBounds(max_n=5, families=("pn",)))
    kinds = {(c.component_is_whole, c.is_integer_cy) for c in results}
    assert (True, True) in kinds or (True, False) in kinds
    assert any(not c.is_integer_cy for c in results)


def test_sweep_is_sorted_and_deterministic():
    first = sweep(SweepBounds(max_n=9))
    second = sweep(SweepBounds(max_n=9))
    assert [signature(c) for c in first] == [signature(c) for c in second]
    keys = [sort_key(c) for c in first]
    assert keys == sorted(keys)


def test_golden_filters_ignore_whole_components():
    # on its own decomposition every base with d = m would report dim X
    for case in sweep(cy_dim=2) + sweep(cy_dim=3):
        assert not case.component_is_whole


def test_negative_dimension_report():
    cases = list(iter_cases(SweepBounds()))
    negatives = negative_dimension_cases(cases)
    assert negatives  # hyperplane-type rows exist
    for case in negatives:
        assert case.kind is DIV and case.d == 1


def test_root_kind_optional_and_adds_stacky_rows():
    bounds = SweepBounds(max_n=6, families=("pn",), kinds=ALL_KINDS)
    results = sweep(bounds, cy_dim=2)
    assert ("pn", (3,), ConstructionKind.ROOT_STACK, 2) in {signature(c) for c in results}


def test_weighted_bases_opt_in():
    bounds = SweepBounds(max_weight_sum=6, include_weighted=True, families=("wpn",))
    results = sweep(bounds)
    assert results
    assert all(c.base.id == "wpn" for c in results)
    sums = {sum(value for _, value in c.base.parameters) for c in results}
    assert max(sums) <= 6


def test_repeated_kinds_count_once():
    # kinds are stored once each, in sweep order, so only their set tells windows apart
    bounds = SweepBounds(max_n=4, families=("pn",), kinds=(COVER, DIV, COVER, DIV))
    assert bounds.kinds == (DIV, COVER)
    in_order = SweepBounds(max_n=4, families=("pn",), kinds=(DIV, COVER))
    assert bounds == in_order and hash(bounds) == hash(in_order)
    assert sweep(bounds) == sweep(in_order)
    assert SweepBounds(kinds=iter((COVER, DIV))).kinds == (DIV, COVER)
    assert len(list(iter_cases(SweepBounds(max_n=2, families=("pn",), kinds=(DIV, DIV))))) == 5


def test_an_empty_kinds_is_refused():
    with pytest.raises(InvalidParams, match="^at least one construction kind is required$"):
        SweepBounds(kinds=())
    # a name is not a kind, so a kinds of names selects nothing either
    with pytest.raises(InvalidParams, match="^at least one construction kind is required$"):
        SweepBounds(kinds=("divisor",))


def test_family_filters_that_select_nothing_are_refused():
    with pytest.raises(UnknownBase, match="unknown base id 'nope' in the families filter"):
        SweepBounds(families=("pn", "nope"))
    with pytest.raises(InvalidParams, match="names wpn.*--include-weighted"):
        SweepBounds(families=("wpn",))
    with pytest.raises(InvalidParams, match="names no base id"):
        SweepBounds(families=())
    # an extra base id is known only to the bounds that carry it
    with pytest.raises(UnknownBase, match="'custom'"):
        SweepBounds(families=("custom",))
    custom = LefschetzBase(
        id="custom", display_name="custom", dim_m=5, length_m=6, rank_b=1, line_bundle_note=""
    )
    bounds = SweepBounds(families=("custom", "pn"), extra_bases=(custom,))
    assert bounds.families == ("custom", "pn")
    assert SweepBounds(families=("wpn",), include_weighted=True).families == ("wpn",)


def test_default_sweep_excludes_weighted_and_root():
    for case in iter_cases(SweepBounds(max_n=6)):
        assert case.base.id != "wpn"
        assert case.kind in (DIV, COVER)


def test_user_base_errors_recorded_inline():
    flaky = LefschetzBase(
        id="custom",
        display_name="custom base",
        dim_m=5,
        length_m=4,
        rank_b=2,
        line_bundle_note="",
        chi_stable=False,
    )
    bounds = SweepBounds(
        families=("custom",),
        kinds=(ConstructionKind.ROOT_STACK,),
        extra_bases=(flaky,),
    )
    results = sweep(bounds)
    assert len(results) == 4
    assert all(c.error is not None for c in results)
    assert all(c.serre_power_nf is None for c in results)


def test_user_base_participates_in_sweeps():
    solid = LefschetzBase(
        id="custom",
        display_name="custom base",
        dim_m=5,
        length_m=6,
        rank_b=1,
        line_bundle_note="",
    )
    results = sweep(SweepBounds(families=("custom",), extra_bases=(solid,)), cy_dim=2)
    # same numerics as the cubic fourfold case
    assert {(c.base.id, c.d, c.kind) for c in results} == {("custom", 3, DIV)}


# ---------------------------------------------------------------------------
# Enumeration order is output order
# ---------------------------------------------------------------------------

#: Extra base ids that sort before, between and after the builtin ids.
EXTRA_IDS = ("a", "gr1", "h", "pz", "zz")


@st.composite
def windows(draw):
    include_weighted = draw(st.booleans())
    extra_bases = tuple(
        LefschetzBase(
            id=base_id,
            display_name=base_id,
            dim_m=draw(st.integers(0, 6)),
            length_m=draw(st.integers(1, 6)),
            rank_b=1,
            line_bundle_note="",
            omega_is_l_minus_m=draw(st.booleans()),
            chi_stable=draw(st.booleans()),
        )
        for base_id in draw(st.lists(st.sampled_from(EXTRA_IDS), unique=True))
    )
    ids = [i for i in FAMILIES if include_weighted or i != "wpn"]
    ids += [base.id for base in extra_bases]
    families = draw(st.none() | st.lists(st.sampled_from(ids), min_size=1, unique=True))
    return SweepBounds(
        max_n=draw(st.integers(0, 12)),
        max_s=draw(st.integers(0, 3)),
        max_weight_sum=draw(st.integers(0, 10)),
        include_weighted=include_weighted,
        kinds=tuple(draw(st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=5))),
        families=None if families is None else tuple(families),
        extra_bases=extra_bases,
    )


@settings(max_examples=40, deadline=None)
@given(windows(), st.data())
def test_enumeration_order_is_output_order(bounds, data):
    cases = list(iter_cases(bounds))
    brute = sorted(cases, key=sort_key)
    assert cases == brute
    proper = [c for c in brute if c.error is None and not c.component_is_whole]
    assert sweep(bounds, integer_only=True) == [c for c in proper if c.is_integer_cy]
    cy_dim = data.draw(st.sampled_from(sorted({c.cy_dimension for c in proper} | {2})))
    assert sweep(bounds, cy_dim=cy_dim) == [
        c for c in proper
        if c.cy_dimension == cy_dim and (cy_dim.denominator > 1 or c.is_integer_cy)
    ]


def test_a_new_family_is_one_row_and_sweeps_in_order(monkeypatch):
    # P^n x P^n with L = O(1,1): the p3xp3 entry is its n = 3 member
    row = Family(
        "pnxpn", "product P^n x P^n", ("n",), "2n", "n+1", "n+1", "O(1,1)",
        lambda n: (2 * n, n + 1, n + 1),
        lambda n: (f"P^{n} x P^{n}", "O(1,1)"),
        lambda bounds: ((n,) for n in range(1, bounds.max_n + 1)),
        minimum=1,
    )
    monkeypatch.setitem(FAMILIES, "pnxpn", row)
    bounds = SweepBounds(max_n=4, max_s=1, families=("quadric4s2", "pnxpn", "pn"))
    cases = sweep(bounds)
    assert cases == sorted(cases, key=sort_key)
    assert list(dict.fromkeys(c.base.id for c in cases)) == ["pn", "pnxpn", "quadric4s2"]
    assert sum(c.base.id == "pnxpn" for c in cases) == 2 * (2 + 3 + 4 + 5)
    threefolds = {signature(c) for c in sweep(bounds, cy_dim=3)}
    assert ("pnxpn", (3,), DIV, 2) in threefolds


def test_window_bases_are_the_bases_builtin_makes():
    # a window base is built from its row's parameter values without reading
    # them by name, so it must equal the base that the named parameters give
    bases = list(iter_sweep_bases(SweepBounds(include_weighted=True, max_weight_sum=12)))
    assert {base.id for base in bases} == set(FAMILIES)
    for base in bases:
        assert base == builtin(base.id, dict(base.parameters))

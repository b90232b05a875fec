"""Catalog sweeps: golden lists, ordering, filters, inline errors."""

from fractions import Fraction

import pytest

from cycalc.catalog import LefschetzBase
from cycalc.constructions import ALL_KINDS, ConstructionKind
from cycalc.engine import (
    SweepBounds,
    iter_cases,
    sweep,
)
from cycalc.errors import InvalidParams, UnknownBase
from reference import negative_dimension_cases

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
    keys = [c.sort_key() for c in first]
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
    bounds = SweepBounds(max_n=4, families=("pn",), kinds=(COVER, DIV, COVER, DIV))
    assert bounds.kinds == (COVER, DIV)
    assert sweep(bounds) == sweep(SweepBounds(max_n=4, families=("pn",), kinds=(DIV, COVER)))
    assert len(list(iter_cases(SweepBounds(max_n=2, families=("pn",), kinds=(DIV, DIV))))) == 5


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

"""Substitution tables for the three spherical constructions."""

import pytest

from cycalc.autoeq import Generator, NormalForm
from cycalc.catalog import builtin
from cycalc.constructions import (
    ALL_KINDS,
    ConstructionKind,
    check_case,
    substitution_table,
)
from cycalc.engine import SweepBounds, closed_form, iter_sweep_bases
from cycalc.errors import (
    DegreeOutOfRange,
    HypothesisViolation,
)
from reference import replace

T = Generator.SPHERICAL_TWIST
S = Generator.SERRE
COMP = Generator.COMP_TWIST
SERRE_TWIST = Generator.SERRE_TWIST


def test_divisor_table_on_p5():
    table = substitution_table(ConstructionKind.DIVISOR, 3, builtin("pn", {"n": 5}))
    assert table.entries[T] == NormalForm(shift=2, ltwist=-3)
    assert table.entries[S] == NormalForm(shift=4, ltwist=-3)
    assert table.entries[COMP] == NormalForm(shift=2)
    assert table.entries[SERRE_TWIST] == NormalForm(shift=6)
    assert table.dim_x == 4


def test_double_cover_table_on_p5():
    table = substitution_table(ConstructionKind.DOUBLE_COVER, 2, builtin("pn", {"n": 5}))
    assert table.entries[T] == NormalForm(shift=1, ltwist=-2, tau=1)
    assert table.entries[S] == NormalForm(shift=5, ltwist=-4)
    assert table.entries[COMP] == NormalForm(shift=1, tau=1)
    assert table.entries[SERRE_TWIST] == NormalForm(shift=6, tau=1)
    assert table.dim_x == 5


def test_root_table_on_g2():
    table = substitution_table(ConstructionKind.ROOT_STACK, 1, builtin("g2gr"))
    assert table.entries[T] == NormalForm(shift=1, ltwist=-1, chi=1)
    assert table.entries[S] == NormalForm(shift=5, ltwist=-2, chi=1)
    assert table.entries[COMP] == NormalForm(shift=1, chi=1)
    # the character in the canonical bundle cancels the one in the twist
    assert table.entries[SERRE_TWIST] == NormalForm(shift=6)
    assert table.dim_x == 5


def all_catalog_tables():
    for base in iter_sweep_bases(SweepBounds(max_n=12, extra_bases=(builtin("igr2", {"n": 2}),))):
        for kind in ALL_KINDS:
            for d in range(1, base.length_m + 1):
                yield base, kind, d, substitution_table(kind, d, base)


def test_serre_entry_is_canonical_twist_and_dimension_shift():
    for base, kind, d, table in all_catalog_tables():
        serre = table.entries[S]
        assert serre.shift == table.dim_x
        assert serre.ltwist == d - base.length_m
        assert serre.tau == 0


def test_serre_twist_purity_pattern():
    for base, kind, d, table in all_catalog_tables():
        st_entry = table.entries[SERRE_TWIST]
        assert st_entry.ltwist == 0
        assert st_entry.shift == base.dim_m + 1
        if kind is ConstructionKind.DOUBLE_COVER:
            assert (st_entry.tau, st_entry.chi) == (1, 0)
        else:
            assert (st_entry.tau, st_entry.chi) == (0, 0)


def test_comp_twist_pattern():
    for base, kind, d, table in all_catalog_tables():
        comp = table.entries[COMP]
        assert comp.ltwist == 0
        if kind is ConstructionKind.DIVISOR:
            assert comp == NormalForm(shift=2)
        elif kind is ConstructionKind.DOUBLE_COVER:
            assert comp == NormalForm(shift=1, tau=1)
        else:
            assert comp == NormalForm(shift=1, chi=1)


def test_table_consistency_invariant_holds_across_catalog():
    # the constructor revalidates comp_twist = T.L^d and serre_twist = S.T.L^m
    count = sum(1 for _ in all_catalog_tables())
    assert count > 500


def test_degree_out_of_range():
    base = builtin("pn", {"n": 5})
    with pytest.raises(DegreeOutOfRange):
        substitution_table(ConstructionKind.DIVISOR, 0, base)
    with pytest.raises(DegreeOutOfRange):
        substitution_table(ConstructionKind.DIVISOR, 9, base)


def test_omega_hypothesis_enforced():
    base = replace(builtin("pn", {"n": 5}), omega_is_l_minus_m=False)
    with pytest.raises(HypothesisViolation):
        substitution_table(ConstructionKind.DIVISOR, 2, base)


def test_root_requires_character_stability():
    base = replace(builtin("pn", {"n": 5}), chi_stable=False)
    with pytest.raises(HypothesisViolation):
        substitution_table(ConstructionKind.ROOT_STACK, 2, base)
    # the other constructions do not care
    substitution_table(ConstructionKind.DIVISOR, 2, base)
    substitution_table(ConstructionKind.DOUBLE_COVER, 2, base)


INVALID_CASES = [
    (ConstructionKind.DIVISOR, 0, builtin("pn", {"n": 5})),
    (ConstructionKind.DOUBLE_COVER, 7, builtin("pn", {"n": 5})),
    (
        ConstructionKind.DIVISOR,
        2,
        replace(builtin("pn", {"n": 5}), omega_is_l_minus_m=False),
    ),
    (
        ConstructionKind.ROOT_STACK,
        2,
        replace(builtin("pn", {"n": 5}), chi_stable=False),
    ),
]


@pytest.mark.parametrize("kind, d, base", INVALID_CASES)
def test_closed_form_rejects_what_the_table_rejects(kind, d, base):
    with pytest.raises(Exception) as from_table:
        substitution_table(kind, d, base)
    with pytest.raises(Exception) as from_formula:
        closed_form(base, kind, d)
    with pytest.raises(Exception) as from_guard:
        check_case(kind, d, base)
    assert from_table.type in (DegreeOutOfRange, HypothesisViolation)
    assert from_formula.type is from_table.type
    assert from_guard.type is from_table.type
    assert str(from_formula.value) == str(from_table.value)


def test_tables_are_immutable_and_hashable():
    base = builtin("pn", {"n": 5})
    table = substitution_table(ConstructionKind.DIVISOR, 3, base)
    with pytest.raises(TypeError):
        table.entries[S] = NormalForm()
    assert table.entries[S] == NormalForm(shift=4, ltwist=-3)
    twin = substitution_table(ConstructionKind.DIVISOR, 3, base)
    assert twin == table and hash(twin) == hash(table)
    other = substitution_table(ConstructionKind.DOUBLE_COVER, 3, base)
    assert len({table, twin, other}) == 2


def test_kind_names_round_trip():
    for kind in ALL_KINDS:
        assert ConstructionKind(kind.value) is kind
    with pytest.raises(ValueError):
        ConstructionKind("triple")

"""The library's input rule, stated once and kept at every public entry point.

An integer argument must be exactly an ``int`` (``True`` is no integer) and a
construction kind must be a ``ConstructionKind`` member (not its value
``"divisor"``).  Anything else is refused with a ``CycalcError`` subclass
whose message names the field, before any arithmetic reads it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycalc.autoeq import NormalForm
from cycalc.catalog import LefschetzBase, builtin, fonarev_rank
from cycalc.constructions import ConstructionKind, check_case, substitution_table
from cycalc.engine import (
    SweepBounds, analyze, closed_form, extract_witness, serre_power, sweep,
)
from cycalc.errors import CycalcError, InvalidParams
from cycalc.hodge import (
    HHProfile, hh_component, jacobian_poincare, weighted_hypersurface_diamond,
)

DIV = ConstructionKind.DIVISOR
ROOT = ConstructionKind.ROOT_STACK
P4 = builtin("pn", {"n": 4})
SMALL = {"max_n": 2, "families": ("pn",)}


def test_a_kind_given_by_its_value_is_refused():
    # the divisor's answer on P^4 at d = 1 is p = -5, q = 1; a value fell through
    # to the root branch of both the table and the closed forms, giving p = 0, q = 2
    witness = analyze(P4, DIV, 1).witness
    assert (witness.p, witness.q) == (-5, 1)
    refusal = "^kind must be a ConstructionKind, got 'divisor'$"
    for call in (analyze, serre_power, closed_form):
        with pytest.raises(InvalidParams, match=refusal):
            call(P4, "divisor", 1)
    with pytest.raises(InvalidParams, match=refusal):
        substitution_table("divisor", 1, P4)


def test_a_root_stack_given_by_its_value_does_not_skip_the_stability_hypothesis():
    unstable = LefschetzBase("x", "X", 3, 4, 1, "O(1)", chi_stable=False)
    with pytest.raises(InvalidParams, match="^kind must be a ConstructionKind, got 'root'$"):
        analyze(unstable, "root", 2)
    with pytest.raises(CycalcError, match="not stable under the order-2 character"):
        analyze(unstable, ROOT, 2)


def test_a_window_refuses_a_kind_it_would_have_dropped():
    with pytest.raises(
        InvalidParams, match="^every entry of kinds must be a ConstructionKind, got 'cover'$"
    ):
        SweepBounds(kinds=(DIV, "cover"))


def test_a_window_refuses_a_bare_string_for_a_collection():
    for field, value in (("families", "pn"), ("kinds", "root")):
        with pytest.raises(
            InvalidParams, match=f"^{field} must be a collection, not the string '{value}'$"
        ):
            SweepBounds(**{field: value})


def test_a_bool_weight_is_refused():
    with pytest.raises(InvalidParams, match="^weight must be an integer, got True$"):
        weighted_hypersurface_diamond((1, 1, 1, True), 4)
    assert weighted_hypersurface_diamond((1, 1, 1, 1), 4).primitive == (1, 19, 1)


def test_a_float_dimension_is_refused():
    # it was stored as 3.0, and analyze(..., DIVISOR, 2) gave the witness p = 0.0
    with pytest.raises(InvalidParams, match=r"^dim_m must be an integer, got 3\.0$"):
        LefschetzBase("x", "X", 3.0, 4, 1, "O(1)")
    assert analyze(LefschetzBase("x", "X", 3, 4, 1, "O(1)"), DIV, 2).witness.p == 0


def test_a_float_cy_dim_is_refused_and_a_fraction_is_not():
    with pytest.raises(
        InvalidParams, match=r"^a non-Fraction cy_dim must be an integer, got 0\.1$"
    ):
        sweep(SweepBounds(**SMALL), cy_dim=0.1)
    assert sweep(SweepBounds(**SMALL), cy_dim=Fraction(-1, 2)) == sweep(
        SweepBounds(**SMALL), cy_dim=Fraction(-2, 4)
    )


# Each integer argument of each entry point: (entry point, field named in the
# refusal) -> a call with ``v`` in that argument's place and valid data elsewhere.
INTEGER_SLOTS = {
    ("LefschetzBase", "dim_m"): lambda v: LefschetzBase("x", "X", v, 4, 1, "O(1)"),
    ("LefschetzBase", "length_m"): lambda v: LefschetzBase("x", "X", 3, v, 1, "O(1)"),
    ("LefschetzBase", "rank_b"): lambda v: LefschetzBase("x", "X", 3, 4, v, "O(1)"),
    ("LefschetzBase", "parameter n"): (
        lambda v: LefschetzBase("x", "X", 3, 4, 1, "O(1)", parameters={"n": v})
    ),
    ("builtin", "pn parameter n"): lambda v: builtin("pn", {"n": v}),
    ("builtin", "gr parameter k"): lambda v: builtin("gr", {"k": v, "n": 5}),
    ("fonarev_rank", "k"): lambda v: fonarev_rank(v, 5),
    ("fonarev_rank", "n"): lambda v: fonarev_rank(2, v),
    ("check_case", "d"): lambda v: check_case(DIV, v, P4),
    ("substitution_table", "d"): lambda v: substitution_table(DIV, v, P4),
    ("serre_power", "d"): lambda v: serre_power(P4, DIV, v),
    ("closed_form", "d"): lambda v: closed_form(P4, DIV, v),
    ("analyze", "d"): lambda v: analyze(P4, DIV, v),
    ("extract_witness", "q0"): lambda v: extract_witness(NormalForm(shift=3), v),
    ("hh_component", "d"): lambda v: hh_component(HHProfile({0: 5}), P4, v),
    ("SweepBounds", "max_n"): lambda v: SweepBounds(max_n=v),
    ("SweepBounds", "max_s"): lambda v: SweepBounds(max_s=v),
    ("SweepBounds", "max_weight_sum"): lambda v: SweepBounds(max_weight_sum=v),
    ("weighted_hypersurface_diamond", "weight"): (
        lambda v: weighted_hypersurface_diamond((1, 1, v, 1), 4)
    ),
    ("weighted_hypersurface_diamond", "degree"): (
        lambda v: weighted_hypersurface_diamond((1, 1, 1, 1), v)
    ),
    ("jacobian_poincare", "weight"): lambda v: jacobian_poincare((1, v), 4),
    ("jacobian_poincare", "degree"): lambda v: jacobian_poincare((1, 1), v),
}

#: The same for each construction-kind argument.
KIND_SLOTS = {
    ("check_case", "kind"): lambda v: check_case(v, 1, P4),
    ("substitution_table", "kind"): lambda v: substitution_table(v, 1, P4),
    ("serre_power", "kind"): lambda v: serre_power(P4, v, 1),
    ("closed_form", "kind"): lambda v: closed_form(P4, v, 1),
    ("analyze", "kind"): lambda v: analyze(P4, v, 1),
    ("SweepBounds", "every entry of kinds"): lambda v: SweepBounds(kinds=(DIV, v)),
}

not_integers = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=4), st.fractions(), st.none()
)
not_kinds = st.one_of(
    st.sampled_from([kind.value for kind in ConstructionKind]), st.text(max_size=8),
    st.none(), st.integers(),
)


def _refused(call, value, field):
    with pytest.raises(CycalcError) as err:  # a TypeError or a return fails the test
        call(value)
    assert field in str(err.value)


@pytest.mark.parametrize("slot", INTEGER_SLOTS, ids="-".join)
@settings(max_examples=40, deadline=None)
@given(value=not_integers)
def test_every_integer_argument_refuses_what_is_not_an_int(slot, value):
    _refused(INTEGER_SLOTS[slot], value, slot[1])


@settings(max_examples=40, deadline=None)
@given(value=st.one_of(st.floats(), st.booleans(), st.text(max_size=4)))
def test_a_cy_dim_is_an_int_or_a_fraction(value):
    _refused(lambda v: sweep(SweepBounds(**SMALL), cy_dim=v), value, "cy_dim")


@pytest.mark.parametrize("slot", KIND_SLOTS, ids="-".join)
@settings(max_examples=40, deadline=None)
@given(value=not_kinds)
def test_every_kind_argument_refuses_what_is_not_a_member(slot, value):
    _refused(KIND_SLOTS[slot], value, slot[1])

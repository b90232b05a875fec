"""The package's value classes: immutable, compared and hashed by their fields."""

import copy
import pickle

import pytest

from cycalc.autoeq import NormalForm
from cycalc.catalog import FAMILIES, builtin
from cycalc.constructions import ConstructionKind, substitution_table
from cycalc.engine import SweepBounds, analyze, verify_cross_check
from cycalc.hodge import HHProfile, hh_pipeline, jacobian_poincare
from reference import replace

DIV = ConstructionKind.DIVISOR


def build(name):
    """An instance of the named value class; two calls give equal objects."""
    base = builtin("pn", {"n": 5})
    pipeline = hh_pipeline(analyze(base, DIV, 3))
    return {
        "NormalForm": lambda: NormalForm(1, -2, 3, 1),
        "LefschetzBase": lambda: base,
        "Family": lambda: FAMILIES["pn"],
        "SubstitutionTable": lambda: substitution_table(DIV, 3, base),
        "FractionalCYWitness": lambda: analyze(base, DIV, 3).witness,
        "CaseResult": lambda: analyze(base, DIV, 3),
        "SweepBounds": lambda: SweepBounds(families=("pn",)),
        "VerifyReport": lambda: verify_cross_check(SweepBounds(max_n=3, families=("pn",))),
        "PoincareSeries": lambda: jacobian_poincare((1, 1, 1, 1), 4),
        "HodgeDiamond": lambda: pipeline.diamond,
        "HHProfile": lambda: pipeline.hh_total,
        "HHCheckReport": lambda: pipeline.check,
        "HHPipelineResult": lambda: pipeline,
    }[name]()


# (pickles, deep-copies) for every value class, as in the frozen-dataclass era:
# a table's read-only mapping cannot be pickled or deep-copied, and a family's
# rules are lambdas, which deep-copy but do not pickle.
COPYABLE = {
    "NormalForm": (True, True),
    "LefschetzBase": (True, True),
    "Family": (False, True),
    "SubstitutionTable": (False, False),
    "FractionalCYWitness": (True, True),
    "CaseResult": (True, True),
    "SweepBounds": (True, True),
    "VerifyReport": (True, True),
    "PoincareSeries": (True, True),
    "HodgeDiamond": (True, True),
    "HHProfile": (True, True),
    "HHCheckReport": (True, True),
    "HHPipelineResult": (True, True),
}
NAMES = sorted(COPYABLE)


@pytest.mark.parametrize("name", NAMES)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    value = build(name)
    field = value.__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = None
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert getattr(value, field) == getattr(build(name), field)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_hash_equally_and_other_classes_are_not_compared(name):
    value, twin = build(name), build(name)
    assert value == twin and hash(value) == hash(twin)
    assert value.__eq__(object()) is NotImplemented
    other = "NormalForm" if name != "NormalForm" else "FractionalCYWitness"
    assert value.__eq__(build(other)) is NotImplemented
    assert value != object()


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_work_exactly_where_they_did(name):
    value = build(name)
    pickles, deep_copies = COPYABLE[name]
    if pickles:
        assert pickle.loads(pickle.dumps(value)) == value
    else:
        with pytest.raises((TypeError, AttributeError, pickle.PicklingError)):
            pickle.dumps(value)
    if deep_copies:
        assert copy.deepcopy(value) == value
    else:
        with pytest.raises(TypeError):
            copy.deepcopy(value)
    assert copy.copy(value) == value


def test_repr_is_the_dataclass_repr():
    assert repr(NormalForm(1, -2, 3, 1)) == "NormalForm(shift=1, ltwist=-2, tau=1, chi=1)"
    base = (
        "LefschetzBase(id='pn', display_name='P^5', dim_m=5, length_m=6, rank_b=1, "
        "line_bundle_note='O(1)', omega_is_l_minus_m=True, parameters=(('n', 5),), "
        "chi_stable=True)"
    )
    assert repr(builtin("pn", {"n": 5})) == base
    assert repr(analyze(builtin("pn", {"n": 5}), DIV, 3)) == (
        f"CaseResult(base={base}, kind=<ConstructionKind.DIVISOR: 'divisor'>, d=3, "
        "serre_power_nf=NormalForm(shift=2, ltwist=0, tau=0, chi=0), "
        "witness=FractionalCYWitness(p=2, q=1), dim_x=4, error=None)"
    )


def test_constructor_keywords_and_defaults_are_the_field_names():
    assert NormalForm(chi=3) == NormalForm(0, 0, 0, 1)
    case = analyze(builtin("pn", {"n": 5}), DIV, 3)
    assert replace(case) == case
    assert replace(case, error="e") != case


def test_hh_profile_is_read_only_and_keeps_its_text():
    pipeline = hh_pipeline(analyze(builtin("pn", {"n": 5}), DIV, 3))
    dims = pipeline.hh_total.dims
    with pytest.raises(TypeError):
        dims[99] = 1
    with pytest.raises(TypeError):
        del dims[0]
    assert dict(dims) == {-2: 1, 0: 25, 2: 1}
    assert str(pipeline.hh_total) == "-2:1 0:25 2:1"
    assert str(pickle.loads(pickle.dumps(pipeline)).hh_component) == "-2:1 0:22 2:1"
    assert HHProfile({2: 1, 0: 3, 1: 0}) == HHProfile({0: 3, 2: 1})

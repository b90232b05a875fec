"""Normal forms, words, and their algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycalc.autoeq import (
    IDENTITY,
    Generator,
    NormalForm,
    resolve,
)
from cycalc.errors import UnresolvedGenerator

forms = st.builds(
    NormalForm,
    shift=st.integers(min_value=-10**6, max_value=10**6),
    ltwist=st.integers(min_value=-10**6, max_value=10**6),
    tau=st.integers(min_value=0, max_value=1),
    chi=st.integers(min_value=0, max_value=1),
)


def test_inverse_pair_composes_to_identity():
    a = NormalForm(shift=2)
    b = NormalForm(shift=-2)
    assert a.compose(b) == IDENTITY


def test_involution_squares_away():
    a = NormalForm(shift=1, ltwist=-2, tau=1)
    assert a.compose(a) == NormalForm(shift=2, ltwist=-4, tau=0, chi=0)


def test_double_cover_composites_compose():
    # shift 1 with involution, against shift 6 with involution
    rho = NormalForm(shift=1, tau=1)
    sigma = NormalForm(shift=6, tau=1)
    assert rho.compose(sigma) == NormalForm(shift=7, tau=0, chi=0)


def test_power_zero_is_identity():
    a = NormalForm(shift=5, ltwist=-3, tau=1, chi=1)
    assert a.power(0) == IDENTITY


def test_power_two_kills_parity():
    assert NormalForm(shift=1, tau=1).power(2) == NormalForm(shift=2)


def test_power_negative_inverts():
    assert NormalForm(shift=2, ltwist=-3).power(-1) == NormalForm(shift=-2, ltwist=3)


def test_parities_normalized_on_construction():
    assert NormalForm(tau=3, chi=-1) == NormalForm(tau=1, chi=1)


def test_str_rendering():
    assert str(NormalForm(shift=2)) == "τ^0 χ^0 [2]"
    assert str(NormalForm(shift=1, ltwist=-2, tau=1)) == "L^-2 τ^1 χ^0 [1]"


@given(forms, forms)
def test_compose_commutative(a, b):
    assert a.compose(b) == b.compose(a)


@given(forms, forms, forms)
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(forms, st.integers(min_value=-100, max_value=100))
def test_power_inverse_cancels(a, k):
    assert a.power(k).compose(a.power(-k)) == IDENTITY


@given(forms, st.integers(min_value=-100, max_value=100))
def test_power_is_iterated_composition(a, k):
    expected = IDENTITY
    step = a if k >= 0 else a.power(-1)
    for _ in range(abs(k)):
        expected = expected.compose(step)
    assert a.power(k) == expected


def test_huge_exponents_do_not_wrap():
    a = NormalForm(shift=10**4, ltwist=-(10**4))
    big = a.power(10**4)
    assert big.shift == 10**8
    assert big.ltwist == -(10**8)


# ---------------------------------------------------------------------------
# Words and resolution
# ---------------------------------------------------------------------------

TABLE = {
    Generator.SPHERICAL_TWIST: NormalForm(shift=2, ltwist=-3),
    Generator.SERRE: NormalForm(shift=4, ltwist=-3),
    Generator.COMP_TWIST: NormalForm(shift=2),
    Generator.SERRE_TWIST: NormalForm(shift=6),
}


def test_empty_word_is_identity():
    assert resolve((), {}) == IDENTITY


def test_comp_twist_resolves_through_table():
    assert resolve(((Generator.COMP_TWIST, 1),), TABLE) == NormalForm(shift=2)


def test_serre_twist_resolves_through_table():
    assert resolve(((Generator.SERRE_TWIST, 1),), TABLE) == NormalForm(shift=6)


def test_unresolved_generator_raises():
    with pytest.raises(UnresolvedGenerator):
        resolve(((Generator.SERRE, 1),), {})


@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(Generator, key=lambda g: g.value)),
                  st.integers(min_value=-5, max_value=5)),
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_resolve_is_permutation_invariant(factors, rng):
    shuffled = list(factors)
    rng.shuffle(shuffled)
    assert resolve(factors, TABLE) == resolve(shuffled, TABLE)


def test_base_generator_set():
    # every generator is symbolic: none resolves without a table entry
    assert set(TABLE) == set(Generator)
    for generator in Generator:
        with pytest.raises(UnresolvedGenerator, match=f"generator '{generator.value}' has no"):
            resolve(((generator, 1),), {})


# ---------------------------------------------------------------------------
# Exact rational arithmetic (stdlib Fraction carries the rational type)
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=-50, max_value=50).filter(lambda k: k != 0),
)
def test_rational_storage_is_scale_invariant(p, q, k):
    assert Fraction(k * p, k * q) == Fraction(p, q)
    scaled = Fraction(k * p, k * q)
    reduced = Fraction(p, q)
    assert scaled.numerator == reduced.numerator
    assert scaled.denominator == reduced.denominator
    assert scaled.denominator >= 1


def test_rational_examples():
    assert Fraction(4, 3) == Fraction(8, 6)
    assert Fraction(-4, 3).denominator == 3

"""Serre-power evaluation, witnesses, and the closed-form cross-check."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycalc import engine
from cycalc.autoeq import Generator, NormalForm
from cycalc.catalog import LefschetzBase, _weight_multisets, builtin
from cycalc.constructions import ALL_KINDS, ConstructionKind, substitution_table
from cycalc.engine import (
    FractionalCYWitness,
    SweepBounds,
    analyze,
    closed_form,
    extract_witness,
    iter_cases,
    iter_sweep_bases,
    serre_power,
    verify_cross_check,
)
from cycalc.errors import NotPureShiftable, SizeLimitExceeded
from reference import gr_window, negative_dimension_cases

DIV = ConstructionKind.DIVISOR
COVER = ConstructionKind.DOUBLE_COVER
ROOT = ConstructionKind.ROOT_STACK

#: Outside the builtin window, which sweeps igr2 from n = 3, but a valid base.
IGR2_N2 = builtin("igr2", {"n": 2})


def test_cubic_fourfold_power():
    assert serre_power(builtin("pn", {"n": 5}), DIV, 3) == NormalForm(shift=2)


def test_cubic_surface_component_power():
    nf = serre_power(builtin("pn", {"n": 3}), DIV, 3)
    assert nf == NormalForm(shift=4)


def test_gushel_mukai_sixfold_power():
    # involution exponent (m-d)/c = 4 is even, so the power is a pure shift
    nf = serre_power(builtin("gr", {"k": 2, "n": 5}), COVER, 1)
    assert nf == NormalForm(shift=2)


def test_closed_form_examples():
    assert closed_form(builtin("pn", {"n": 8}), DIV, 3) == NormalForm(shift=3)
    assert closed_form(builtin("pn", {"n": 5}), COVER, 2) == NormalForm(shift=3)
    assert closed_form(builtin("g2gr"), COVER, 1) == NormalForm(shift=3)


def test_root_closed_form_keeps_character():
    assert closed_form(builtin("g2gr"), ROOT, 1) == NormalForm(shift=3, chi=1)


def test_extract_witness_pure_shift():
    assert extract_witness(NormalForm(shift=2), 1) == FractionalCYWitness(2, 1)


def test_extract_witness_fractional():
    assert extract_witness(NormalForm(shift=4), 3) == FractionalCYWitness(4, 3)


def test_extract_witness_doubles_on_parity():
    assert extract_witness(NormalForm(shift=2, tau=1), 1) == FractionalCYWitness(4, 2)
    assert extract_witness(NormalForm(shift=3, chi=1), 2) == FractionalCYWitness(6, 4)
    assert extract_witness(NormalForm(shift=1, tau=1, chi=1), 1) == FractionalCYWitness(2, 2)


def test_extract_witness_rejects_line_twist():
    with pytest.raises(NotPureShiftable):
        extract_witness(NormalForm(shift=2, ltwist=1), 1)


@pytest.mark.parametrize("q0", [0, -1])
def test_extract_witness_refuses_a_nonpositive_exponent(q0):
    with pytest.raises(ValueError, match=f"q0 must be positive, got {q0}"):
        extract_witness(NormalForm(shift=2), q0)


def test_analyze_debarre_voisin():
    case = analyze(builtin("gr", {"k": 3, "n": 10}), DIV, 1)
    assert case.is_integer_cy
    assert case.cy_dimension == 2
    assert case.dim_x == 20


def test_analyze_spinor_tenfold_quadric_section():
    case = analyze(builtin("ogr510"), DIV, 2)
    assert case.is_integer_cy
    assert case.cy_dimension == 3


def test_analyze_quadric_complete_intersection():
    case = analyze(builtin("quadric4s2", {"s": 1}), DIV, 1)
    assert case.is_integer_cy
    assert case.cy_dimension == 3  # equals 4s - 1


def test_analyze_fractional_cubic_surface():
    case = analyze(builtin("pn", {"n": 3}), DIV, 3)
    assert not case.is_integer_cy
    assert case.witness == FractionalCYWitness(4, 3)
    assert case.cy_dimension == Fraction(4, 3)


def test_quartic_fourfold_reduces_but_is_not_integer():
    # S^2 = [6]: the ratio reduces to 3 but S itself is not a shift
    case = analyze(builtin("pn", {"n": 5}), DIV, 4)
    assert case.witness == FractionalCYWitness(6, 2)
    assert case.cy_dimension == 3
    assert not case.is_integer_cy


def test_component_is_whole_flag():
    case = analyze(builtin("pn", {"n": 5}), DIV, 6)
    assert case.component_is_whole
    assert case.cy_dimension == case.dim_x == 4


def test_power_field_is_d_over_c():
    case = analyze(builtin("pn", {"n": 5}), DIV, 4)
    assert case.c == 2
    assert case.power == 2


# ---------------------------------------------------------------------------
# Cross-checks between the two evaluation paths
# ---------------------------------------------------------------------------


def test_word_path_equals_closed_form_across_catalog():
    bounds = SweepBounds(max_n=16, kinds=ALL_KINDS, extra_bases=(IGR2_N2,))
    checked = 0
    for base in iter_sweep_bases(bounds):
        for kind in ALL_KINDS:
            for d in range(1, base.length_m + 1):
                assert serre_power(base, kind, d) == closed_form(base, kind, d), (
                    base.id,
                    base.parameters,
                    kind,
                    d,
                )
                checked += 1
    assert checked > 1000


def test_word_path_equals_closed_form_on_weighted_bases():
    weight_sets = [(1, 1), (1, 1, 1, 3), (1, 2, 3), (2, 2, 2, 3), (1, 1, 4, 6)]
    for weights in weight_sets:
        base = builtin("wpn", {f"w{i}": w for i, w in enumerate(weights)})
        for kind in ALL_KINDS:
            for d in range(1, base.length_m + 1):
                assert serre_power(base, kind, d) == closed_form(base, kind, d)


def test_verify_cross_check_default_is_clean():
    report = verify_cross_check(SweepBounds(kinds=ALL_KINDS))
    assert report.ok
    assert report.cases >= 500


def test_verify_cross_check_pn_only():
    report = verify_cross_check(SweepBounds(families=("pn",), kinds=ALL_KINDS))
    assert report.ok
    assert report.cases == sum(3 * (n + 1) for n in range(1, 31))


@pytest.mark.parametrize(
    "bounds, cases, negatives",
    [
        (SweepBounds(max_n=12, kinds=ALL_KINDS, extra_bases=(IGR2_N2,)), 1557, 31),
        (
            SweepBounds(
                include_weighted=True, families=("wpn",), max_weight_sum=10, kinds=ALL_KINDS
            ),
            3153,
            407,
        ),
    ],
)
def test_verify_negatives_match_the_sweep_oracle(bounds, cases, negatives):
    report = verify_cross_check(bounds)
    assert report.ok
    assert report.cases == cases == sum(1 for _ in iter_cases(bounds))
    assert report.negatives == tuple(negative_dimension_cases(iter_cases(bounds)))
    assert len(report.negatives) == negatives


def test_case_results_are_hashable():
    case = analyze(builtin("pn", {"n": 5}), DIV, 3)
    twin = analyze(builtin("pn", {"n": 5}), DIV, 3)
    assert hash(case) == hash(twin)
    assert twin in {case}
    assert analyze(builtin("pn", {"n": 5}), DIV, 2) not in {case}


def test_weight_multisets_come_out_sorted():
    # iter_sweep_bases relies on this instead of sorting the whole window
    multisets = list(_weight_multisets(30))
    assert len(multisets) == 28_598
    assert multisets == sorted(multisets)
    assert all(list(w) == sorted(w) for w in multisets)


def test_gr_window_matches_a_brute_enumeration_on_every_max_n():
    # odd and even ceilings alike: --max-n 31 holds Gr(15,31), --max-n 30 does not
    for max_n in range(5, 32):
        bounds = SweepBounds(max_n=max_n, families=("gr",))
        assert [base.param_key() for base in iter_sweep_bases(bounds)] == gr_window(max_n)
    assert gr_window(31)[-1] == (15, 31) and (15, 31) not in gr_window(30)


def test_weight_multisets_reach_a_1500_long_tuple():
    # the walk keeps one list, not one stack frame per weight
    assert next(w for w in _weight_multisets(1500) if len(w) == 1500) == (1,) * 1500


def test_whole_component_power_equals_source_serre_functor():
    bounds = SweepBounds(max_n=10, kinds=ALL_KINDS, extra_bases=(IGR2_N2,))
    for base in iter_sweep_bases(bounds):
        m = base.length_m
        for kind in ALL_KINDS:
            table = substitution_table(kind, m, base)
            assert serre_power(base, kind, m) == table.entries[Generator.SERRE]


def test_dimension_bound_over_default_sweep():
    for case in iter_cases(SweepBounds()):
        if case.error is None and case.is_integer_cy:
            assert case.cy_dimension <= case.dim_x, case


def test_negative_dimensions_only_at_hyperplane_type_cases():
    for case in iter_cases(SweepBounds()):
        if case.error is None and case.is_integer_cy and case.witness.p < 0:
            assert case.kind is DIV and case.d == 1, case


def test_integrality_matches_divisibility_criterion():
    for case in iter_cases(SweepBounds(max_n=12, kinds=ALL_KINDS, extra_bases=(IGR2_N2,))):
        m = case.base.length_m
        if case.error is not None:
            continue
        # the canonical-bundle hypothesis makes the power twist-free
        assert case.serre_power_nf.ltwist == 0
        expected = m % case.d == 0
        if case.kind is COVER:
            expected = expected and (m // case.d) % 2 == 1
        elif case.kind is ROOT:
            expected = expected and (m // case.d) % 2 == 0
        assert case.is_integer_cy == expected, case


# ---------------------------------------------------------------------------
# Randomized agreement with the per-family closed expressions
# ---------------------------------------------------------------------------


def witness_from_shift_and_parity(shift, parity, q0):
    if parity % 2 == 0:
        return (shift, q0)
    return (2 * shift, 2 * q0)


def test_randomized_projective_hypersurfaces():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 200)
        d = rng.randint(1, n + 1)
        c = gcd(d, n + 1)
        case = analyze(builtin("pn", {"n": n}), DIV, d)
        assert (case.witness.p, case.witness.q) == ((n + 1) * (d - 2) // c, d // c)


def test_randomized_weighted_hypersurfaces():
    rng = random.Random(11)
    for _ in range(100):
        count = rng.randint(2, 6)
        weights = sorted(rng.randint(1, 9) for _ in range(count))
        w = sum(weights)
        n = count - 1
        d = rng.randint(1, w)
        c = gcd(d, w)
        case = analyze(builtin("wpn", {f"w{i}": v for i, v in enumerate(weights)}), DIV, d)
        assert (case.witness.p, case.witness.q) == (((n + 1) * d - 2 * w) // c, d // c)


def test_randomized_grassmannian_hypersurfaces():
    rng = random.Random(13)
    for _ in range(100):
        while True:
            n = rng.randint(5, 60)
            k = rng.randint(2, n - 2)
            if gcd(k, n) == 1:
                break
        d = rng.randint(1, n)
        c = gcd(d, n)
        case = analyze(builtin("gr", {"k": k, "n": n}), DIV, d)
        assert (case.witness.p, case.witness.q) == (
            ((k * (n - k) + 1) * d - 2 * n) // c,
            d // c,
        )


def test_randomized_isotropic_orthogonal_hypersurfaces():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 120)
        m = 2 * n - 2
        d = rng.randint(1, m)
        c = gcd(d, m)
        case = analyze(builtin("ogr2", {"n": n}), DIV, d)
        assert (case.witness.p, case.witness.q) == (
            witness_from_shift_and_parity(4 * (n - 1) * (d - 1) // c, 0, d // c)
        )


def test_randomized_projective_double_covers():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(2, 200)
        d = rng.randint(1, n + 1)
        c = gcd(d, n + 1)
        case = analyze(builtin("pn", {"n": n}), COVER, d)
        expected = witness_from_shift_and_parity(
            (n + 1) * (d - 1) // c, (n + 1 - d) // c, d // c
        )
        assert (case.witness.p, case.witness.q) == expected


def test_randomized_grassmannian_double_covers():
    rng = random.Random(23)
    for _ in range(100):
        while True:
            n = rng.randint(5, 60)
            k = rng.randint(2, n - 2)
            if gcd(k, n) == 1:
                break
        d = rng.randint(1, n)
        c = gcd(d, n)
        case = analyze(builtin("gr", {"k": k, "n": n}), COVER, d)
        expected = witness_from_shift_and_parity(
            ((k * (n - k) + 1) * d - n) // c, (n - d) // c, d // c
        )
        assert (case.witness.p, case.witness.q) == expected


def test_verify_counts_a_failing_word_path_as_a_mismatch(monkeypatch):
    from cycalc import engine

    honest = engine.serre_power

    def twisted(base, kind, d):
        nf = honest(base, kind, d)
        return NormalForm(shift=nf.shift, ltwist=nf.ltwist + 1, tau=nf.tau, chi=nf.chi)

    monkeypatch.setattr(engine, "serre_power", twisted)
    report = verify_cross_check(SweepBounds(families=("pn",), max_n=4, kinds=ALL_KINDS))
    assert not report.ok
    assert len(report.mismatches) == report.cases == 42
    assert report.negatives == ()


def _refusal_peak(max_s):
    """tracemalloc peak, in bytes, of refusing a quadric window of max_s bases."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded):
            next(iter_cases(SweepBounds(max_s=max_s, families=("quadric4s2",))))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_refused_window_holds_no_base(monkeypatch):
    # each quadric base holds 2 kinds x m = 2 cases, so the ceiling trips
    # halfway through the window, after max_s / 2 bases
    peaks = {}
    for max_s in (2_000, 20_000):
        monkeypatch.setattr(engine, "MAX_WINDOW_CASES", 2 * max_s)
        peaks[max_s] = _refusal_peak(max_s)
    assert peaks[20_000] < peaks[2_000] + 100_000, peaks


def _numerics(base, kind, d):
    case = analyze(base, kind, d)
    return case.serre_power_nf, case.witness, case.dim_x


def _outcome(compute, base, kind, d):
    """What ``compute`` gives on the case, or the class of what it raises (the
    message names the base, so it is not compared)."""
    try:
        return compute(base, kind, d)
    except Exception as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(
    dim_m=st.integers(0, 30),
    length_m=st.integers(1, 24),
    omega_is_l_minus_m=st.booleans(),
    chi_stable=st.booleans(),
    ranks=st.lists(st.integers(1, 10**6), min_size=2, max_size=2, unique=True),
)
def test_numerics_depend_only_on_the_signature(
    dim_m, length_m, omega_is_l_minus_m, chi_stable, ranks
):
    # dim M, m, omega_M = L^-m and chi-stability fix every case: the id, the
    # name, the parameters and the block rank rk B do not enter
    one, other = (
        LefschetzBase(
            f"base{i}", f"base number {i}", dim_m, length_m, rank, "O(1)",
            omega_is_l_minus_m, {f"p{i}": rank}, chi_stable,
        )
        for i, rank in enumerate(ranks)
    )
    for kind in ALL_KINDS:
        for d in range(1, length_m + 1):
            for compute in (_numerics, closed_form):
                assert _outcome(compute, one, kind, d) == _outcome(compute, other, kind, d)

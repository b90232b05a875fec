"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every assertion is exact; no tolerances are involved anywhere.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

from cycalc.catalog import builtin
from cycalc.constructions import ALL_KINDS, ConstructionKind
from cycalc.engine import SweepBounds, analyze, iter_cases, sweep, verify_cross_check
from cycalc.hodge import diamond_for_case, hh_component, hh_pipeline, hkr, jacobian_poincare
from reference import brute_force_jacobian_dim

DIV = ConstructionKind.DIVISOR
COVER = ConstructionKind.DOUBLE_COVER


def verdict(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def signature(case):
    return (case.base.id, case.base.param_key(), case.kind, case.d)


def test_criterion_1_k3_list():
    start = time.monotonic()
    cases = {signature(c) for c in sweep(cy_dim=2)}
    elapsed = time.monotonic() - start
    expected = {
        ("pn", (5,), DIV, 3),
        ("gr", (3, 10), DIV, 1),
        ("gr", (2, 5), COVER, 1),
    }
    verdict(1, "K3 list", cases == expected and elapsed < 5.0)


def test_criterion_2_threefold_list():
    start = time.monotonic()
    cases = {signature(c) for c in sweep(cy_dim=3)}
    elapsed = time.monotonic() - start
    expected = {
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
    verdict(2, "3-CY list", cases == expected and elapsed < 5.0)


def test_criterion_3_cross_check():
    report = verify_cross_check(SweepBounds(kinds=ALL_KINDS))
    verdict(
        3,
        "word algebra vs closed forms",
        report.ok and report.cases >= 500,
    )


def test_criterion_4_fractional_cubic_surface():
    case = analyze(builtin("pn", {"n": 3}), DIV, 3)
    ok = (
        case.witness.p == 4
        and case.witness.q == 3
        and case.cy_dimension == Fraction(4, 3)
    )
    verdict(4, "fractional witness 4/3", ok)


def test_criterion_5_closed_form_families():
    rng = random.Random(20240901)
    ok = True

    for _ in range(100):  # hypersurfaces in projective space
        n = rng.randint(2, 300)
        d = rng.randint(1, n + 1)
        c = gcd(d, n + 1)
        case = analyze(builtin("pn", {"n": n}), DIV, d)
        ok = ok and (case.witness.p, case.witness.q) == ((n + 1) * (d - 2) // c, d // c)

    for _ in range(100):  # hypersurfaces in coprime Grassmannians
        while True:
            n = rng.randint(5, 80)
            k = rng.randint(2, n - 2)
            if gcd(k, n) == 1:
                break
        d = rng.randint(1, n)
        c = gcd(d, n)
        case = analyze(builtin("gr", {"k": k, "n": n}), DIV, d)
        ok = ok and (case.witness.p, case.witness.q) == (
            ((k * (n - k) + 1) * d - 2 * n) // c,
            d // c,
        )

    for _ in range(100):  # hypersurfaces in isotropic orthogonal Grassmannians
        n = rng.randint(2, 150)
        m = 2 * n - 2
        d = rng.randint(1, m)
        c = gcd(d, m)
        case = analyze(builtin("ogr2", {"n": n}), DIV, d)
        ok = ok and (case.witness.p, case.witness.q) == (4 * (n - 1) * (d - 1) // c, d // c)

    for _ in range(100):  # double covers of projective space
        n = rng.randint(2, 300)
        d = rng.randint(1, n + 1)
        c = gcd(d, n + 1)
        shift = (n + 1) * (d - 1) // c
        parity = ((n + 1 - d) // c) % 2
        expected = (shift, d // c) if parity == 0 else (2 * shift, 2 * (d // c))
        case = analyze(builtin("pn", {"n": n}), COVER, d)
        ok = ok and (case.witness.p, case.witness.q) == expected

    for _ in range(100):  # double covers of coprime Grassmannians
        while True:
            n = rng.randint(5, 80)
            k = rng.randint(2, n - 2)
            if gcd(k, n) == 1:
                break
        d = rng.randint(1, n)
        c = gcd(d, n)
        shift = ((k * (n - k) + 1) * d - n) // c
        parity = ((n - d) // c) % 2
        expected = (shift, d // c) if parity == 0 else (2 * shift, 2 * (d // c))
        case = analyze(builtin("gr", {"k": k, "n": n}), COVER, d)
        ok = ok and (case.witness.p, case.witness.q) == expected

    verdict(5, "closed-form families", ok)


def test_criterion_6_series_oracle():
    from test_hodge import oracle_weight_systems

    start = time.monotonic()
    ok = True
    for weights, degree in oracle_weight_systems(60):
        series = jacobian_poincare(weights, degree)
        top = sum(degree - 2 * w for w in weights)
        for a in range(top + 1):
            ok = ok and series.coefficient(a) == brute_force_jacobian_dim(weights, degree, a)
    elapsed = time.monotonic() - start
    verdict(6, "series vs enumeration oracle", ok and elapsed < 10.0)


def test_criterion_7_cubic_fourfold_pipeline():
    case = analyze(builtin("pn", {"n": 5}), DIV, 3)
    diamond = diamond_for_case(case)
    profile = hh_component(hkr(diamond), case.base, 3)
    pipeline = hh_pipeline(case)
    ok = (
        diamond.h(2, 2) == 21
        and diamond.h(3, 1) == 1
        and profile.dims == {-2: 1, 0: 22, 2: 1}
        and pipeline.check.nonvanishing
        and pipeline.check.value == 1
    )
    verdict(7, "cubic fourfold pipeline", ok)


def test_criterion_8_double_sextic():
    diamond = diamond_for_case(analyze(builtin("pn", {"n": 2}), COVER, 3))
    verdict(8, "double sextic K3 diamond", diamond.h(1, 1) == 20 and diamond.h(2, 0) == 1)


def test_criterion_9_dimension_bound():
    violations = [
        signature(case)
        for case in iter_cases(SweepBounds())
        if case.error is None and case.is_integer_cy and case.cy_dimension > case.dim_x
    ]
    verdict(9, "dimension bound", violations == [])


def test_criterion_10_byte_identical_output():
    command = [sys.executable, "-m", "cycalc", "sweep", "--cy-dim", "3", "--format", "json"]
    first = subprocess.run(command, capture_output=True, check=True)
    second = subprocess.run(command, capture_output=True, check=True)
    payload = json.loads(first.stdout)
    ok = (
        first.stdout == second.stdout
        and first.stdout
        and len(payload["records"]) == 10
    )
    verdict(10, "byte-identical sweeps", bool(ok))

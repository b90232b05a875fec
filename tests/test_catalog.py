"""Builtin catalog, block-rank combinatorics, and the catalog file format."""

import json
import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cycalc.catalog import (
    BUILTIN_IDS,
    FAMILIES,
    MAX_RANK_DIGITS,
    MAX_SIZE_DIGITS,
    LefschetzBase,
    builtin,
    fonarev_rank,
    load_catalog_file,
)
from cycalc.errors import (
    CycalcError, InvalidParams, ParseError, SizeLimitExceeded, UnknownBase, ValidationError,
)
from reference import catalog_record, catalog_text, fonarev_rank_by_rows, replace


def enumerate_diagrams(k, n):
    """Independent oracle: direct enumeration of the bounded diagrams."""
    if k == 1:
        return 1
    bounds = [((n - k) * (k - p)) // k for p in range(1, k)]

    def extend(row, prev):
        if row == k - 1:
            return 1
        total = 0
        for value in range(min(bounds[row], prev) + 1):
            total += extend(row + 1, value)
        return total

    return extend(0, bounds[0])


def test_builtin_id_count():
    assert len(BUILTIN_IDS) == 11


def test_pn_example():
    base = builtin("pn", {"n": 5})
    assert (base.dim_m, base.length_m, base.rank_b) == (5, 6, 1)


def test_quadric_example():
    base = builtin("quadric4s2", {"s": 1})
    assert (base.dim_m, base.length_m, base.rank_b) == (6, 2, 4)


def test_gr26_example():
    base = builtin("gr26_L2")
    assert (base.dim_m, base.length_m, base.rank_b) == (8, 3, 5)


def test_p3xp3_entry():
    base = builtin("p3xp3")
    assert (base.dim_m, base.length_m, base.rank_b) == (6, 4, 4)
    assert base.rank_b * base.length_m == 16


def test_ogr2_and_igr2_dimensions():
    assert builtin("ogr2", {"n": 3}).dim_m == 7
    assert builtin("ogr2", {"n": 3}).length_m == 4
    assert builtin("igr2", {"n": 2}).dim_m == 5
    assert builtin("igr2", {"n": 2}).length_m == 4


def test_wpn_weights_canonicalized():
    base = builtin("wpn", {"w0": 3, "w1": 1, "w2": 1, "w3": 1})
    assert base.parameters == (("w0", 1), ("w1", 1), ("w2", 1), ("w3", 3))
    assert base.dim_m == 3
    assert base.length_m == 6
    assert base.display_name == "P(1,1,1,3)"


def test_unknown_base_rejected():
    with pytest.raises(UnknownBase):
        builtin("nope")


@pytest.mark.parametrize(
    "family,params",
    [
        ("gr", {"k": 2, "n": 6}),   # not coprime
        ("gr", {"k": 0, "n": 5}),
        ("gr", {"k": 5, "n": 5}),
        ("quadric4s2", {"s": 0}),
        ("pn", {"n": 0}),
        ("wpn", {}),
        ("wpn", {"w0": 0, "w1": 1}),
        ("ogr2", {"n": 1}),
        ("pn", {"n": 5, "k": 2}),   # stray parameter
    ],
)
def test_invalid_params(family, params):
    with pytest.raises(InvalidParams):
        builtin(family, params)


@pytest.mark.parametrize(
    "family,params,message",
    [
        ("pn", {"n": 0}, "pn requires n >= 1, got n=0"),
        ("pn", {}, "pn requires parameters n"),
        ("pn", {"n": 5, "k": 2}, "pn got unexpected parameters k"),
        ("quadric4s2", {"s": -1}, "quadric4s2 requires s >= 1, got s=-1"),
        ("quadric4s2", {"n": 1}, "quadric4s2 requires parameters s"),
        ("quadric4s2", {"s": 1, "z": 0, "a": 0}, "quadric4s2 got unexpected parameters a, z"),
        ("gr", {"k": 2, "n": 6}, "(k, n) must be coprime, got k=2, n=6"),
        ("gr", {"k": 0, "n": 5}, "need 1 <= k < n, got k=0, n=5"),
        ("gr", {"k": 5, "n": 5}, "need 1 <= k < n, got k=5, n=5"),
        ("gr", {"n": 5}, "gr requires parameters k"),
        ("gr", {}, "gr requires parameters k, n"),
        ("gr", {"k": 2, "n": 5, "s": 1}, "gr got unexpected parameters s"),
        ("ogr2", {"n": 1}, "ogr2 requires n >= 2, got n=1"),
        ("ogr2", {}, "ogr2 requires parameters n"),
        ("ogr2", {"n": 3, "k": 1}, "ogr2 got unexpected parameters k"),
        ("igr2", {"n": 1}, "igr2 requires n >= 2, got n=1"),
        ("igr2", {}, "igr2 requires parameters n"),
        ("igr2", {"n": 3, "k": 1}, "igr2 got unexpected parameters k"),
        ("wpn", {}, "wpn requires at least one weight"),
        ("wpn", {"w0": 1}, "wpn requires at least two weights"),
        ("wpn", {"w0": 0, "w1": 1}, "weights must be positive, got (0, 1)"),
        ("wpn", {"w0": 1, "x1": 1}, "wpn weight parameters must be named w0, w1, ..."),
        ("sgr36", {"n": 1}, "sgr36 got unexpected parameters n"),
        ("ogr510", {"k": 1}, "ogr510 got unexpected parameters k"),
        ("g2gr", {"s": 1}, "g2gr got unexpected parameters s"),
        ("gr26_L2", {"n": 6, "k": 2}, "gr26_L2 got unexpected parameters k, n"),
        ("p3xp3", {"n": 3}, "p3xp3 got unexpected parameters n"),
        ("wpn", {"w0": 1, "w00": 2, "w1": 3}, "wpn weight parameters must be named w0, w1, ..."),
        ("wpn", {"w-1": 1, "w7": 2, "w3": 3}, "wpn weight parameters must be named w0, w1, ..."),
        ("wpn", {"w0": 1, "w 1": 2, "w2": 1}, "wpn weight parameters must be named w0, w1, ..."),
        ("wpn", {0: 1, 1: 2}, "wpn weight parameters must be named w0, w1, ..."),
    ],
)
def test_invalid_params_messages(family, params, message):
    with pytest.raises(InvalidParams) as err:
        builtin(family, params)
    assert str(err.value) == message


def test_fonarev_rank_examples():
    assert fonarev_rank(2, 5) == enumerate_diagrams(2, 5) == 2
    assert fonarev_rank(2, 5) == comb(5, 2) // 5
    assert fonarev_rank(3, 10) == enumerate_diagrams(3, 10) == 12
    assert fonarev_rank(3, 10) == comb(10, 3) // 10
    for n in (2, 5, 9, 17):
        assert fonarev_rank(1, n) == 1


def test_fonarev_rank_rejects_non_coprime():
    with pytest.raises(InvalidParams):
        fonarev_rank(2, 6)


def test_fonarev_rank_binomial_identity_up_to_20():
    for n in range(2, 21):
        for k in range(1, n):
            if gcd(k, n) != 1:
                continue
            rank = fonarev_rank(k, n)
            assert rank * n == comb(n, k), (k, n)
            if comb(n, k) <= 20000:
                assert rank == enumerate_diagrams(k, n), (k, n)


def test_fonarev_rank_matches_the_row_by_row_count():
    pairs = [(k, n) for n in range(2, 61) for k in range(1, n) if gcd(k, n) == 1]
    pairs += [(7, 200), (30, 127), (64, 129), (99, 250)]
    for k, n in pairs:
        assert fonarev_rank(k, n) == fonarev_rank_by_rows(k, n), (k, n)


def test_rank_ceiling_is_the_longest_int_python_prints():
    # C(n, 2003)/n = C(n-1, 2002)/2003 grows with n; it reaches 4,301 digits at
    # n = 105162, and both n are coprime to the prime 2003
    inside, outside = 105161, 105162
    assert len(str(fonarev_rank(2003, inside))) == MAX_RANK_DIGITS
    with pytest.raises(SizeLimitExceeded, match="has more than 4,300 digits; refused"):
        fonarev_rank(2003, outside)
    too_long = comb(outside, 2003) // outside
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(too_long)) == MAX_RANK_DIGITS + 1
    finally:
        sys.set_int_max_str_digits(default)


def k0_rank_grid():
    """(row id, parameters, rank of K_0(M)) over a small grid of every row.

    The rank is the number of Schubert cells |W/W_P| of M (for P(w), the sum of
    the weights), typed in from the geometry rather than read from the row.
    """
    for n in range(1, 12):
        yield "pn", {"n": n}, n + 1
    for s in range(1, 6):
        yield "quadric4s2", {"s": s}, 4 * s + 4
    for n in range(2, 16):
        for k in range(1, n):
            if gcd(k, n) == 1:
                yield "gr", {"k": k, "n": n}, comb(n, k)
    for n in range(2, 10):
        yield "ogr2", {"n": n}, 2 * n * (n - 1)
        yield "igr2", {"n": n}, 2 * n * n
    for weights in ((1, 1, 1, 1, 2), (1, 2, 3)):
        yield "wpn", {f"w{i}": w for i, w in enumerate(weights)}, sum(weights)
    yield "sgr36", {}, 8
    yield "ogr510", {}, 16
    yield "g2gr", {}, 6
    yield "gr26_L2", {}, 15
    yield "p3xp3", {}, 16


def test_rank_times_length_matches_known_k_theory():
    # a rectangular Lefschetz decomposition is m blocks of rk B exceptional
    # objects each, a full exceptional collection of M
    seen = set()
    for family_id, params, rank in k0_rank_grid():
        base = builtin(family_id, params)
        assert base.length_m * base.rank_b == rank, (family_id, params)
        seen.add(family_id)
    assert seen == set(FAMILIES)


def test_all_builtins_satisfy_canonical_hypothesis():
    reps = {
        "pn": {"n": 4},
        "wpn": {"w0": 1, "w1": 2, "w2": 3},
        "quadric4s2": {"s": 1},
        "gr": {"k": 2, "n": 7},
        "ogr2": {"n": 4},
        "igr2": {"n": 3},
    }
    for family_id in BUILTIN_IDS:
        base = builtin(family_id, reps.get(family_id))
        assert base.omega_is_l_minus_m
        assert base.chi_stable


REPRESENTATIVES = {
    "pn": {"n": 2},
    "wpn": {"w0": 2, "w1": 1, "w2": 1},
    "quadric4s2": {"s": 1},
    "gr": {"k": 2, "n": 5},
    "ogr2": {"n": 3},
    "igr2": {"n": 3},
}


def test_builtin_bases_are_hashable():
    for family_id in BUILTIN_IDS:
        base = builtin(family_id, REPRESENTATIVES.get(family_id))
        twin = builtin(family_id, REPRESENTATIVES.get(family_id))
        assert hash(base) == hash(twin)
        assert twin in {base}
    assert builtin("pn", {"n": 3}) not in {builtin("pn", {"n": 2})}


def test_parameters_are_read_only():
    base = builtin("pn", {"n": 2})
    with pytest.raises(TypeError):
        base.parameters["n"] = 99
    assert base.parameters == (("n", 2),)


def test_twelve_weights_keep_index_order():
    names = [f"w{i}" for i in range(12)]
    base = builtin("wpn", dict(zip(reversed(names), range(1, 13))))
    assert [name for name, _ in base.parameters] == names
    assert base.param_key() == tuple(range(1, 13))


def test_replace_normalises_parameters():
    base = replace(builtin("pn", {"n": 2}), parameters={"n": 7})
    assert base.parameters == (("n", 7),)
    assert base in {base}


def test_user_base_parameters_keep_given_order():
    base = LefschetzBase("mine", "mine", 3, 4, 1, "O(1)", parameters={"z": 3, "a": 1})
    assert base.parameters == (("z", 3), ("a", 1))
    assert base.param_key() == (3, 1)
    assert catalog_record(base)["parameters"] == {"z": 3, "a": 1}


# ---------------------------------------------------------------------------
# Catalog files
# ---------------------------------------------------------------------------


def representative_bases():
    return [
        builtin("pn", {"n": 5}),
        builtin("wpn", {"w0": 1, "w1": 1, "w2": 1, "w3": 3}),
        builtin("quadric4s2", {"s": 1}),
        builtin("gr", {"k": 2, "n": 5}),
        builtin("ogr2", {"n": 3}),
        builtin("sgr36"),
        builtin("ogr510"),
        builtin("g2gr"),
        builtin("igr2", {"n": 2}),
        builtin("gr26_L2"),
        builtin("p3xp3"),
    ]


def test_round_trip_single_entry(tmp_path):
    # a user base takes no builtin id
    base = replace(builtin("pn", {"n": 5}), id="my_pn")
    path = tmp_path / "catalog.json"
    path.write_text(catalog_text([base]), encoding="utf-8")
    loaded = load_catalog_file(path)
    assert loaded == [base]


def test_round_trip_all_builtin_representatives(tmp_path):
    bases = [replace(base, id=f"my_{base.id}") for base in representative_bases()]
    assert len(bases) == 11
    path = tmp_path / "catalog.json"
    path.write_text(catalog_text(bases), encoding="utf-8")
    assert load_catalog_file(path) == bases


def test_zero_length_rejected(tmp_path):
    record = catalog_record(builtin("pn", {"n": 2}))
    record["length_m"] = 0
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_catalog_file(path)
    assert "length_m" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    record = catalog_record(builtin("pn", {"n": 2}))
    record["surprise"] = 1
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_catalog_file(path)
    assert "surprise" in str(err.value)


def test_missing_field_rejected(tmp_path):
    record = catalog_record(builtin("pn", {"n": 2}))
    del record["rank_b"]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_catalog_file(path)
    assert "rank_b" in str(err.value)


def test_duplicate_ids_rejected(tmp_path):
    record = catalog_record(builtin("pn", {"n": 2}))
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record, record]), encoding="utf-8")
    with pytest.raises(ValidationError):
        load_catalog_file(path)


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_catalog_file(path)


def test_non_array_is_parse_error(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text('{"id": "x"}', encoding="utf-8")
    with pytest.raises(ParseError):
        load_catalog_file(path)


def test_builtin_id_rejected(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(catalog_text([builtin("pn", {"n": 2})]), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_catalog_file(path)
    assert str(err.value) == "catalog id 'pn' collides with a builtin family"


def test_chi_stable_defaults_true_and_round_trips(tmp_path):
    record = catalog_record(builtin("pn", {"n": 2}))
    record["chi_stable"] = False
    record["id"] = "custom"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    (loaded,) = load_catalog_file(path)
    assert loaded.chi_stable is False


FORMULA_TOKEN = re.compile(r"\s*(w0\+\.\.\.\+wn|\d+|[A-Za-z]|[-+/(),])")


def evaluate_formula(text, names):
    """The exact value of a catalog formula such as ``4s+2``, ``k(n-k)`` or ``C(n,k)/n``.

    Integers, one-letter ``names``, ``+ - /``, parentheses and implicit
    products; ``C(n,k)`` is a binomial coefficient and ``w0+...+wn`` is one
    name, the sum of the weights.
    """
    tokens = FORMULA_TOKEN.findall(text)
    assert "".join(tokens) == text.replace(" ", ""), text
    pos = 0

    def take(expected=None):
        nonlocal pos
        token = tokens[pos]
        assert expected in (None, token), (text, pos)
        pos += 1
        return token

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def expr():
        value = term()
        while peek() in ("+", "-"):
            sign = take()
            value = value + term() if sign == "+" else value - term()
        return value

    def term():
        value = factor()
        while peek() not in (None, "+", "-", ")", ","):
            if peek() == "/":
                take()
                value /= factor()
            else:
                value *= factor()  # an implicit product: 4n, k(n-k)
        return value

    def factor():
        token = take()
        if token == "(":
            value = expr()
            take(")")
            return value
        if token == "C":
            take("(")
            n = expr()
            take(",")
            k = expr()
            take(")")
            return Fraction(comb(int(n), int(k)))
        if token.isdigit():
            return Fraction(int(token))
        return Fraction(names[token])

    value = expr()
    assert pos == len(tokens), text
    return value


def formula_grid():
    """(family id, params, the names its formulas read) over a small window of each row."""
    for family_id in ("pn", "ogr2", "igr2"):
        first = 1 if family_id == "pn" else 2
        for n in range(first, 9):
            yield family_id, {"n": n}, {"n": n}
    for s in range(1, 5):
        yield "quadric4s2", {"s": s}, {"s": s}
    for n in range(2, 13):
        for k in range(1, n):
            if gcd(k, n) == 1:
                yield "gr", {"k": k, "n": n}, {"k": k, "n": n}
    for family in FAMILIES.values():
        if not family.param_names:
            yield family.id, {}, {}
    for length in range(2, 9):
        for weights in combinations_with_replacement(range(1, 8), length):
            if sum(weights) <= 8:
                params = {f"w{i}": w for i, w in enumerate(weights)}
                yield "wpn", params, {"n": length - 1, "w0+...+wn": sum(weights)}


def test_family_metadata_is_complete():
    # the formulas `cycalc catalog` prints are the rows' rules
    seen = set()
    for family_id, params, names in formula_grid():
        family, base = FAMILIES[family_id], builtin(family_id, params)
        assert evaluate_formula(family.dim_formula, names) == base.dim_m, (family_id, params)
        assert evaluate_formula(family.length_formula, names) == base.length_m, (family_id, params)
        assert evaluate_formula(family.rank_formula, names) == base.rank_b, (family_id, params)
        seen.add(family_id)
    assert seen == set(FAMILIES)


# ---------------------------------------------------------------------------
# Catalog file faults: pinned messages, hostile documents
# ---------------------------------------------------------------------------

VALID_ENTRY = {
    "id": "mine", "display_name": "my base", "dim_m": 5, "length_m": 6, "rank_b": 1,
    "line_bundle_note": "O(1)", "omega_is_l_minus_m": True, "parameters": {"n": 5},
    "chi_stable": True,
}
DELETE = object()

#: One fault in an otherwise valid entry, and its message byte for byte.
SINGLE_FAULTS = [
    ({"surprise": 1}, "entry 'mine': unknown key 'surprise'"),
    ({"zzz": 1, "aaa": 2}, "entry 'mine': unknown key 'aaa'"),
    ({"id": DELETE}, "entry '<missing id>': missing field 'id'"),
    *(
        ({key: DELETE}, f"entry 'mine': missing field '{key}'")
        for key in (
            "display_name", "dim_m", "length_m", "rank_b", "line_bundle_note",
            "omega_is_l_minus_m", "parameters",
        )
    ),
    *(
        ({"id": value}, "field 'id' must be a nonempty string")
        for value in (5, None, True, [], {}, 1.5, "")
    ),
    *(
        ({key: value}, f"entry 'mine': field '{key}' must be a string")
        for key in ("display_name", "line_bundle_note")
        for value in (5, None, True, [], {}, 1.5)
    ),
    *(
        ({key: value}, f"entry 'mine': field '{key}' must be an integer")
        for key in ("dim_m", "length_m", "rank_b")
        for value in ("5", True, False, 5.0, None, [5], {})
    ),
    *(
        ({key: value}, f"entry 'mine': field '{key}' must be a boolean")
        for key in ("omega_is_l_minus_m", "chi_stable")
        for value in (1, 0, "true", None, [])
    ),
    *(
        ({"parameters": value}, "entry 'mine': field 'parameters' must be an object")
        for value in ([], 5, "n=5", None, True)
    ),
    *(
        ({"parameters": {"n": value}}, "entry 'mine': field 'parameters.n' must be an integer")
        for value in ("5", True, 5.0, None)
    ),
    ({"parameters": {"a": 1, "b": []}}, "entry 'mine': field 'parameters.b' must be an integer"),
    ({"length_m": 0}, "length_m must be >= 1, got 0"),
    ({"length_m": -3}, "length_m must be >= 1, got -3"),
    ({"rank_b": 0}, "rank_b must be >= 1, got 0"),
    ({"rank_b": -1}, "rank_b must be >= 1, got -1"),
    ({"dim_m": -1}, "dim_m must be >= 0, got -1"),
]


def write_entry(tmp_path, patch):
    record = dict(VALID_ENTRY)
    for key, value in patch.items():
        if value is DELETE:
            del record[key]
        else:
            record[key] = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    return path


@pytest.mark.parametrize("patch, message", SINGLE_FAULTS)
def test_single_fault_messages_are_pinned(tmp_path, patch, message):
    with pytest.raises(ValidationError) as err:
        load_catalog_file(write_entry(tmp_path, patch))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("[5]", ValidationError, "catalog entry must be a JSON object"),
        ("[null]", ValidationError, "catalog entry must be a JSON object"),
        ("{}", ParseError, "{path}: top-level value must be a JSON array"),
        ("5", ParseError, "{path}: top-level value must be a JSON array"),
        (
            "{not json", ParseError,
            "{path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        ("", ParseError, "{path}: Expecting value: line 1 column 1 (char 0)"),
        (json.dumps([VALID_ENTRY, VALID_ENTRY]), ValidationError, "duplicate catalog id 'mine'"),
        # every entry is read before any id is checked against the builtins
        (
            json.dumps([dict(VALID_ENTRY, id="pn"), dict(VALID_ENTRY, rank_b=0)]),
            ValidationError, "rank_b must be >= 1, got 0",
        ),
        (
            json.dumps([dict(VALID_ENTRY, id="pn")] * 2),
            ValidationError, "duplicate catalog id 'pn'",
        ),
        (
            json.dumps([dict(VALID_ENTRY, id="pn"), dict(VALID_ENTRY, id="igr2")]),
            ValidationError, "catalog id 'pn' collides with a builtin family",
        ),
    ],
)
def test_document_fault_messages_are_pinned(tmp_path, text, error, message):
    path = tmp_path / "catalog.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as err:
        load_catalog_file(path)
    assert str(err.value) == message.format(path=path)


def test_valid_entry_is_its_lefschetz_base(tmp_path):
    (base,) = load_catalog_file(write_entry(tmp_path, {}))
    assert base == LefschetzBase(**VALID_ENTRY)
    (base,) = load_catalog_file(write_entry(tmp_path, {"chi_stable": DELETE}))
    assert base.chi_stable is True


@pytest.mark.parametrize(
    "text",
    [
        # json.loads raises a plain ValueError: Python converts no longer int
        '[{"id": "big", "rank_b": ' + "9" * 5000 + "}]",
        # json.loads raises RecursionError
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["5000-digit integer", "arrays nested 100000 deep"],
)
def test_unreadable_json_is_a_parse_error_naming_the_file(tmp_path, text):
    path = tmp_path / "catalog.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_catalog_file(path)
    assert str(err.value).startswith(f"{path}: ")


def test_size_bound_is_digits_of_dim_and_length():
    assert MAX_SIZE_DIGITS == 2_000
    largest = 10**MAX_SIZE_DIGITS - 1
    assert LefschetzBase("big", "big", largest, largest, 1, "").length_m == largest
    for field in ("dim_m", "length_m"):
        fields = {"dim_m": 2, "length_m": 3, field: largest + 1}
        with pytest.raises(SizeLimitExceeded) as err:
            LefschetzBase("big", "big", rank_b=1, line_bundle_note="", **fields)
        assert str(err.value) == f"{field} has more than 2,000 digits; refused"


def test_every_builtin_base_is_built_under_the_size_bound():
    with pytest.raises(SizeLimitExceeded, match="dim_m has more than 2,000 digits"):
        builtin("pn", {"n": 10**4300 - 1})
    with pytest.raises(SizeLimitExceeded, match="dim_m has more than 2,000 digits"):
        builtin("gr", {"k": 2, "n": 10**3000 + 1})
    with pytest.raises(SizeLimitExceeded, match="length_m has more than 2,000 digits"):
        builtin("wpn", {"w0": 1, "w1": 10**2000 - 1})


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: builtin("pn", {"n": 10**5000}), "n"),
        (lambda: builtin("pn", {"n": -(10**5000)}), "n"),
        (lambda: builtin("wpn", {"w0": 1, "w1": 10**5000}), "w1"),
        (lambda: builtin("wpn", {"w0": -(10**5000), "w1": 1}), "w0"),
        (lambda: builtin("gr", {"k": 10**5000, "n": 3}), "k"),
        (lambda: fonarev_rank(2, 10**5000 + 1), "n"),
        (lambda: fonarev_rank(10**4300, 3), "k"),
    ],
    ids=["pn", "negative pn", "wpn", "negative wpn", "gr", "fonarev n", "fonarev k"],
)
def test_a_parameter_python_cannot_print_is_refused_before_a_message_prints_it(make, name):
    with pytest.raises(SizeLimitExceeded) as err:
        make()
    assert str(err.value) == f"{name} has more than 4,300 digits; refused"


def test_the_longest_printable_parameter_keeps_its_message():
    longest = 10**4300 - 1
    with pytest.raises(SizeLimitExceeded, match="^dim_m has more than 2,000 digits; refused$"):
        builtin("igr2", {"n": longest})  # IGr(2, 2n+1) could not print 2n+1
    with pytest.raises(InvalidParams, match=f"^pn requires n >= 1, got n=-{longest}$"):
        builtin("pn", {"n": -longest})


# A JSON value as text.  Integers are written out digit by digit, because
# json.dumps cannot print one of more than 4,300 digits either.
json_ints = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.tuples(st.sampled_from(["", "-"]), st.integers(min_value=1, max_value=6000)).map(
        lambda sign_digits: sign_digits[0] + "9" * sign_digits[1]
    ),
    st.integers(min_value=1990, max_value=2010).map(lambda digits: "1" + "0" * digits),
).map(str)
json_scalars = st.one_of(
    json_ints,
    st.sampled_from(["true", "false", "null", "1.5", "-0.0", "1e400", '""', '"x"', "{}", "[]"]),
    st.text(max_size=5).map(json.dumps),
)
json_nested = st.integers(min_value=1, max_value=3000).map(lambda depth: "[" * depth + "]" * depth)
json_values = st.one_of(json_scalars, json_nested)


@st.composite
def entry_texts(draw):
    """An entry object whose fields are valid, missing or hostile, plus extra keys."""
    fields = []
    for key, value in VALID_ENTRY.items():
        choice = draw(st.sampled_from(["valid", "valid", "missing", "hostile"]))
        if choice == "missing":
            continue
        if choice == "valid":
            text = json.dumps(value)
        elif key == "parameters":
            names = draw(st.lists(st.sampled_from(["n", "k", "w0"]), max_size=3, unique=True))
            text = draw(st.one_of(
                json_values,
                st.lists(json_values, min_size=len(names), max_size=len(names)).map(
                    lambda values: "{" + ", ".join(
                        f'"{name}": {value}' for name, value in zip(names, values)
                    ) + "}"
                ),
            ))
        else:
            text = draw(json_values)
        fields.append(f'"{key}": {text}')
    if draw(st.booleans()):
        fields.append(f'"extra": {draw(json_values)}')
    return "{" + ", ".join(draw(st.permutations(fields))) + "}"


catalog_documents = st.one_of(
    st.lists(st.one_of(entry_texts(), json_values), max_size=3).map(
        lambda entries: "[" + ", ".join(entries) + "]"
    ),
    json_values,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(catalog_documents)
@example("[" * 100_000 + "]" * 100_000)
@example('[{"id": "x", "dim_m": ' + "9" * 5000 + "}]")
@example('[{"surprise": 1, "id": ' + "[" * 990 + "]" * 990 + "}]")
def test_hostile_catalog_documents_give_bases_or_a_cycalc_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("hostile") / "catalog.json"
    path.write_text(text, encoding="utf-8")
    try:
        bases = load_catalog_file(path)
    except CycalcError:
        return
    for base in bases:
        assert isinstance(base, LefschetzBase)
        # every number of a loaded base can be printed
        str(base.dim_m), str(base.length_m), str(base.rank_b), str(base.parameters)

"""Builtin catalog of rectangular Lefschetz bases, plus a JSON file format.

A base records the numerical data of a rectangular Lefschetz decomposition

    D(M) = < B, B(1), ..., B(m-1) >      (twists by a line bundle L)

namely dim M, the length m, and rk B (the number of exceptional objects
generating one block).  The actual objects are never represented; every
computation downstream only needs these counts together with the standing
hypothesis that the canonical bundle of M is L^-m.

Builtin families are the ``FAMILIES`` rows; ``cycalc catalog`` lists each
row's id, dim M, m and rk B as the formulas that the row's rules compute.

Dimension counts for the two infinite isotropic families are the standard
ones: OGr(2,2n+1) has dimension 2(2n+1) - 3 - (2+1) + 1 - 1 = 4n - 5 (lines on
a quadric of dimension 2n-1), and a hyperplane section of the (4n-2)-fold
Gr(2,2n+1) has dimension 4n-3.  The ``p3xp3`` entry is a companion of the
other fixed entries (its quadric sections behave exactly like those of the
homogeneous fixed entries) rather than a member of an infinite family here.

A new family is one ``FAMILIES`` row: ``_family`` takes its catalog strings,
its parameter names (the command line's flags), an optional lower bound,
rules from the parameter values to the base's numbers and names, and a sweep
window in ``param_key`` order; ``_fixed`` does the same for a parameterless
entry.  Only ``wpn``, with a parameter list of any length, has its own rules.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from .errors import InvalidParams, ParseError, SizeLimitExceeded, UnknownBase, ValidationError
from .value import Value

if TYPE_CHECKING:
    from pathlib import Path

    from .engine import SweepBounds


#: Most decimal digits of dim M and of m.  Every integer a command prints is
#: at most about (dim M + 1) m, for example the shift ((dim M + 1) d - 2m)/c,
#: so it then has at most 4,001 digits: Python prints no longer int than 4,300.
MAX_SIZE_DIGITS = 2_000
_SIZE_BOUND = 10**MAX_SIZE_DIGITS

#: Most decimal digits of a block rank or of a family parameter: Python prints no longer int.
MAX_RANK_DIGITS = 4_300
_RANK_BOUND = 10**MAX_RANK_DIGITS


def _check_digits(most: int, bound: int, values: Mapping[str, int]) -> None:
    """Refuse any of ``values`` of more than ``most`` digits (``bound`` = 10**most)."""
    for name, value in values.items():
        if abs(value) >= bound:
            raise SizeLimitExceeded(f"{name} has more than {most:,} digits; refused")


class LefschetzBase(Value):
    """Numerical data of one rectangular Lefschetz decomposition.

    ``parameters`` may be given as a mapping or as ``(name, value)`` pairs; it
    is stored as a tuple of pairs in the order given, so bases are hashable.
    A dim M or m of more than :data:`MAX_SIZE_DIGITS` digits is refused.
    """

    __slots__ = (
        "id", "display_name", "dim_m", "length_m", "rank_b", "line_bundle_note",
        "omega_is_l_minus_m", "parameters", "chi_stable",
    )

    def __init__(
        self, id: str, display_name: str, dim_m: int, length_m: int, rank_b: int,
        line_bundle_note: str, omega_is_l_minus_m: bool = True,
        parameters: Mapping[str, int] | Iterable[tuple[str, int]] = (),
        chi_stable: bool = True,
    ) -> None:
        if length_m < 1:
            raise ValidationError(f"length_m must be >= 1, got {length_m}")
        if rank_b < 1:
            raise ValidationError(f"rank_b must be >= 1, got {rank_b}")
        if dim_m < 0:
            raise ValidationError(f"dim_m must be >= 0, got {dim_m}")
        _check_digits(MAX_SIZE_DIGITS, _SIZE_BOUND, {"dim_m": dim_m, "length_m": length_m})
        self._set(
            id, display_name, dim_m, length_m, rank_b, line_bundle_note,
            omega_is_l_minus_m, tuple(dict(parameters).items()), chi_stable,
        )

    def param_key(self) -> tuple[int, ...]:
        """Parameter values in stored order, used as a deterministic sort key."""
        return tuple(v for _, v in self.parameters)


def fonarev_rank(k: int, n: int) -> int:
    """Number of exceptional objects in one block for Gr(k,n), coprime k, n.

    The block is counted by weakly decreasing diagrams
    (a_1 >= ... >= a_{k-1} >= 0) with a_p < (n-k)(k-p)/k.  For coprime k and
    n the n blocks of the rectangular decomposition exhaust the C(n,k)
    classes of Gr(k,n), so the count is C(n,k)/n.  The test suite checks it
    against a direct enumeration of the diagrams and a row-by-row count.
    C(n,k) is built factor by factor, and a rank over :data:`MAX_RANK_DIGITS`
    digits is refused once a partial product passes it (a longer k or n first).
    """
    _check_digits(MAX_RANK_DIGITS, _RANK_BOUND, {"k": k, "n": n})
    if not (1 <= k < n):
        raise InvalidParams(f"need 1 <= k < n, got k={k}, n={n}")
    if gcd(k, n) != 1:
        raise InvalidParams(f"(k, n) must be coprime, got k={k}, n={n}")
    limit = n * _RANK_BOUND
    binomial = 1
    for j in range(min(k, n - k)):
        binomial = binomial * (n - j) // (j + 1)
        if binomial >= limit:
            raise SizeLimitExceeded(
                f"the block rank C({n},{k})/{n} of Gr({k},{n}) has more than "
                f"{MAX_RANK_DIGITS:,} digits; refused"
            )
    return binomial // n


class Family(Value):
    """One builtin family: metadata, an instantiation rule and a sweep window."""

    __slots__ = (
        "id", "display_name", "param_names", "dim_formula", "length_formula",
        "rank_formula", "line_bundle_note", "make", "window",
    )

    def __init__(
        self, id: str, display_name: str, param_names: tuple[str, ...], dim_formula: str,
        length_formula: str, rank_formula: str, line_bundle_note: str,
        make: Callable[[Mapping[str, int]], LefschetzBase],
        window: Callable[[SweepBounds], Iterable[Mapping[str, int]]],
    ) -> None:
        self._set(
            id, display_name, param_names, dim_formula, length_formula, rank_formula,
            line_bundle_note, make, window,
        )


def _require_params(family_id: str, params: Mapping[str, int], names: tuple[str, ...]) -> None:
    missing = [name for name in names if name not in params]
    if missing:
        raise InvalidParams(f"{family_id} requires parameters {', '.join(missing)}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise InvalidParams(f"{family_id} got unexpected parameters {', '.join(extra)}")


def _normalize_weights(params: Mapping[str, int]) -> tuple[int, ...]:
    if not params:
        raise InvalidParams("wpn requires at least one weight")
    if set(params) != {f"w{i}" for i in range(len(params))}:
        raise InvalidParams("wpn weight parameters must be named w0, w1, ...")
    weights = tuple(sorted(params.values()))
    if len(weights) < 2:
        raise InvalidParams("wpn requires at least two weights")
    if any(w < 1 for w in weights):
        raise InvalidParams(f"weights must be positive, got {weights}")
    return weights


def _make_wpn(params: Mapping[str, int]) -> LefschetzBase:
    weights = _normalize_weights(params)
    n = len(weights) - 1
    return LefschetzBase(
        id="wpn",
        display_name="P(" + ",".join(str(w) for w in weights) + ")",
        dim_m=n,
        length_m=sum(weights),
        rank_b=1,
        line_bundle_note="O(1) on the smooth toric stack",
        parameters={f"w{i}": w for i, w in enumerate(weights)},
    )


def _weight_multisets(total_max: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing weight tuples (w0 <= w1 <= ...) with sum <= total_max.

    The depth-first walk yields them in lexicographic order, each prefix
    before its extensions.  It keeps the current tuple in a list instead of
    recursing, so a tuple may be as long as ``total_max``.
    """
    weights: list[int] = []
    total = 0
    while True:
        smallest = weights[-1] if weights else 1
        if total + smallest <= total_max:
            # descend: the first extension repeats the last weight
            weights.append(smallest)
            total += smallest
        else:
            # climb: raise the deepest weight that can still grow
            while weights:
                w = weights.pop()
                total -= w
                if total + w + 1 <= total_max:
                    weights.append(w + 1)
                    total += w + 1
                    break
            else:
                return
        if len(weights) >= 2:
            yield tuple(weights)


def _wpn_window(bounds: SweepBounds) -> Iterator[dict[str, int]]:
    if bounds.include_weighted:
        for weights in _weight_multisets(bounds.max_weight_sum):
            yield {f"w{i}": w for i, w in enumerate(weights)}


def _family(
    family_id: str,
    name: str,
    param_names: tuple[str, ...],
    dim_formula: str,
    length_formula: str,
    rank_formula: str,
    note: str,
    numbers: Callable[..., tuple[int, int, int]],
    names: Callable[..., tuple[str, str]],
    window: Callable[[SweepBounds], Iterable[Mapping[str, int]]],
    minimum: int | None = None,
) -> Family:
    """One builtin family: its catalog strings, rules for its bases, its window.

    ``numbers`` maps the parameter values, in ``param_names`` order, to dim M, m
    and rk B, and ``names`` to the display name and note, formatted once the sizes
    pass.  ``minimum`` bounds a single parameter; ``numbers`` makes other checks.
    """

    def make(params: Mapping[str, int]) -> LefschetzBase:
        _require_params(family_id, params, param_names)
        values = tuple(params[p] for p in param_names)
        if minimum is not None and values[0] < minimum:
            p = param_names[0]
            raise InvalidParams(f"{family_id} requires {p} >= {minimum}, got {p}={values[0]}")
        dim_m, m, rank = numbers(*values)
        _check_digits(MAX_SIZE_DIGITS, _SIZE_BOUND, {"dim_m": dim_m, "length_m": m})
        display, base_note = names(*values)
        return LefschetzBase(
            family_id, display, dim_m, m, rank, base_note,
            parameters=tuple(zip(param_names, values)),
        )

    return Family(
        family_id, name, param_names, dim_formula, length_formula, rank_formula, note, make,
        window,
    )


def _fixed(
    base_id: str, name: str, display: str, dim_m: int, m: int, rank: int, note: str
) -> Family:
    """A parameterless family: catalog name, base name, dim M, m, rk B, note."""
    return _family(
        base_id, name, (), str(dim_m), str(m), str(rank), note,
        lambda: (dim_m, m, rank),
        lambda: (display, note),
        lambda bounds: [{}],
    )


FAMILIES: dict[str, Family] = {
    f.id: f
    for f in (
        _family(
            "pn", "projective space P^n", ("n",), "n", "n+1", "1", "O(1)",
            lambda n: (n, n + 1, 1),
            lambda n: (f"P^{n}", "O(1)"),
            lambda b: ({"n": n} for n in range(1, b.max_n + 1)),
            minimum=1,
        ),
        Family(
            "wpn",
            "weighted projective stack P(w0,...,wn)",
            ("w0...",),
            "n",
            "w0+...+wn",
            "1",
            "O(1) on the smooth toric stack",
            _make_wpn,
            _wpn_window,
        ),
        _family(
            "quadric4s2", "smooth quadric of dimension 4s+2", ("s",), "4s+2", "2", "2s+2",
            "O(2s+1)",
            lambda s: (4 * s + 2, 2, 2 * s + 2),
            lambda s: (
                f"Q^{4 * s + 2}", f"O({2 * s + 1}); block = O,...,O(2s) plus one spinor bundle"
            ),
            lambda b: ({"s": s} for s in range(1, b.max_s + 1)),
            minimum=1,
        ),
        _family(
            "gr", "Grassmannian Gr(k,n), k and n coprime", ("k", "n"), "k(n-k)", "n",
            "C(n,k)/n", "Pluecker O(1)",
            # fonarev_rank validates 1 <= k < n and coprimality
            lambda k, n: (k * (n - k), n, fonarev_rank(k, n)),
            lambda k, n: (f"Gr({k},{n})", "Pluecker O(1)"),
            # 2 <= k and 2k < n: Gr(1,n) has the numerics of P^(n-1), Gr(n-k,n) those of Gr(k,n)
            lambda b: (
                {"k": k, "n": n}
                for k in range(2, (b.max_n + 1) // 2)
                for n in range(2 * k + 1, b.max_n + 1)
                if gcd(k, n) == 1
            ),
        ),
        _family(
            "ogr2", "orthogonal Grassmannian OGr(2,2n+1)", ("n",), "4n-5", "2n-2", "n", "O(1)",
            lambda n: (4 * n - 5, 2 * n - 2, n),
            lambda n: (
                f"OGr(2,{2 * n + 1})",
                "O(1); block = symmetric powers of U^v plus the spinor bundle",
            ),
            lambda b: ({"n": n} for n in range(2, b.max_n + 1)),
            minimum=2,
        ),
        _fixed(
            "sgr36", "symplectic Grassmannian SGr(3,6)", "SGr(3,6)", 6, 4, 2,
            "O(1); block = O, U^v",
        ),
        _fixed(
            "ogr510", "spinor tenfold OGr+(5,10)", "OGr+(5,10)", 10, 8, 2,
            "spinor O(1); block = O, U^v",
        ),
        _fixed(
            "g2gr", "adjoint Grassmannian of type G2", "G2-Gr(2,7)", 5, 3, 2,
            "O(1); block = O, U^v",
        ),
        _family(
            "igr2", "hyperplane section of Gr(2,2n+1)", ("n",), "4n-3", "2n", "n", "O(1)",
            lambda n: (4 * n - 3, 2 * n, n),
            lambda n: (f"IGr(2,{2 * n + 1})", "O(1); block = O, U^v, ..., S^(n-1) U^v"),
            # n >= 3: quadric sections of IGr(2,5) are the fourfold members of the
            # double-cover-of-Gr(2,5) series the sweeps already hold, so the window
            # keeps one representative per family; builtin() still takes n = 2
            lambda b: ({"n": n} for n in range(3, b.max_n + 1)),
            minimum=2,
        ),
        _fixed(
            "gr26_L2", "Gr(2,6) with the square polarization", "Gr(2,6), L=O(2)", 8, 3, 5,
            "Pluecker O(2); block = O, U^v, S^2 U^v, O(1), U^v(1)",
        ),
        _fixed(
            "p3xp3", "product P^3 x P^3", "P^3 x P^3", 6, 4, 4,
            "O(1,1) (companion entry)",
        ),
    )
}

BUILTIN_IDS: tuple[str, ...] = tuple(FAMILIES)

#: The rows' integer parameter names in row order; ``wpn`` alone takes a list.
INT_PARAM_NAMES: tuple[str, ...] = tuple(
    dict.fromkeys(name for f in FAMILIES.values() if f.id != "wpn" for name in f.param_names)
)


def builtin(base_id: str, params: Mapping[str, int] | None = None) -> LefschetzBase:
    """Instantiate a builtin family; raises UnknownBase / InvalidParams."""
    family = FAMILIES.get(base_id)
    if family is None:
        raise UnknownBase(f"unknown base id {base_id!r}; builtins: {', '.join(BUILTIN_IDS)}")
    params = dict(params or {})
    _check_digits(MAX_RANK_DIGITS, _RANK_BOUND, params)
    return family.make(params)


# ---------------------------------------------------------------------------
# Catalog files: a JSON array of concrete base records, whose keys are
# ``LefschetzBase``'s parameters.  Keys outside the schema are rejected so
# that typos fail loudly instead of silently.
# ---------------------------------------------------------------------------

#: Each key of a catalog entry with its JSON type and whether it is required.
_ENTRY_SCHEMA: dict[str, tuple[type, bool]] = {
    "id": (str, True),
    "display_name": (str, True),
    "dim_m": (int, True),
    "length_m": (int, True),
    "rank_b": (int, True),
    "line_bundle_note": (str, True),
    "omega_is_l_minus_m": (bool, True),
    "parameters": (dict, True),
    "chi_stable": (bool, False),
}
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object"}


def base_from_record(record: object) -> LefschetzBase:
    if not isinstance(record, dict):
        raise ValidationError("catalog entry must be a JSON object")
    entry_id = record.get("id", "<missing id>")
    unknown = sorted(set(record) - set(_ENTRY_SCHEMA))
    if unknown:
        raise ValidationError(f"entry {entry_id!r}: unknown key {unknown[0]!r}")
    for key, (_, required) in _ENTRY_SCHEMA.items():
        if required and key not in record:
            raise ValidationError(f"entry {entry_id!r}: missing field {key!r}")
    if not isinstance(entry_id, str) or not entry_id:
        raise ValidationError("field 'id' must be a nonempty string")
    # type(), not isinstance(): a JSON true or false is no integer
    for key, (expected, _) in _ENTRY_SCHEMA.items():
        if key in record and type(record[key]) is not expected:
            kind = _TYPE_NAMES[expected]
            raise ValidationError(f"entry {entry_id!r}: field {key!r} must be {kind}")
    for key, value in record["parameters"].items():
        if type(value) is not int:
            raise ValidationError(
                f"entry {entry_id!r}: field 'parameters.{key}' must be an integer"
            )
    return LefschetzBase(**record)


def load_catalog_file(path: str | Path) -> list[LefschetzBase]:
    """Load and validate a user catalog; duplicate and builtin ids are rejected."""
    import json
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read catalog: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: catalog is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an integer literal of more digits than Python
        # converts, or arrays and objects nested past the recursion limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError(f"{path}: top-level value must be a JSON array")
    bases = []
    seen: set[str] = set()
    for record in data:
        base = base_from_record(record)
        if base.id in seen:
            raise ValidationError(f"duplicate catalog id {base.id!r}")
        seen.add(base.id)
        bases.append(base)
    # after the loop, so a file's first schema or duplicate fault is reported first
    for base in bases:
        if base.id in FAMILIES:
            raise ValidationError(f"catalog id {base.id!r} collides with a builtin family")
    return bases

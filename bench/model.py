"""Independent model of the sweep windows and of the closed formulas.

Nothing here imports cycalc.  The benchmark generates its inputs and checks
the program's outputs against these re-derivations, so a fast path in the
program cannot pass by agreeing with itself.

* Catalog windows: the bases a ``sweep``/``verify`` window enumerates, with the
  numbers each row depends on (dim M, the length m, the display name).
* Calabi-Yau dimension of a case: (dim M + 1) - 2m/d for a divisor and
  (dim M + 1) - m/d for a double cover or root stack.  The case is an integer
  Calabi-Yau case when d | m and, for covers, m/d is odd (root stacks: even).
* Hodge numbers of hypersurfaces and double covers of P^n from Betti and
  Euler-characteristic formulas, and of Fermat hypersurfaces in weighted
  projective space by counting characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

SWEEP_KINDS = ("divisor", "cover")
ALL_KINDS = ("divisor", "cover", "root")

_FIXED = (
    # id, display, dim M, m
    ("sgr36", "SGr(3,6)", 6, 4),
    ("ogr510", "OGr+(5,10)", 10, 8),
    ("g2gr", "G2-Gr(2,7)", 5, 3),
    ("gr26_L2", "Gr(2,6), L=O(2)", 8, 3),
    ("p3xp3", "P^3 x P^3", 6, 4),
)


@dataclass(frozen=True)
class Base:
    """One base of a window: id, parameters in printed order, dim M, m."""

    id: str
    params: tuple[tuple[str, int], ...]
    dim: int
    m: int
    display: str

    def params_text(self) -> str:
        """Parameters as the table and CSV renderings print them."""
        return ";".join(f"{k}={v}" for k, v in self.params)


@dataclass(frozen=True)
class Row:
    """One (base, construction, degree) case and its modelled dimension."""

    base: Base
    kind: str
    d: int

    @property
    def cy_dimension(self) -> Fraction:
        return cy_dimension(self.kind, self.base.dim, self.base.m, self.d)

    @property
    def is_integer_cy(self) -> bool:
        return is_integer_cy(self.kind, self.base.m, self.d)

    def sort_key(self) -> tuple:
        return (
            self.base.id,
            tuple(v for _, v in self.base.params),
            ALL_KINDS.index(self.kind),
            self.d,
        )

    def signature(self) -> tuple[str, str, str, int]:
        """(display, params text, construction, degree): what a table row shows."""
        return (self.base.display, self.base.params_text(), self.kind, self.d)


def fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def cy_dimension(kind: str, dim: int, m: int, d: int) -> Fraction:
    if kind == "divisor":
        return (dim + 1) - Fraction(2 * m, d)
    return (dim + 1) - Fraction(m, d)


def is_integer_cy(kind: str, m: int, d: int) -> bool:
    if m % d:
        return False
    if kind == "divisor":
        return True
    odd = (m // d) % 2 == 1
    return odd if kind == "cover" else not odd


def hh_verdict(kind: str, dim: int, m: int, d: int) -> str | None:
    """Expected result of ``hh``'s degree -n nonvanishing check.

    None (skipped) unless the case is integer Calabi-Yau.  A component of
    negative dimension is zero (the hyperplane cases, whose induced blocks
    exhaust D(X)), so its homology vanishes and the check must fail; every
    other integer Calabi-Yau component must pass.
    """
    if not is_integer_cy(kind, m, d):
        return None
    return "PASS" if cy_dimension(kind, dim, m, d) >= 0 else "FAIL"


def pn_base(n: int) -> Base:
    return Base("pn", (("n", n),), n, n + 1, f"P^{n}")


def builtin_window(max_n: int = 30, max_s: int = 5, igr2_min_n: int = 3) -> list[Base]:
    """Bases of the default ``sweep``/``verify`` window (no weighted bases).

    Grassmannians Gr(k, n) are taken with 2 <= k <= n/2 and gcd(k, n) = 1.
    """
    bases = [pn_base(n) for n in range(1, max_n + 1)]
    for s in range(1, max_s + 1):
        bases.append(Base("quadric4s2", (("s", s),), 4 * s + 2, 2, f"Q^{4 * s + 2}"))
    for n in range(4, max_n + 1):
        for k in range(2, n // 2 + 1):
            if gcd(k, n) == 1:
                bases.append(Base("gr", (("k", k), ("n", n)), k * (n - k), n, f"Gr({k},{n})"))
    for n in range(2, max_n + 1):
        bases.append(Base("ogr2", (("n", n),), 4 * n - 5, 2 * n - 2, f"OGr(2,{2 * n + 1})"))
    for n in range(igr2_min_n, max_n + 1):
        bases.append(Base("igr2", (("n", n),), 4 * n - 3, 2 * n, f"IGr(2,{2 * n + 1})"))
    for base_id, display, dim, m in _FIXED:
        bases.append(Base(base_id, (), dim, m, display))
    return bases


def weight_multisets(max_sum: int, min_len: int = 2) -> list[tuple[int, ...]]:
    """Nondecreasing weight tuples with at least ``min_len`` entries and sum <= max_sum."""
    found = []

    def extend(prefix: tuple[int, ...], remaining: int, minimum: int) -> None:
        if len(prefix) >= min_len:
            found.append(prefix)
        for w in range(minimum, remaining + 1):
            extend(prefix + (w,), remaining - w, w)

    extend((), max_sum, 1)
    return found


def wpn_base(weights: tuple[int, ...]) -> Base:
    return Base(
        "wpn",
        tuple((f"w{i}", w) for i, w in enumerate(weights)),
        len(weights) - 1,
        sum(weights),
        "P(" + ",".join(str(w) for w in weights) + ")",
    )


def wpn_window(max_sum: int) -> list[Base]:
    return [wpn_base(weights) for weights in weight_multisets(max_sum)]


def window_rows(bases: list[Base], kinds: tuple[str, ...]) -> list[Row]:
    """Every case of the window, in the program's output order."""
    rows = [Row(base, kind, d) for base in bases for kind in kinds for d in range(1, base.m + 1)]
    rows.sort(key=Row.sort_key)
    return rows


def window_cases(bases: list[Base], kinds: tuple[str, ...]) -> int:
    return sum(base.m for base in bases) * len(kinds)


def filtered_rows(
    rows: list[Row], target: Fraction | None = None, integer_only: bool = False
) -> list[Row]:
    """Rows a filtered sweep keeps: proper components (d < m) matching the filter."""
    kept = []
    for row in rows:
        if row.d == row.base.m:
            continue
        if integer_only and not row.is_integer_cy:
            continue
        if target is not None:
            if target.denominator == 1 and not row.is_integer_cy:
                continue
            if row.cy_dimension != target:
                continue
        kept.append(row)
    return kept


def fractional_targets(rows: list[Row]) -> list[Fraction]:
    """Distinct non-integral dimensions of proper components, sorted."""
    dims = {row.cy_dimension for row in rows if row.d < row.base.m}
    return sorted(dim for dim in dims if dim.denominator != 1)


def negative_integer_rows(rows: list[Row]) -> list[Row]:
    """Integer Calabi-Yau proper components of negative dimension (``verify``'s report)."""
    return [
        row
        for row in rows
        if row.d < row.base.m and row.is_integer_cy and row.cy_dimension < 0
    ]


# ---------------------------------------------------------------------------
# Hodge numbers
# ---------------------------------------------------------------------------


def pn_divisor_primitive_betti(n: int, d: int) -> int:
    """Primitive middle Betti number of a smooth degree-d hypersurface in P^n."""
    return ((d - 1) ** (n + 1) + (-1) ** (n + 1) * (d - 1)) // d


def hypersurface_euler(n: int, e: int) -> int:
    """Euler characteristic of a smooth degree-e hypersurface in P^n."""
    return ((1 - e) ** (n + 1) - 1) // e + n + 1


def pn_cover_middle_betti(n: int, d: int) -> int:
    """Middle Betti number of a double cover of P^n branched in degree 2d.

    chi(X) = 2 chi(P^n) - chi(branch divisor); off the middle degree X has the
    Betti numbers of P^n.
    """
    euler = 2 * (n + 1) - hypersurface_euler(n, 2 * d)
    return (-1) ** n * (euler - (n + 1) + (1 if n % 2 == 0 else 0))


def pn_geometric_genus(n: int, d: int) -> int:
    """h^{dim,0} of a degree-d divisor in P^n, or of a double cover branched in 2d.

    Both equal h^0(P^n, O(d - n - 1)).
    """
    return comb(d - 1, n)


def surface_h11(betti2: int, genus: int) -> int:
    """h^{1,1} of a surface from b_2 and p_g = h^{2,0} = h^{0,2}."""
    return betti2 - 2 * genus


def fermat_admits(weights: tuple[int, ...], degree: int) -> bool:
    return all(degree % w == 0 and degree > w for w in weights)


def wpn_primitive_count(weights: tuple[int, ...], degree: int) -> int:
    """Primitive middle cohomology of the Fermat hypersurface in P(weights).

    Counts characters: tuples 1 <= a_i <= D/w_i - 1 with sum(w_i a_i) = 0 mod D.
    """
    counts = [0] * degree
    counts[0] = 1
    for w in weights:
        nxt = [0] * degree
        for residue, ways in enumerate(counts):
            if ways:
                for a in range(1, degree // w):
                    nxt[(residue + w * a) % degree] += ways
        counts = nxt
    return counts[0]


def wpn_geometric_genus(weights: tuple[int, ...], degree: int) -> int:
    """h^{dim,0}: monomials of weighted degree D - sum(weights)."""
    target = degree - sum(weights)
    if target < 0:
        return 0
    ways = [1] + [0] * target
    for w in weights:
        for total in range(w, target + 1):
            ways[total] += ways[total - w]
    return ways[target]


@dataclass(frozen=True)
class HodgeExpectation:
    """What a correct Hodge diamond of one supported case must satisfy."""

    dim_x: int
    primitive_middle: int
    genus: int


def hodge_expectation(base: Base, kind: str, d: int) -> HodgeExpectation:
    if base.id == "pn" and kind == "divisor":
        n = base.dim
        return HodgeExpectation(n - 1, pn_divisor_primitive_betti(n, d), pn_geometric_genus(n, d))
    if base.id == "pn" and kind == "cover":
        n = base.dim
        middle = pn_cover_middle_betti(n, d) - (1 if n % 2 == 0 else 0)
        return HodgeExpectation(n, middle, pn_geometric_genus(n, d))
    if base.id == "wpn" and kind == "divisor":
        weights = tuple(w for _, w in base.params)
        return HodgeExpectation(
            base.dim - 1, wpn_primitive_count(weights, d), wpn_geometric_genus(weights, d)
        )
    raise ValueError(f"no Hodge expectation for {base.id} {kind}")


def diamond_problems(grid: list[list[int]], expect: HodgeExpectation) -> list[str]:
    """Differences between a printed Hodge grid h[p][q] and the expectation.

    Off the middle row the diamond is that of projective space (Lefschetz);
    the middle row sums to the primitive count plus one ambient class when the
    dimension is even, and its end is the geometric genus.
    """
    n = expect.dim_x
    if len(grid) != n + 1 or any(len(row) != n + 1 for row in grid):
        return [f"grid is not {n + 1}x{n + 1}"]
    problems = []
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q != n and grid[p][q] != (1 if p == q else 0):
                problems.append(f"h^{{{p},{q}}} = {grid[p][q]} off the middle row")
    middle = [grid[n - q][q] for q in range(n + 1)]
    problems.extend(middle_row_problems(middle, expect))
    return problems


def middle_row_problems(middle: list[int], expect: HodgeExpectation) -> list[str]:
    n = expect.dim_x
    problems = []
    if len(middle) != n + 1:
        return [f"middle row has {len(middle)} entries, expected {n + 1}"]
    primitive = sum(middle) - (1 if n % 2 == 0 else 0)
    if primitive != expect.primitive_middle:
        problems.append(f"primitive middle {primitive} != {expect.primitive_middle}")
    if middle[0] != expect.genus or middle[-1] != expect.genus:
        problems.append(f"h^{{{n},0}} = {middle[0]} != geometric genus {expect.genus}")
    return problems


def poincare_work(weights: tuple[int, ...], degree: int) -> int:
    """Coefficient additions a truncated-product Poincare series needs.

    Used only to stratify Hodge queries by size, so every seed gets the same
    mix of cheap and expensive queries.
    """
    length, total = 1, 0
    for w in weights:
        steps = degree // w - 1
        total += length * steps
        length += (steps - 1) * w
    return total


def pn_query_work(kind: str, n: int, d: int) -> int:
    if kind == "divisor":
        return 0 if d == 1 else poincare_work((1,) * (n + 1), d)
    return poincare_work((1,) * (n + 1) + (d,), 2 * d)

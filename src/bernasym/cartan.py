"""Root-system engine for finite Cartan data.

Builds the positive coroots of any finite-type Cartan matrix (named series
A-G or an explicit matrix), computes heights and the rho-pairing, restricts
to Levi subsystems, and checks coweights of the quotient lattice attached to
a standard parabolic.

Conventions
-----------
* ``cartan[i][j]`` is the pairing of simple coroot ``i`` with simple root
  ``j``; the simple reflection ``s_i`` acts on a root written in simple-root
  coordinates ``c`` by ``c_i -> c_i - sum_j cartan[i][j] c_j``.
* Coweights are integer tuples in the simple-coroot basis; "positive" means
  all coordinates >= 0.  Vertices are indexed 0-based.
* Positive coroots of a Cartan matrix are the positive roots of its
  transpose, generated by reflection closure and sorted by (height, lex).
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Coweight = tuple[int, ...]
CartanMatrix = tuple[tuple[int, ...], ...]

#: inclusive rank ranges for the recognized series
SERIES_RANK_RANGES: dict[str, tuple[int, int]] = {
    "A": (1, 64),
    "B": (2, 64),
    "C": (2, 64),
    "D": (2, 64),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def height(vector: Sequence[int]) -> int:
    """Sum of coordinates; equals the rho-pairing for coroot-lattice elements."""
    return sum(vector)


def is_positive(vector: Sequence[int]) -> bool:
    return all(x >= 0 for x in vector)


def check_integers(vector: Sequence[int], what: str = "coweight") -> tuple[int, ...]:
    """vector as a tuple, or a ValueError naming ``what`` if an entry's type is not exactly int."""
    if any(type(x) is not int for x in vector):
        raise ValueError(f"{what} {tuple(vector)} has a coordinate that is not an integer")
    return tuple(vector)


# ---------------------------------------------------------------------------
# Cartan matrix validation
# ---------------------------------------------------------------------------


def validate_cartan_matrix(matrix: Sequence[Sequence[int]]) -> None:
    """Reject anything that is not a finite-type generalized Cartan matrix.

    Checks, in order: squareness and integrality, 2s on the diagonal,
    non-positive off-diagonal entries, the zero-symmetry a_ij = 0 <=> a_ji = 0,
    symmetrizability, and positive definiteness of the symmetrized matrix
    (the exact finite-type criterion, evaluated in Fraction arithmetic).
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("Cartan matrix must be nonempty")
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise ValueError(f"Cartan matrix row {i} is {row!r}, expected a list of {n} entries")
        for j, a in enumerate(row):
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError(f"Cartan matrix entry ({i},{j}) = {a!r} is not an integer")
    for i in range(n):
        if matrix[i][i] != 2:
            raise ValueError(f"Cartan matrix diagonal entry ({i},{i}) = {matrix[i][i]}, expected 2")
        for j in range(n):
            if i != j and matrix[i][j] > 0:
                raise ValueError(f"Cartan matrix off-diagonal entry ({i},{j}) = {matrix[i][j]} is positive")
            if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                raise ValueError(f"Cartan matrix entries ({i},{j}) and ({j},{i}) violate zero symmetry")

    d = _symmetrizer(matrix)
    sym = [[d[i] * matrix[i][j] for j in range(n)] for i in range(n)]
    if not _is_positive_definite(sym):
        raise ValueError("Cartan matrix is not of finite type (symmetrization is not positive definite)")


def _symmetrizer(matrix: Sequence[Sequence[int]]) -> list[Fraction]:
    """Positive d_i with d_i a_ij = d_j a_ji, or a ValueError if none exist."""
    n = len(matrix)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                required = d[i] * Fraction(matrix[i][j], matrix[j][i])
                if d[j] is None:
                    d[j] = required
                    queue.append(j)
                elif d[j] != required:
                    raise ValueError("Cartan matrix is not symmetrizable")
    return [x if x is not None else Fraction(1) for x in d]


def _is_positive_definite(sym: list[list[Fraction]]) -> bool:
    """Sylvester's criterion with exact Fraction Gaussian elimination."""
    n = len(sym)
    m = [row[:] for row in sym]
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return True


# ---------------------------------------------------------------------------
# Named series
# ---------------------------------------------------------------------------


def series_cartan(series: str, rank: int) -> CartanMatrix:
    """Cartan matrix of a recognized finite series at the given rank."""
    series = series.upper()
    if series not in SERIES_RANK_RANGES:
        raise ValueError(f"unknown series {series!r}; expected one of A, B, C, D, E, F, G")
    lo, hi = SERIES_RANK_RANGES[series]
    if not (lo <= rank <= hi):
        raise ValueError(f"series {series} is supported for rank {lo}..{hi}, got {rank}")
    n = rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, a_ij: int = -1, a_ji: int = -1) -> None:
        m[i][j] = a_ij
        m[j][i] = a_ji

    if series == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif series == "B":
        # vertex n-1 is the short root
        for i in range(n - 1):
            bond(i, i + 1)
        m[n - 1][n - 2] = -2
    elif series == "C":
        # vertex n-1 is the long root
        for i in range(n - 1):
            bond(i, i + 1)
        m[n - 2][n - 1] = -2
    elif series == "D":
        # chain 0..n-3 with both n-2 and n-1 attached to n-3 (no edges for n=2)
        for i in range(n - 3):
            bond(i, i + 1)
        if n >= 3:
            bond(n - 3, n - 2)
            bond(n - 3, n - 1)
    elif series == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        for i, j in edges:
            bond(i, j)
    elif series == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif series == "G":
        # vertex 0 short, vertex 1 long
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in m)


CLOSED_FORM_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


# ---------------------------------------------------------------------------
# Specs and construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootSystemSpec:
    """Input description of a root system: named series or explicit matrix."""

    series: str | None = None
    rank: int | None = None
    cartan: CartanMatrix | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.cartan is not None:
            if self.series is not None or self.rank is not None:
                raise ValueError("give either series/rank or an explicit Cartan matrix, not both")
            validate_cartan_matrix(self.cartan)  # before any coercion, so 2.9 or true is rejected
            object.__setattr__(self, "cartan", tuple(tuple(row) for row in self.cartan))
        else:
            if self.series is None or self.rank is None:
                raise ValueError("a root-system spec needs a series and a rank, or a Cartan matrix")
            series = self.series.upper()
            series_cartan(series, self.rank)  # validates the pair
            object.__setattr__(self, "series", series)

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.series is not None:
            return f"{self.series}{self.rank}"
        return "custom"


@dataclass(frozen=True)
class RootSystem:
    """Finite root datum: Cartan matrix plus the generated positive coroots.

    ``labels`` are the vertex names (0-based positions of the original index
    set; Levi subsystems keep the labels of the vertices they came from).
    ``positive_coroots`` are sorted by (height, lexicographic coordinates).
    """

    name: str
    cartan: CartanMatrix
    labels: tuple[int, ...]
    positive_coroots: tuple[Coweight, ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(height(b) for b in self.positive_coroots)

    @property
    def group_dimension(self) -> int:
        """dim G for the simply connected semisimple group of this type."""
        return self.rank + 2 * len(self.positive_coroots)

    def coroot_index(self) -> dict[Coweight, int]:
        return {b: i for i, b in enumerate(self.positive_coroots)}

    def check_coweight(self, theta: Sequence[int]) -> Coweight:
        if len(theta) != self.rank:
            raise ValueError(f"coweight has length {len(theta)}, expected rank {self.rank}")
        return check_integers(theta)

    def check_positive_coweight(self, theta: Sequence[int]) -> Coweight:
        """theta as an int tuple of length rank with every coordinate >= 0, else a ValueError."""
        theta = self.check_coweight(theta)
        if not is_positive(theta):
            raise ValueError(f"theta {theta} is not positive (all coordinates must be >= 0)")
        return theta


def positive_roots_of(matrix: CartanMatrix) -> list[tuple[int, ...]]:
    """All positive roots of a validated finite-type Cartan matrix.

    Reflection closure: start from the simple roots and repeatedly apply the
    simple reflections, keeping every image with nonnegative coordinates.
    Finite type guarantees a fixpoint.
    """
    n = len(matrix)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[tuple[int, ...]] = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(matrix[i][j] * beta[j] for j in range(n))
                image = list(beta)
                image[i] -= pairing
                tup = tuple(image)
                if tup not in roots and all(x >= 0 for x in tup):
                    roots.add(tup)
                    new.append(tup)
        frontier = new
    return sorted(roots, key=lambda b: (height(b), b))


def _from_cartan(name: str, matrix: CartanMatrix, labels: tuple[int, ...]) -> RootSystem:
    """The RootSystem of a validated matrix: its coroots are the positive roots of the transpose."""
    n = len(matrix)
    transpose = tuple(tuple(matrix[j][i] for j in range(n)) for i in range(n))
    return RootSystem(
        name=name,
        cartan=matrix,
        labels=labels,
        positive_coroots=tuple(positive_roots_of(transpose)),
    )


def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Construct the RootSystem for a spec, generating its positive coroots."""
    matrix = spec.cartan if spec.cartan is not None else series_cartan(spec.series, spec.rank)
    return _from_cartan(spec.name, matrix, tuple(range(len(matrix))))


def root_system(series: str, rank: int) -> RootSystem:
    """Shorthand for building a recognized series."""
    return build_root_system(RootSystemSpec(series=series, rank=rank))


# ---------------------------------------------------------------------------
# Pairings and the partial order
# ---------------------------------------------------------------------------


def rho_in_root_coords(rs: RootSystem) -> tuple[Fraction, ...]:
    """rho = half the sum of the positive roots, in simple-root coordinates."""
    roots = positive_roots_of(rs.cartan)
    return tuple(Fraction(sum(b[i] for b in roots), 2) for i in range(rs.rank))


def pair_weight_with_coroot(rs: RootSystem, weight: Sequence[Fraction], coroot: Sequence[int]) -> Fraction:
    """Pair a weight (simple-root coordinates) with a coroot (simple-coroot coordinates)."""
    n = rs.rank
    total = Fraction(0)
    for j in range(n):
        if coroot[j]:
            total += coroot[j] * sum(rs.cartan[j][i] * weight[i] for i in range(n))
    return total


@dataclass(frozen=True)
class ParabolicType:
    """A standard parabolic, encoded by its Levi vertices (0-based positions)."""

    levi_vertices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        verts = tuple(sorted(set(check_integers(self.levi_vertices, "Levi vertex list"))))
        object.__setattr__(self, "levi_vertices", verts)

    @staticmethod
    def borel() -> "ParabolicType":
        return ParabolicType(())

    def validate(self, rs: RootSystem) -> None:
        for v in self.levi_vertices:
            if not (0 <= v < rs.rank):
                raise ValueError(f"Levi vertex {v} is out of range for rank {rs.rank}")


QuotientCoweight = tuple[int, ...]


def check_quotient_coweight(rs: RootSystem, p: ParabolicType, theta: Sequence[int]) -> QuotientCoweight:
    """theta as an int tuple whose length is the rank minus the number of Levi vertices, else a ValueError."""
    p.validate(rs)
    expected = rs.rank - len(p.levi_vertices)
    if len(theta) != expected:
        raise ValueError(
            f"quotient coweight has length {len(theta)}, expected {expected}"
            f" (rank {rs.rank} minus {len(p.levi_vertices)} Levi vertices)"
        )
    return check_integers(theta, "quotient coweight")


def leq(rs: RootSystem, p: ParabolicType, a: Sequence[int], b: Sequence[int]) -> bool:
    """Partial order on the quotient: b - a has all coordinates >= 0."""
    a = check_quotient_coweight(rs, p, a)
    b = check_quotient_coweight(rs, p, b)
    return all(y - x >= 0 for x, y in zip(a, b))


def levi_subsystem(rs: RootSystem, p: ParabolicType) -> RootSystem:
    """Root system of the Levi: the Cartan submatrix on the Levi vertices."""
    p.validate(rs)
    verts = p.levi_vertices
    if not verts:
        raise ValueError("the Levi of the Borel is a torus; no root system to build")
    sub = tuple(tuple(rs.cartan[i][j] for j in verts) for i in verts)
    labels = tuple(rs.labels[i] for i in verts)
    return _from_cartan(f"{rs.name}-levi({','.join(str(v) for v in verts)})", sub, labels)


# ---------------------------------------------------------------------------
# Coweight enumeration
# ---------------------------------------------------------------------------


def compositions_of(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`, lex ascending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions_of(total - first, parts - 1):
            yield (first,) + rest


def coweights_up_to_height(rank: int, bound: int) -> list[Coweight]:
    """All positive coweights of height <= bound, sorted by (height, lex)."""
    if bound < 0:
        raise ValueError("height bound must be >= 0")
    out: list[Coweight] = []
    for h in range(bound + 1):
        out.extend(compositions_of(h, rank))
    return out


def coordinate_box(theta: Sequence[int]) -> Iterable[Coweight]:
    """All vectors 0 <= v <= theta coordinatewise, in lexicographic order."""
    return itertools.product(*(range(t + 1) for t in theta))


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------


def root_system_to_json(rs: RootSystem) -> dict:
    return {
        "name": rs.name,
        "labels": list(rs.labels),
        "cartan": [list(row) for row in rs.cartan],
        "positive_coroots": [list(b) for b in rs.positive_coroots],
        "heights": list(rs.heights),
    }


def root_system_from_json(obj: dict) -> RootSystem:
    """Rebuild a RootSystem; reject a matrix that is not finite type or coroots it does not generate."""
    validate_cartan_matrix(obj["cartan"])
    matrix = tuple(tuple(row) for row in obj["cartan"])
    rs = _from_cartan(str(obj["name"]), matrix, check_integers(obj["labels"], "labels"))
    if tuple(tuple(b) for b in obj["positive_coroots"]) != rs.positive_coroots:
        raise ValueError(f"positive_coroots of {rs.name!r} differ from those its Cartan matrix generates")
    return rs


def parse_key_values(text: str) -> dict[str, str]:
    """Parse `key=value` tokens, several per line, spaces allowed around `=`; `#` starts a comment line.

    A value cannot contain whitespace or `=`; later keys override earlier ones.
    """
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        for token in re.sub(r"\s*=\s*", "=", line).split():
            key, sep, value = token.partition("=")
            if not sep or not key or "=" in value:
                raise ValueError(f"expected key=value tokens, got {token!r}")
            fields[key] = value
    return fields


def parse_spec_text(text: str) -> RootSystemSpec:
    """Parse a plain-text spec: `type=A rank=3` (see :func:`parse_key_values`), or a JSON matrix.

    The JSON form is row-major: either a list of rows or a flat list whose
    length is a perfect square.
    """
    stripped = text.strip()
    if stripped.startswith("["):
        data = json.loads(stripped)
        if data and all(isinstance(x, list) for x in data):
            return RootSystemSpec(cartan=data)
        n = int(len(data) ** 0.5)
        if n * n != len(data):
            raise ValueError(f"flat row-major matrix has length {len(data)}, not a perfect square")
        return RootSystemSpec(cartan=[data[i * n : (i + 1) * n] for i in range(n)])

    fields = parse_key_values(stripped)
    if "type" not in fields or "rank" not in fields:
        raise ValueError("spec text must provide type= and rank= (or a JSON Cartan matrix)")
    return RootSystemSpec(
        series=fields["type"],
        rank=int(fields["rank"]),
        label=fields.get("label"),
    )

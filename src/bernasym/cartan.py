"""Root-system engine for finite Cartan data.

Builds the positive coroots of any finite-type Cartan matrix (named series
A-G or an explicit matrix), computes heights and the rho-pairing, and checks
every integer vector the library is handed (``check_coweight``).

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


def check_coweight(theta: Sequence[int], length: int, what: str) -> Coweight:
    """theta as a tuple of ``length`` coordinates, each of type exactly int and >= 0; else a ValueError naming what."""
    theta = tuple(theta)  # built-ins in one frame: every table checks each of its thetas here
    if len(theta) != length:
        raise ValueError(f"{what} {theta} has length {len(theta)}, expected {length}")
    if not {int}.issuperset(map(type, theta)):
        raise ValueError(f"{what} {theta} has a coordinate that is not an integer")
    if theta and min(theta) < 0:
        raise ValueError(f"{what} {theta} is not positive (all coordinates must be >= 0)")
    return theta


# ---------------------------------------------------------------------------
# Cartan matrix validation
# ---------------------------------------------------------------------------


def validate_cartan_matrix(matrix: Sequence[Sequence[int]]) -> None:
    """Reject anything that is not a finite-type generalized Cartan matrix.

    Checks, in order: a nonempty list of rows, squareness and integrality,
    2s on the diagonal, non-positive off-diagonal entries, the zero-symmetry
    a_ij = 0 <=> a_ji = 0, symmetrizability, and positive definiteness of the
    symmetrized matrix (the exact finite-type criterion, evaluated in integer
    arithmetic).
    """
    if not isinstance(matrix, (list, tuple)) or not matrix:
        raise ValueError(f"Cartan matrix is {matrix!r}, expected a nonempty list of rows")
    n = len(matrix)
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

    _check_symmetrizable(matrix)
    if not _leading_minors_positive(matrix):
        raise ValueError("Cartan matrix is not of finite type (symmetrization is not positive definite)")


def _check_symmetrizable(matrix: Sequence[Sequence[int]]) -> None:
    """Raise a ValueError unless positive d_i with d_i a_ij = d_j a_ji exist; d_i is kept as (num, den)."""
    n = len(matrix)
    d: dict[int, tuple[int, int]] = {}
    for start in range(n):
        if start in d:
            continue
        d[start] = (1, 1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and matrix[i][j]:
                    num, den = -d[i][0] * matrix[i][j], -d[i][1] * matrix[j][i]  # d_i a_ij / a_ji > 0
                    if j not in d:
                        d[j] = (num, den)
                        queue.append(j)
                    elif d[j][0] * den != num * d[j][1]:
                        raise ValueError("Cartan matrix is not symmetrizable")


def _leading_minors_positive(matrix: Sequence[Sequence[int]]) -> bool:
    """Every leading principal minor A_k is positive (Bareiss fraction-free elimination).

    With a positive symmetrizer D, det((DA)_k) = d_1...d_k det(A_k): this is Sylvester's criterion for DA.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(n):
        pivot = m[k][k]  # the leading principal minor of order k + 1
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return True


# ---------------------------------------------------------------------------
# Named series
# ---------------------------------------------------------------------------


def series_cartan(series: str, rank: int) -> CartanMatrix:
    """Cartan matrix of a recognized finite series at the given rank."""
    if type(series) is not str or type(rank) is not int:
        raise ValueError(f"series {series!r} and rank {rank!r} must be a letter and an integer")
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


# ---------------------------------------------------------------------------
# Specs and construction
# ---------------------------------------------------------------------------


class Value:
    """Immutable value: its fields are its ``__slots__``, each set once by ``Value.__init__``.

    A slot named ``_x`` holds the field ``x``.  ``Value.__init__`` takes every field, by position in slot order
    or by field name; a missing, extra or unknown field raises TypeError.  ``__reduce__`` gives (class, fields):
    equality and hash compare it, copy and pickle rebuild from it.  The repr is the constructor call
    ``Name(field=value, ...)``; assigning a field raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values: object, **fields: object) -> None:
        slots = self.__slots__
        try:  # equal counts and a name for each slot after the positional ones leave no name unknown or repeated
            if len(values) + len(fields) != len(slots):
                raise KeyError
            for name, value in zip(slots, values):
                object.__setattr__(self, name, value)
            for name in slots[len(values):]:
                object.__setattr__(self, name, fields[name.removeprefix("_")])
        except KeyError:  # the count is off, or a field is not named
            names = ", ".join(name.removeprefix("_") for name in slots)
            raise TypeError(f"{type(self).__name__} takes the fields {names}, each once") from None

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self.__reduce__() == other.__reduce__() if isinstance(other, Value) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name.removeprefix('_')}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__


class RootSystemSpec(Value):
    """Input description of a root system: named series or explicit matrix."""

    __slots__ = ("series", "rank", "cartan", "label")

    def __init__(self, series: str | None = None, rank: int | None = None,
                 cartan: CartanMatrix | None = None, label: str | None = None) -> None:
        if cartan is not None:
            if series is not None or rank is not None:
                raise ValueError("give either series/rank or an explicit Cartan matrix, not both")
            validate_cartan_matrix(cartan)  # before any coercion, so 2.9 or true is rejected
            cartan = tuple(tuple(row) for row in cartan)
        else:
            if series is None or rank is None:
                raise ValueError("a root-system spec needs a series and a rank, or a Cartan matrix")
            series_cartan(series, rank)  # validates the pair, their types first
            series = series.upper()
        super().__init__(series, rank, cartan, label)

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.series is not None:
            return f"{self.series}{self.rank}"
        return "custom"


class RootSystem(Value):
    """Finite root datum: Cartan matrix plus the generated positive coroots.

    ``positive_coroots`` are strictly sorted by (height, lexicographic
    coordinates), and their height-1 entries are exactly the ``rank`` unit
    vectors (the simple coroots); every route's pruning relies on that order.
    """

    __slots__ = ("name", "cartan", "positive_coroots")

    def __init__(self, name: str, cartan: CartanMatrix, positive_coroots: tuple[Coweight, ...]) -> None:
        keys = [(height(beta), beta) for beta in positive_coroots]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("positive_coroots are not strictly sorted by (height, lex)")
        units = sorted(tuple(int(k == i) for k in range(len(cartan))) for i in range(len(cartan)))
        if [beta for beta in positive_coroots if height(beta) == 1] != units:
            raise ValueError(f"the height-1 positive_coroots are not the {len(cartan)} unit vectors")
        super().__init__(name, cartan, positive_coroots)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def group_dimension(self) -> int:
        """dim G for the simply connected semisimple group of this type."""
        return self.rank + 2 * len(self.positive_coroots)

    def check_positive_coweight(self, theta: Sequence[int]) -> Coweight:
        """theta as an int tuple of length rank with every coordinate >= 0, else a ValueError."""
        return check_coweight(theta, len(self.cartan), "theta")


def positive_roots_of(matrix: CartanMatrix) -> list[tuple[int, ...]]:
    """All positive roots of a validated finite-type Cartan matrix.

    Reflection closure: start from the simple roots and repeatedly apply the
    simple reflections, keeping every image with nonnegative coordinates.
    Finite type guarantees a fixpoint.
    """
    n = len(matrix)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in matrix]  # at most four nonzero entries each
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[tuple[int, ...]] = []
        for beta in frontier:
            for i, row in enumerate(rows):
                pairing = sum(a * beta[j] for j, a in row)
                # the reflection changes only coordinate i; a zero pairing fixes beta
                if pairing and beta[i] >= pairing:
                    image = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
                    if image not in roots:
                        roots.add(image)
                        new.append(image)
        frontier = new
    return sorted(roots, key=lambda b: (height(b), b))


def _from_cartan(name: str, matrix: CartanMatrix) -> RootSystem:
    """The RootSystem of a validated matrix: its coroots are the positive roots of the transpose."""
    n = len(matrix)
    transpose = tuple(tuple(matrix[j][i] for j in range(n)) for i in range(n))
    return RootSystem(name, matrix, tuple(positive_roots_of(transpose)))


def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Construct the RootSystem for a spec, generating its positive coroots."""
    matrix = spec.cartan if spec.cartan is not None else series_cartan(spec.series, spec.rank)
    return _from_cartan(spec.name, matrix)


def root_system(series: str, rank: int) -> RootSystem:
    """Shorthand for building a recognized series."""
    return build_root_system(RootSystemSpec(series=series, rank=rank))


# ---------------------------------------------------------------------------
# Parabolics
# ---------------------------------------------------------------------------


class ParabolicType(Value):
    """A standard parabolic, encoded by its Levi vertices (0-based, so >= 0); ``ParabolicType()`` is the Borel."""

    __slots__ = ("levi_vertices",)

    def __init__(self, levi_vertices: Sequence[int] = ()) -> None:
        levi_vertices = tuple(levi_vertices)
        super().__init__(tuple(sorted(set(check_coweight(levi_vertices, len(levi_vertices), "Levi vertex list")))))

    def validate(self, rs: RootSystem) -> None:
        for v in self.levi_vertices:
            if v >= rs.rank:
                raise ValueError(f"Levi vertex {v} is out of range for rank {rs.rank}")


QuotientCoweight = tuple[int, ...]


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
    if type(bound) is not int or bound < 0:
        raise ValueError(f"height bound {bound!r} must be an integer >= 0")
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
        "labels": list(range(rs.rank)),
        "cartan": [list(row) for row in rs.cartan],
        "positive_coroots": [list(b) for b in rs.positive_coroots],
        "heights": [height(b) for b in rs.positive_coroots],
    }


def same_json(written: object, given: object) -> bool:
    """Whether given is exactly written: equal, and equal as JSON text, so 1.0 or True is not 1 and (1,) is not [1]."""
    return written == given and json.dumps(written, sort_keys=True) == json.dumps(given, sort_keys=True)


def root_system_from_json(obj: dict) -> RootSystem:
    """Rebuild a RootSystem from its finite-type matrix; ValueError unless ``root_system_to_json`` gives obj back."""
    try:
        validate_cartan_matrix(obj["cartan"])
        rs = _from_cartan(str(obj["name"]), tuple(tuple(row) for row in obj["cartan"]))
        exact = same_json(root_system_to_json(rs), obj)
    except (KeyError, TypeError) as exc:  # obj is not a dict, lacks a key, or holds a value JSON cannot write
        raise ValueError(f"root-system JSON lacks or mistypes a field: {exc!r}") from exc
    if not exact:
        raise ValueError(f"the labels, positive_coroots, heights or keys of {rs.name!r} differ from those"
                         " root_system_to_json writes for its matrix")
    return rs


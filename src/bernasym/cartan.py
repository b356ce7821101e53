"""Root-system engine for finite Cartan data.

Builds the positive coroots of a Cartan matrix (named series A-G or an
explicit matrix), refusing one not of finite type, computes heights, checks
every integer vector the library is handed (``check_coweight``), and holds
the one rule every JSON loader follows (``load_exact``).

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
from operator import sub
from typing import Callable, Iterable, Sequence, TypeVar

Coweight = tuple[int, ...]
CartanMatrix = tuple[tuple[int, ...], ...]
T = TypeVar("T")

MAX_RANK = 64  # the largest rank of a root system, named or explicit: A64 already has 2080 coroots
#: inclusive rank ranges for the recognized series
SERIES_RANK_RANGES: dict[str, tuple[int, int]] = {
    "A": (1, MAX_RANK),
    "B": (2, MAX_RANK),
    "C": (2, MAX_RANK),
    "D": (2, MAX_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def height(vector: Sequence[int]) -> int:
    """Sum of coordinates; equals the rho-pairing for coroot-lattice elements."""
    return sum(vector)


def check_count(value: int, what: str) -> None:
    """A ValueError naming what unless value's type is exactly int and value >= 0 (a rank or a bound)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} {value!r} must be an integer >= 0")


def check_coweight(theta: Sequence[int], length: int | None, what: str) -> Coweight:
    """theta as a tuple of ``length`` (None: any number of) coordinates, each of type exactly int and >= 0;
    else a ValueError naming what."""
    try:
        theta = tuple(theta)  # built-ins in one frame: every table checks each of its thetas here
    except TypeError:  # not iterable: 5 or None
        raise ValueError(f"{what} {theta!r} is not a sequence of integers") from None
    if length is not None and len(theta) != length:
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
    """Reject anything that is not a generalized Cartan matrix.

    Checks, in order: a nonempty list of at most ``MAX_RANK`` rows, squareness and integrality,
    2s on the diagonal, non-positive off-diagonal entries and the zero-symmetry
    a_ij = 0 <=> a_ji = 0.  Finite type is decided where the roots are
    generated: ``positive_roots_of`` refuses the rest as "not of finite type".
    """
    if not isinstance(matrix, (list, tuple)) or not matrix:
        raise ValueError(f"Cartan matrix is {matrix!r}, expected a nonempty list of rows")
    n = len(matrix)
    if n > MAX_RANK:
        raise ValueError(f"Cartan matrix has rank {n}; ranks up to {MAX_RANK} are supported")
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise ValueError(f"Cartan matrix row {i} is {row!r}, expected a list of {n} entries")
        for j, a in enumerate(row):
            if type(a) is not int:
                raise ValueError(f"Cartan matrix entry ({i},{j}) = {a!r} is not an integer")
    for i in range(n):
        if matrix[i][i] != 2:
            raise ValueError(f"Cartan matrix diagonal entry ({i},{i}) = {matrix[i][i]}, expected 2")
        for j in range(n):
            if i != j and matrix[i][j] > 0:
                raise ValueError(f"Cartan matrix off-diagonal entry ({i},{j}) = {matrix[i][j]} is positive")
            if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                raise ValueError(f"Cartan matrix entries ({i},{j}) and ({j},{i}) violate zero symmetry")


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
    chain = [(i, i + 1, -1, -1) for i in range(n - 1)]
    # Dynkin edges (i, j, a_ij, a_ji); the short end of a multiple bond is the vertex whose row holds -2 or -3
    edges = {
        "A": chain,
        "B": chain[:-1] + [(n - 2, n - 1, -1, -2)],  # vertex n-1 short
        "C": chain[:-1] + [(n - 2, n - 1, -2, -1)],  # vertex n-1 long, the others short
        "D": chain[:-1] + [(n - 3, n - 1, -1, -1)] if n > 2 else [],  # n-2 and n-1 fork from n-3; D2 has no edge
        "E": [(0, 2, -1, -1), (1, 3, -1, -1)] + chain[2:],  # 0 and 1 hang off the chain 2..n-1
        "F": [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)],  # vertices 2 and 3 short
        "G": [(0, 1, -3, -1)],  # vertex 0 short
    }[series]
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a_ij, a_ji in edges:
        m[i][j], m[j][i] = a_ij, a_ji
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
        if label is not None and type(label) is not str:  # it becomes the name that JSON writes and the hash reads
            raise ValueError(f"label {label!r} must be a string")
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

    ``positive_coroots`` are positive coweights of the rank, strictly sorted by (height, lexicographic
    coordinates), and the first ``rank`` are the unit vectors (the simple coroots); every route reads the
    simple coroots at that position and prunes by that order.
    """

    __slots__ = ("name", "cartan", "positive_coroots")

    def __init__(self, name: str, cartan: CartanMatrix, positive_coroots: Iterable[Sequence[int]]) -> None:
        rank = len(cartan)
        positive_coroots = tuple(check_coweight(beta, rank, "positive coroot") for beta in positive_coroots)
        keys = [(height(beta), beta) for beta in positive_coroots]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("positive_coroots are not strictly sorted by (height, lex)")
        if list(positive_coroots[:rank]) != sorted(tuple(int(k == i) for k in range(rank)) for i in range(rank)):
            raise ValueError(f"the first {rank} positive_coroots are not the {rank} unit vectors")
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
    """All positive roots of a generalized Cartan matrix of finite type; a ValueError "not of finite type" else.

    Reflection closure: from the simple roots, apply the simple reflections and keep every image with nonnegative
    coordinates.  The closure is the set of positive real roots, finite exactly when the matrix is of finite type
    (Kac, *Infinite-dimensional Lie algebras*, Prop. 4.9), and then at most 2n^2 at rank n, since a component of
    rank k has at most 2k^2 (k^2 for B_k and C_k, 120 for E8): a closure past 2n^2 roots is refused.
    """
    n = len(matrix)
    limit = 2 * n * n
    columns = [[(k, row[i]) for k, row in enumerate(matrix) if row[i]] for i in range(n)]
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    # each root's pairings with the simple coroots, row k of the matrix times the root; a simple root's is a column
    pairings = {alpha: tuple(row[i] for row in matrix) for i, alpha in enumerate(simple)}
    frontier = simple
    while frontier:
        new: list[tuple[int, ...]] = []
        for beta in frontier:
            beta_pairings = pairings[beta]
            for i, pairing in enumerate(beta_pairings):
                # the reflection changes only coordinate i, by the pairing; a zero pairing fixes beta
                if pairing and beta[i] >= pairing:
                    image = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
                    if image not in pairings:
                        image_pairings = list(beta_pairings)
                        for k, a in columns[i]:
                            image_pairings[k] -= pairing * a
                        pairings[image] = tuple(image_pairings)
                        new.append(image)
            if len(pairings) > limit:
                raise ValueError(f"Cartan matrix is not of finite type (more than 2n^2 = {limit} positive roots)")
        frontier = new
    return sorted(pairings, key=lambda b: (height(b), b))


def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Construct the RootSystem for a spec: its positive coroots are the positive roots of the transposed matrix."""
    matrix = spec.cartan if spec.cartan is not None else series_cartan(spec.series, spec.rank)
    return RootSystem(spec.name, matrix, positive_roots_of(tuple(zip(*matrix))))


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
        super().__init__(tuple(sorted(set(check_coweight(levi_vertices, None, "Levi vertex list")))))

    def quotient_rank(self, rs: RootSystem) -> int:
        """``rs.rank`` less the Levi vertices, each checked to be a vertex of ``rs``."""
        for v in self.levi_vertices:
            if v >= rs.rank:
                raise ValueError(f"Levi vertex {v} is out of range for rank {rs.rank}")
        return rs.rank - len(self.levi_vertices)


# ---------------------------------------------------------------------------
# Coweight enumeration
# ---------------------------------------------------------------------------


def height_region(rank: int, bound: int, box: Sequence[int] | None = None) -> list[Coweight]:
    """The positive coweights of height <= bound, only those in box (0 <= v <= box coordinatewise) when given,
    sorted by (height, lex); a rank or bound that is not an int >= 0, or a box that is not a coweight of that
    rank, is a ValueError.  Without a box each height is listed by stars and bars: a coweight of height h is the
    steps from 0 to h through its partial sums 0 <= s_1 <= ... <= s_(rank-1) <= h, listed in lex order."""
    check_count(rank, "rank")
    check_count(bound, "height bound")
    if box is None and rank:
        return [tuple(map(sub, (*cuts, h), (0, *cuts)))
                for h in range(bound + 1) for cuts in itertools.combinations_with_replacement(range(h + 1), rank - 1)]
    # theta's box, or rank 0, whose one coweight () is the empty box: its lex order, stably sorted by height
    box = () if box is None else check_coweight(box, rank, "box")
    return sorted((v for v in coordinate_box(box) if height(v) <= bound), key=height)


def coweights_up_to_height(rank: int, bound: int) -> list[Coweight]:
    """All positive coweights of height <= bound, sorted by (height, lex)."""
    return height_region(rank, bound)


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


def load_exact(data: object, build: Callable[[object], T], write: Callable[[T], object], what: str, writer: str) -> T:
    """The one loader rule: build(data), refused unless write gives data back, equal as values and as JSON text
    with sorted keys (so 1.0 or True is not 1 and (1,) is not [1]).  That refusal, a missing key and a value of the
    wrong JSON type are each a ValueError naming what and writer; build keeps the checks an echo cannot make."""
    try:
        value = build(data)
        written = write(value)
        exact = written == data and json.dumps(written, sort_keys=True) == json.dumps(data, sort_keys=True)
    except (KeyError, TypeError, AttributeError) as exc:  # data is not a dict or list, lacks a key, or mistypes one
        raise ValueError(f"{what} lacks or mistypes a field: {exc!r}") from exc
    if not exact:
        raise ValueError(f"{what} is not exactly what {writer} writes")
    return value


def root_system_from_json(obj: dict) -> RootSystem:
    """Rebuild a RootSystem from its name and matrix as the CLI does; ValueError unless ``load_exact`` passes it."""
    return load_exact(obj, lambda obj: build_root_system(RootSystemSpec(cartan=obj["cartan"], label=obj["name"])),
                      root_system_to_json, "root-system JSON", "root_system_to_json")

"""Finite-dimensional Hom-algebras given by structure constants.

A Hom-algebra is a vector space with a bilinear product ``mul`` and a linear
twisting map ``alpha``.  Both are stored sparsely over exact scalars:

* ``mu[(i, j)]`` lists the nonzero coordinates of ``e_i * e_j`` as
  ``(k, coeff)`` pairs;
* ``alpha[i]`` lists the nonzero coordinates of ``alpha(e_i)``;

pairs and rows with no nonzero coordinates are simply absent.  Coefficients
may involve the named parameters in ``params`` (for symbolically
parametrized families), and elements may have polynomial coordinates, which
is how generic (indeterminate-coordinate) elements are represented; the
registry names those indeterminates
(:meth:`homalt.proof_replay.IdentityInstance.arguments`).

The Hom-associator is ``(x, y, z) = (xy) alpha(z) - alpha(x) (yz)``; an
algebra is right Hom-alternative when ``(x, y, y) = 0`` and left
Hom-alternative when ``(x, x, y) = 0``.  Hom-powers follow
``x^n = x^(n-1) * alpha^(n-2)(x)``.  Each algebra keeps a table of twist
powers: ``twist_power(n)`` composes the rows of ``alpha^n`` once, from
``alpha^(n-1)``, and ``shift`` and :func:`homalt.operators.alpha_op` read it.
The operator calculus on an algebra, ``right_mul_op``, ``alpha_op``,
``compose``, ``op_sup`` and ``op_sub``, is a set of methods too: each
calls the function of its name in :mod:`homalt.operators`, looked up when
it runs, and imports that module on first use.

Two sparse kernels do all arithmetic on the tables: :func:`_add_product`
every bilinear product, reading ``mu`` through the index by left factor
that each algebra builds once, and :func:`_add_image` every linear image.
A linear map enters only as sparse rows, and a row table is normalized
once, by the constructor that stores it.  Structural checks evaluate
(multi)linearized forms on basis tuples, which is complete over a field of
characteristic zero, by two scans over the sparse tables: a pair scan of
``f(e_i e_j) = f(e_i) f(e_j)`` (multiplicativity is f = alpha, a weak
morphism any linear map f of A into itself, as the paper's twisting maps
and Yau twists are) and a triple scan of the linearized alternative law, which
is symmetric in slots 1-2 (right) or 0-1 (left) and so scans only triples
with that pair ordered.  Each reports the first failing tuple in
lexicographic order with the nonzero element there, which
:func:`replay_structural_witness` recomputes independently through ``mul``,
``twist_apply`` and ``hom_associator``.  A morphism is a weak morphism
whose rows also pass a table scan of ``f(alpha(e_i)) = alpha(f(e_i))``.
The three basis laws, right and left Hom-alternativity and
multiplicativity, are named once, in :data:`BASIS_LAWS`: a law's check id
is also its key as a hypothesis of a registry entry, and the table gives
the phrase a violated hypothesis is reported with and the name of the
law's scan.

The paper's corollary adds conditions on single elements, tested here
beside the Hom-power loop they share: :func:`is_hom_nilpotent` and
:func:`smallest_alpha_exponent` (the least twist that kills
``(a, a, b)^4``).  The text forms of elements live in :mod:`homalt.text`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, TypeVar

from .scalars import (
    Rational,
    Scalar,
    encode_scalar,
    encode_sparse,
    normalize,
    substitute,
)

if TYPE_CHECKING:
    from .operators import RightOp

SparseRow = tuple[tuple[int, Scalar], ...]
MuTable = dict[tuple[int, int], SparseRow]
RowTable = dict[int, SparseRow]
ByLeft = dict[int, dict[int, SparseRow]]  # mu indexed by left factor
K = TypeVar("K")  # a basis index, or a basis pair in ``mu``
RowsLike = Mapping[int, Iterable[tuple[int, Scalar]]]  # row i: the coordinates of f(e_i)

HOLDS = "holds"
FAILS = "fails"
RANDOM_PASS = "random-pass"


class _Record:
    """Plain record: equality and repr over the attributes named in
    ``_fields``, the parameters of the class's ``__init__`` after ``self``.
    Records compare equal only to records of the same class and are
    unhashable unless a subclass says otherwise."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Element(_Record):
    """Vector with exact scalar coordinates, written in a fixed basis.

    Immutable and hashable: ``__post_init__`` normalizes the coordinates
    once, and assigning to an element raises AttributeError.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Scalar, ...]) -> None:
        object.__setattr__(self, "coords", coords)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(normalize(c) for c in self.coords))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)

    def __add__(self, other: "Element") -> "Element":
        _same_dim(self, other)
        return Element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        _same_dim(self, other)
        return Element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(tuple(-c for c in self.coords))

    def scale(self, s: Scalar) -> "Element":
        return Element(tuple(s * c for c in self.coords))

    def substitute(self, assignment: Mapping[str, Rational]) -> "Element":
        return Element(tuple(substitute(c, assignment) for c in self.coords))

    def __str__(self) -> str:
        from .text import element_str

        return element_str(self)


def _same_dim(a, b) -> None:
    """Raise ValueError unless two elements, or two right operators, have one dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _norm_sparse_row(dim: int, row: Iterable[tuple[int, Scalar]], what: str) -> SparseRow:
    acc: dict[int, Scalar] = {}
    for k, c in row:
        if not 0 <= k < dim:
            raise ValueError(f"{what}: index {k} out of range for dimension {dim}")
        acc[k] = acc[k] + c if k in acc else c
    return tuple((k, normalize(c)) for k, c in sorted(acc.items()) if c != 0)


def _read_rows(rows: RowsLike, what: str = "linear map") -> dict[int, tuple]:
    """A linear map's sparse rows, read once and kept as given; a dense
    matrix, or any other form, raises TypeError."""
    if not isinstance(rows, Mapping):
        raise TypeError(f"{what}: expected sparse rows {{i: ((k, coeff), ...)}}, "
                        f"got {type(rows).__name__}")
    return {i: tuple(row) for i, row in rows.items()}


def normalize_rows(dim: int, rows: RowsLike, what: str = "linear map") -> RowTable:
    """Canonical row table of a linear map given as sparse rows (see
    :func:`_read_rows`): indices checked, repeats summed, scalars normalized."""
    out: RowTable = {}
    for i, row in _read_rows(rows, what).items():
        if not 0 <= i < dim:
            raise ValueError(f"{what}: row index {i} out of range for dimension {dim}")
        packed = _norm_sparse_row(dim, row, what)
        if packed:
            out[i] = packed
    return out


def _sparse(x: Element) -> SparseRow:
    """The nonzero coordinates of ``x`` as a sparse row."""
    return tuple((i, c) for i, c in enumerate(x.coords) if c != 0)


def _element(dim: int, acc: Mapping[int, Scalar]) -> Element:
    """The element with the coordinates accumulated in ``acc``."""
    return Element(tuple(acc.get(k, 0) for k in range(dim)))


def _add_image(acc: dict[int, Scalar], rows: Mapping[int, SparseRow], u: SparseRow) -> None:
    """``acc += f(u)`` for the linear map with sparse rows ``rows``: the one
    linear-image loop."""
    for a, ua in u:
        for k, c in rows.get(a, ()):
            acc[k] = acc.get(k, 0) + ua * c


def _image(rows: Mapping[int, SparseRow], u: SparseRow) -> SparseRow:
    """``f(u)`` for the linear map with sparse rows ``rows``, unnormalized."""
    acc: dict[int, Scalar] = {}
    _add_image(acc, rows, u)
    return tuple(acc.items())


def apply_rows(rows: RowTable, x: Element) -> Element:
    """Apply a linear map given as sparse rows: row i holds the image of e_i."""
    acc: dict[int, Scalar] = {}
    _add_image(acc, rows, _sparse(x))
    return _element(len(x.coords), acc)


def compose_rows(first: RowTable, then: RowTable) -> RowTable:
    """Row table of ``x -> then(first(x))``, unnormalized: the constructor
    that stores it normalizes it."""
    return {i: _image(then, row) for i, row in first.items()}


def substitute_rows(
    rows: Mapping[K, SparseRow], assignment: Mapping[str, Rational]
) -> dict[K, SparseRow]:
    """Instantiate parameters in a sparse table (twist rows or products),
    unnormalized: the constructor that stores it drops the zeros."""
    return {i: tuple((k, substitute(c, assignment)) for k, c in row) for i, row in rows.items()}


def identity_rows(dim: int) -> RowTable:
    return {i: ((i, 1),) for i in range(dim)}


def default_basis_names(dim: int) -> list[str]:
    """``e1 .. e<dim>``, the basis names of a document that gives none."""
    return [f"e{i + 1}" for i in range(dim)]


class HomAlgebra(_Record):
    """Hom-algebra with sparse structure constants and twisting map.

    Instances are treated as immutable: every operation returns fresh
    elements or fresh algebras, and the table of twist powers, the one
    table an algebra fills in after construction, only grows, by whole
    replacement.
    """

    def __init__(self, dim: int, mu: MuTable, alpha: RowsLike, params: Iterable[str] = ()) -> None:
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        self.mu: MuTable = {}
        self._left_mu: ByLeft = {}  # mu by left factor: _left_mu[i][j] is mu[(i, j)]
        for (i, j), row in mu.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product ({i},{j}): index out of range for dimension {dim}")
            packed = _norm_sparse_row(dim, row, f"product ({i},{j})")
            if packed:
                self.mu[(i, j)] = self._left_mu.setdefault(i, {})[j] = packed
        self.alpha = normalize_rows(dim, alpha, "twisting map")
        self.params = tuple(params)
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter names")
        self._twist_powers = [identity_rows(dim), self.alpha]

    # -- element constructors ----------------------------------------------

    def zero(self) -> Element:
        return Element((0,) * self.dim)

    def basis_element(self, i: int) -> Element:
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range for dimension {self.dim}")
        return Element(tuple(1 if k == i else 0 for k in range(self.dim)))

    def element(self, coords: Iterable[Scalar]) -> Element:
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(f"dimension mismatch: expected {self.dim} coordinates, got {len(coords)}")
        return Element(coords)

    def basis(self) -> list[Element]:
        return [self.basis_element(i) for i in range(self.dim)]

    # -- core operations ----------------------------------------------------

    def mul(self, x: Element, y: Element) -> Element:
        if x.dim != self.dim or y.dim != self.dim:
            raise ValueError("dimension mismatch between element and algebra")
        acc: dict[int, Scalar] = {}
        _add_product(acc, self._left_mu, _sparse(x), _sparse(y))
        return _element(self.dim, acc)

    def twist_apply(self, x: Element) -> Element:
        if x.dim != self.dim:
            raise ValueError("dimension mismatch between element and algebra")
        return apply_rows(self.alpha, x)

    def twist_power(self, n: int) -> RowTable:
        """Sparse rows of ``alpha^n`` (n >= 0), read-only.  Each power is
        composed once, from the one below it, into the algebra's table."""
        if n < 0:
            raise ValueError("twist exponent must be nonnegative")
        powers = self._twist_powers
        while len(powers) <= n:
            powers = powers + [normalize_rows(self.dim, compose_rows(powers[-1], self.alpha))]
            self._twist_powers = powers
        return powers[n]

    def shift(self, x: Element, n: int) -> Element:
        """``alpha^n(x)`` (n >= 0), read from :meth:`twist_power`."""
        rows = self.twist_power(n)
        if x.dim != self.dim:
            raise ValueError("dimension mismatch between element and algebra")
        return apply_rows(rows, x)

    def hom_associator(self, x: Element, y: Element, z: Element) -> Element:
        return self.mul(self.mul(x, y), self.twist_apply(z)) - self.mul(
            self.twist_apply(x), self.mul(y, z)
        )

    def commutator(self, x: Element, y: Element) -> Element:
        return self.mul(x, y) - self.mul(y, x)

    def hom_power(self, x: Element, n: int) -> Element:
        if n < 1:
            raise ValueError("Hom-power exponent must be at least 1")
        power = x
        for _, power in _hom_powers(self, x, n):
            pass
        return power

    def with_params(self, extra: Iterable[str]) -> "HomAlgebra":
        return HomAlgebra(self.dim, self.mu, self.alpha, self.params + tuple(extra))

    # -- the operator calculus: right operators on A ------------------------

    def right_mul_op(self, a: Element) -> RightOp:
        return _operators().right_mul_op(self, a)

    def alpha_op(self, n: int) -> RightOp:
        return _operators().alpha_op(self, n)

    def compose(self, *ops: RightOp) -> RightOp:
        return _operators().compose(*ops)

    def op_sup(self, a: Element, b: Element) -> RightOp:
        return _operators().op_sup(self, a, b)

    def op_sub(self, a: Element, b: Element) -> RightOp:
        return _operators().op_sub(self, a, b)


def _operators():
    """:mod:`homalt.operators`, loaded on first use, so element and
    structural calls never load it."""
    import homalt.operators as operators

    return operators


# -- reports ----------------------------------------------------------------


class Witness(_Record):
    """Replayable evidence for a failing check.

    Exactly one of ``basis`` (a tuple of basis indices) or ``point`` (an
    assignment of rationals to variable names) locates the failure; for
    operator identities ``probe`` is the basis index whose image row is
    nonzero, and for entries with several values ``pair_index`` selects the
    value.  ``element`` is the nonzero element observed there.
    """

    def __init__(self, element: Element, basis: tuple[int, ...] | None = None,
                 point: dict[str, Rational] | None = None, probe: int | None = None,
                 pair_index: int | None = None) -> None:
        self.element = element
        self.basis = basis
        self.point = point
        self.probe = probe
        self.pair_index = pair_index

    def to_dict(self) -> dict:
        out: dict = {"element": encode_sparse(self.element)}
        if self.basis is not None:
            out["basis"] = list(self.basis)
        if self.point is not None:
            out["point"] = {k: encode_scalar(v) for k, v in sorted(self.point.items())}
        if self.probe is not None:
            out["probe"] = self.probe
        if self.pair_index is not None:
            out["pair_index"] = self.pair_index
        return out


class CheckReport(_Record):
    """Outcome of one verification.

    ``holds`` and ``fails`` are exact statements about the strategy's
    coverage (all basis tuples, fully generic coordinates, or every small
    support pattern); ``random-pass`` records agreement at sampled integer
    points together with the sample size, seed, and a total-degree bound on
    the compared polynomials.
    """

    def __init__(self, check: str, status: str, strategy: str, points: int | None = None,
                 seed: int | None = None, degree_bound: int | None = None,
                 witness: Witness | None = None) -> None:
        self.check = check
        self.status = status
        self.strategy = strategy
        self.points = points
        self.seed = seed
        self.degree_bound = degree_bound
        self.witness = witness

    def passed(self) -> bool:
        return self.status in (HOLDS, RANDOM_PASS)

    def to_dict(self) -> dict:
        out: dict = {
            "id": self.check,
            "status": self.status,
            "strategy": self.strategy,
            "points": self.points,
            "seed": self.seed,
            "degree_bound": self.degree_bound,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


# -- structural checks -------------------------------------------------------


def _add_product(
    acc: dict[int, Scalar], by_left: ByLeft, u: SparseRow, v: SparseRow, negate: bool = False
) -> None:
    """``acc += u v`` (or ``-= u v``) for sparse vectors ``u`` and ``v``, with
    ``mu`` indexed by left factor: the one bilinear-product loop."""
    for a, ua in u:
        right = by_left.get(a)
        if right is None:
            continue
        for b, vb in v:
            row = right.get(b)
            if row is None:
                continue
            base = -(ua * vb) if negate else ua * vb
            for k, c in row:
                acc[k] = acc.get(k, 0) + base * c


def _add_associator(
    acc: dict[int, Scalar], A: HomAlgebra, by_left: ByLeft, i: int, j: int, k: int
) -> None:
    """``acc += (e_i, e_j, e_k) = (e_i e_j) alpha(e_k) - alpha(e_i) (e_j e_k)``."""
    _add_product(acc, by_left, A.mu.get((i, j), ()), A.alpha.get(k, ()))
    _add_product(acc, by_left, A.alpha.get(i, ()), A.mu.get((j, k), ()), negate=True)


def _first_failure(
    check_id: str,
    dim: int,
    values: Iterable[tuple[tuple[int, ...], dict[int, Scalar]]],
) -> CheckReport:
    """Report on the first basis tuple whose sparse value is nonzero."""
    for tup, value in values:
        if any(c != 0 for c in value.values()):
            witness = Witness(element=_element(dim, value), basis=tup)
            return CheckReport(check_id, FAILS, "basis", witness=witness)
    return CheckReport(check_id, HOLDS, "basis")


def _pair_scan(check_id: str, A: HomAlgebra, rows: RowTable) -> CheckReport:
    """Check ``f(e_i e_j) = f(e_i) f(e_j)`` on all basis pairs of A, where f
    has the sparse rows ``rows``."""
    def values():
        for i in range(A.dim):
            fi = rows.get(i, ())
            for j in range(A.dim):
                acc: dict[int, Scalar] = {}
                _add_image(acc, rows, A.mu.get((i, j), ()))
                _add_product(acc, A._left_mu, fi, rows.get(j, ()), negate=True)
                yield (i, j), acc

    return _first_failure(check_id, A.dim, values())


def _alternativity_scan(A: HomAlgebra, check_id: str) -> CheckReport:
    """Check the linearized alternative law ``check_id`` on basis triples:
    ``(x,y,z) + (x,z,y)`` for right-alt, ``(x,y,z) + (y,x,z)`` for left-alt.
    The form is symmetric in slots 1-2 or 0-1, so only triples with
    ``j <= k`` or ``i <= j`` are scanned; on a repeated pair the plain
    Hom-associator is reported."""
    by_left = A._left_mu
    left = check_id == "left-alt"

    def values():
        for i in range(A.dim):
            for j in range(i if left else 0, A.dim):
                for k in range(0 if left else j, A.dim):
                    acc: dict[int, Scalar] = {}
                    _add_associator(acc, A, by_left, i, j, k)
                    if left:
                        if i != j:
                            _add_associator(acc, A, by_left, j, i, k)
                    elif j != k:
                        _add_associator(acc, A, by_left, i, k, j)
                    yield (i, j, k), acc

    return _first_failure(check_id, A.dim, values())


def is_multiplicative(A: HomAlgebra) -> CheckReport:
    """Does the twisting map preserve products on all basis pairs?"""
    return _pair_scan("multiplicative", A, A.alpha)


def is_right_hom_alternative(A: HomAlgebra) -> CheckReport:
    """Check ``(x, y, y) = 0`` on basis triples (see :func:`_alternativity_scan`)."""
    return _alternativity_scan(A, "right-alt")


def is_left_hom_alternative(A: HomAlgebra) -> CheckReport:
    """Check ``(x, x, y) = 0`` on basis triples (see :func:`_alternativity_scan`)."""
    return _alternativity_scan(A, "left-alt")


# The basis laws of A, by check id, which is also the key of the law as a
# hypothesis in an entry's ``requires``: the phrase a PreconditionError
# completes ("algebra is not ...") and the name of the law's scan, which
# each caller looks up among its own module-level names when it runs.
BASIS_LAWS = {
    "right-alt": ("right Hom-alternative", "is_right_hom_alternative"),
    "left-alt": ("left Hom-alternative", "is_left_hom_alternative"),
    "multiplicative": ("multiplicative", "is_multiplicative"),
}


def is_weak_morphism(A: HomAlgebra, f: RowsLike) -> CheckReport:
    """Does the linear map ``f`` of A into itself preserve products on all
    basis pairs?"""
    return _pair_scan("weak-morphism", A, normalize_rows(A.dim, f))


def is_morphism(A: HomAlgebra, f: RowsLike) -> CheckReport:
    """Weak morphism of A into itself that also commutes with the twisting
    map: ``f(alpha(e_i)) = alpha(f(e_i))`` on every basis index.  ``f`` is
    read once and normalized once, by :func:`is_weak_morphism`; the twist
    scan reads the rows as given."""
    rows = _read_rows(f)
    report = is_weak_morphism(A, rows)
    if report.status == FAILS:
        return CheckReport("morphism", FAILS, "basis", witness=report.witness)

    def values():
        for i in range(A.dim):
            acc: dict[int, Scalar] = {}
            _add_image(acc, rows, A.alpha.get(i, ()))
            _add_image(acc, A.alpha, tuple((a, -c) for a, c in rows.get(i, ())))
            yield (i,), acc

    return _first_failure("morphism", A.dim, values())


def replay_structural_witness(
    A: HomAlgebra, report: CheckReport, f: RowsLike | None = None
) -> Element:
    """Recompute the element a failing structural report points at, through
    ``mul``, ``twist_apply`` and ``hom_associator`` on basis elements,
    independently of the scans.  A (weak-)morphism report needs its map
    ``f``; a multiplicative report is replayed as a weak-morphism report of
    alpha."""
    if report.witness is None or report.witness.basis is None:
        raise ValueError("report carries no basis witness")
    tup = report.witness.basis
    e = A.basis_element
    if report.check in ("right-alt", "left-alt"):
        i, j, k = tup
        swapped = (j, i, k) if report.check == "left-alt" else (i, k, j)
        value = A.hom_associator(e(i), e(j), e(k))
        if swapped != (i, j, k):
            value = value + A.hom_associator(*map(e, swapped))
        return value
    if report.check == "multiplicative":
        f = A.alpha
    elif report.check not in ("weak-morphism", "morphism"):
        raise ValueError(f"unknown structural check {report.check!r}")
    elif f is None:
        raise ValueError("replaying a morphism report needs the map")
    rows = normalize_rows(A.dim, f)
    if len(tup) == 1:
        x = e(tup[0])
        return apply_rows(rows, A.twist_apply(x)) - A.twist_apply(apply_rows(rows, x))
    x, y = map(e, tup)
    return apply_rows(rows, A.mul(x, y)) - A.mul(apply_rows(rows, x), apply_rows(rows, y))


# -- constructions ------------------------------------------------------------


def yau_twist(A: HomAlgebra, beta: RowsLike) -> HomAlgebra:
    """Twist of A by a weak morphism: product ``beta(xy)``, twist ``beta . alpha``.

    ``beta`` is read once, then checked by :func:`is_weak_morphism`, which
    normalizes it (a ValueError when it is not a weak morphism); the twist
    is built from the rows as given, since the constructor normalizes them.
    """
    rows = _read_rows(beta)
    report = is_weak_morphism(A, rows)
    if not report.passed():
        pair = report.witness.basis
        raise ValueError(f"twisting map is not a weak morphism (first failing pair {pair})")
    new_mu = {key: _image(rows, row) for key, row in A.mu.items()}
    return HomAlgebra(A.dim, new_mu, compose_rows(A.alpha, rows), A.params)


def substitute_params(A: HomAlgebra, assignment: Mapping[str, Rational]) -> HomAlgebra:
    """Instantiate named parameters with rational values.  An empty
    assignment returns ``A`` itself, so its table of twist powers is reused."""
    unknown = set(assignment) - set(A.params)
    if unknown:
        raise ValueError(f"unknown parameters: {sorted(unknown)}")
    if not assignment:
        return A
    mu = substitute_rows(A.mu, assignment)
    alpha = substitute_rows(A.alpha, assignment)
    params = tuple(p for p in A.params if p not in assignment)
    return HomAlgebra(A.dim, mu, alpha, params)


# -- Hom-powers and element tests ----------------------------------------------


def _hom_powers(A: HomAlgebra, x: Element, n: int) -> Iterator[tuple[int, Element]]:
    """``(m, x^m)`` for ``m = 2 .. n``, ending after the first zero power;
    ``alpha^(m-2)(x)`` is carried along, so alpha is applied ``n - 2`` times.
    An element of another dimension raises ValueError on the first step,
    also when ``n < 2``."""
    if x.dim != A.dim:
        raise ValueError("dimension mismatch between element and algebra")
    power, shifted = x, x
    for m in range(2, n + 1):
        if m > 2:
            shifted = A.twist_apply(shifted)
        power = A.mul(power, shifted)
        yield m, power
        if power.is_zero():
            return


def is_hom_nilpotent(A: HomAlgebra, x: Element, nmax: int) -> int | None:
    """Least ``2 <= n <= nmax`` with ``x^n = 0`` for nonzero x, else None."""
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    for n, power in _hom_powers(A, x, nmax):
        if power.is_zero():
            return None if x.is_zero() else n
    return None


def smallest_alpha_exponent(
    A: HomAlgebra, a: Element, b: Element, max_m: int = 6
) -> int | None:
    """Least ``0 <= m <= max_m`` with ``alpha^m((a,a,b)^4) = 0``, else None."""
    q = A.hom_power(A.hom_associator(a, a, b), 4)
    for m in range(max_m + 1):
        if A.shift(q, m).is_zero():
            return m
    return None

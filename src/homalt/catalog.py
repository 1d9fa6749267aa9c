"""Built-in algebras: Mikheev's 13-dimensional right alternative algebra and
its twisted family.

``mikheev_algebra`` is the classical example of a right alternative algebra
with a nonzero fourth power of an associator-like element; its 26 nonzero
basis products are hard-coded below (indices are 1-based in the table and
shifted to 0-based at build time).  ``mikheev_morphism`` is the two-parameter
diagonal algebra morphism scaling the two generators by ``lambda`` and
``xi``, and ``mikheev_family`` is the twist of the base algebra along it,
which is multiplicative and right Hom-alternative for every parameter
choice.
"""

from __future__ import annotations

from fractions import Fraction

from .homalgebra import HomAlgebra, MuTable, RowTable, _Record, identity_rows, yau_twist
from .scalars import Poly, Rational, Scalar

# Nonzero basis products, 1-based: (i, j) -> coordinates of e_i e_j.
_TABLE: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
    (1, 1): ((3, 1),),
    (1, 2): ((4, 1),),
    (1, 3): ((5, 1),),
    (1, 4): ((8, 1),),
    (1, 6): ((9, 1),),
    (1, 7): ((12, 1),),
    (1, 9): ((12, 1),),
    (1, 10): ((11, 1),),
    (2, 1): ((6, 1),),
    (2, 3): ((10, 1),),
    (3, 1): ((5, 1),),
    (3, 2): ((7, 1),),
    (3, 6): ((11, 1), (12, 1)),
    (4, 1): ((7, -1), (8, 1), (9, 1)),
    (5, 2): ((11, 1), (12, 1)),
    (6, 1): ((10, 1),),
    (8, 7): ((13, 1),),
    (8, 9): ((13, 1),),
    (8, 10): ((13, -1),),
    (9, 7): ((13, -1),),
    (9, 9): ((13, -1),),
    (9, 10): ((13, 1),),
    (11, 4): ((13, 1),),
    (11, 6): ((13, -1),),
    (12, 4): ((13, -1),),
    (12, 6): ((13, 1),),
}

# Diagonal eigenvalue exponents (r, s): basis vector i scales by lambda^r xi^s.
_EIGEN_EXPONENTS: tuple[tuple[int, int], ...] = (
    (1, 0),  # e1
    (0, 1),  # e2
    (2, 0),  # e3
    (1, 1),  # e4
    (3, 0),  # e5
    (1, 1),  # e6
    (2, 1),  # e7
    (2, 1),  # e8
    (2, 1),  # e9
    (2, 1),  # e10
    (3, 1),  # e11
    (3, 1),  # e12
    (4, 2),  # e13
)

DIM = 13


class FamilyParams(_Record):
    """Parameter pair for the twisted family, rational or symbolic.
    Degenerate pairs (a parameter zero, or both equal) are allowed."""

    def __init__(self, lam: Scalar, xi: Scalar) -> None:
        self.lam = lam
        self.xi = xi

    @classmethod
    def symbolic(cls) -> "FamilyParams":
        return cls(Poly.variable("lambda"), Poly.variable("xi"))

    @classmethod
    def rational(cls, lam: Rational, xi: Rational) -> "FamilyParams":
        return cls(Fraction(lam), Fraction(xi))

    def names(self) -> tuple[str, ...]:
        out: list[str] = []
        for value in (self.lam, self.xi):
            if isinstance(value, Poly):
                for name in sorted(value.variables()):
                    if name not in out:
                        out.append(name)
        return tuple(out)


def mikheev_algebra() -> HomAlgebra:
    """The 13-dimensional right alternative algebra with identity twist."""
    mu: MuTable = {
        (i - 1, j - 1): tuple((k - 1, c) for k, c in row)
        for (i, j), row in _TABLE.items()
    }
    return HomAlgebra(DIM, mu, identity_rows(DIM))


def mikheev_morphism(params: FamilyParams) -> RowTable:
    """Diagonal algebra morphism with eigenvalues lambda^r xi^s per basis
    vector; an algebra morphism of the base algebra for any parameters."""
    rows: RowTable = {}
    for i, (r, s) in enumerate(_EIGEN_EXPONENTS):
        value = params.lam**r * params.xi**s
        if value != 0:
            rows[i] = ((i, value),)
    return rows


def mikheev_family(params: FamilyParams) -> HomAlgebra:
    """Twist of the base algebra along the diagonal morphism."""
    base = mikheev_algebra().with_params(params.names())
    return yau_twist(base, mikheev_morphism(params))


def _power_values(lam: Fraction, xi: Fraction) -> set[Fraction]:
    return {lam**r * xi**s for r in range(5) for s in range(3)}


def family_nonisomorphism_condition(
    lam: Rational, xi: Rational, lam2: Rational, xi2: Rational
) -> bool:
    """Sufficient condition for the twisted algebras at ``(lam, xi)`` and
    ``(lam2, xi2)`` to be non-isomorphic.

    True when at least one parameter of either pair avoids every value
    ``other_lam^r * other_xi^s`` with ``0 <= r <= 4`` and ``0 <= s <= 2``.
    All four parameters must be nonzero rationals.
    """
    values = [Fraction(v) for v in (lam, xi, lam2, xi2)]
    if any(v == 0 for v in values):
        raise ValueError("parameters must be nonzero")
    l1, x1, l2, x2 = values
    first = _power_values(l2, x2)
    second = _power_values(l1, x1)
    return l1 not in first or x1 not in first or l2 not in second or x2 not in second


def _rational_diagonal(A: HomAlgebra, which: str) -> list[Fraction]:
    diag: list[Fraction] = []
    for i in range(A.dim):
        row = A.alpha.get(i, ())
        if len(row) > 1 or (row and row[0][0] != i):
            raise ValueError(f"unsupported: twisting map of {which} is not diagonal")
        value: Scalar = row[0][1] if row else 0
        if isinstance(value, Poly):
            raise ValueError(f"unsupported: twisting map of {which} has symbolic entries")
        diag.append(Fraction(value))
    return diag


def spectrum_certificate(A: HomAlgebra, B: HomAlgebra) -> bool:
    """True when the diagonal twist spectra differ as multisets, which rules
    out any isomorphism intertwining the twisting maps.  Both twisting maps
    must be diagonal with rational entries."""
    if A.dim != B.dim:
        return True
    return sorted(_rational_diagonal(A, "first algebra")) != sorted(
        _rational_diagonal(B, "second algebra")
    )

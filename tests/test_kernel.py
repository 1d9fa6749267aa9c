"""The two sparse kernels against the loops they replaced, and their work.

``HomAlgebra.mul``, ``right_mul_op`` and ``apply_rows`` each walked their
tables in a loop of their own.  They now go through
``homalgebra._add_product`` (bilinear products, reading ``mu`` through the
index by left factor that each algebra builds once) and
``homalgebra._add_image`` (linear images).  The old loops are kept below as
reference implementations.  The work is pinned too: scans and products read
the one index, and each stored row table is normalized once.
"""

import random
from fractions import Fraction

import pytest

import homalt.operators
from homalt import homalgebra
from homalt.catalog import FamilyParams, mikheev_family, mikheev_morphism
from homalt.homalgebra import (
    Element,
    HomAlgebra,
    apply_rows,
    identity_rows,
    is_multiplicative,
    is_right_hom_alternative,
    is_weak_morphism,
    yau_twist,
)
from homalt.operators import RightOp, compose, right_mul_op
from homalt.scalars import Poly
from homalt.homalgebra import is_left_hom_alternative, is_morphism
from test_metamorphic import change_basis, unimodular
from test_subset import KINDS, random_algebra


# --- the loops the kernels replaced ---

def reference_mul(A, x, y):
    acc = [0] * A.dim
    xs, ys = x.coords, y.coords
    for (i, j), row in A.mu.items():
        xi = xs[i]
        if xi == 0:
            continue
        yj = ys[j]
        if yj == 0:
            continue
        base = xi * yj
        for k, c in row:
            acc[k] = acc[k] + base * c
    return Element(tuple(acc))


def reference_right_mul_op(A, a):
    acc = {}
    for (i, j), row in A.mu.items():
        aj = a.coords[j]
        if aj == 0:
            continue
        dest = acc.setdefault(i, {})
        for k, c in row:
            dest[k] = dest.get(k, 0) + c * aj
    return RightOp(A.dim, {i: tuple(r.items()) for i, r in acc.items()})


def reference_apply_rows(rows, x):
    acc = [0] * len(x.coords)
    for i, row in rows.items():
        xi = x.coords[i]
        if xi == 0:
            continue
        for k, c in row:
            acc[k] = acc[k] + xi * c
    return Element(tuple(acc))


# --- inputs ---

def _algebras():
    out = [(f"{kind}/{seed}", random_algebra(seed, kind)) for kind in KINDS for seed in range(6)]
    fam23 = mikheev_family(FamilyParams.rational(2, 3))
    out.append(("A(2, 3), 10 row operations", change_basis(fam23, *unimodular(13, 10, 0))))
    return out


def _elements(A, seed):
    """Generic elements, generic ones with zero coordinates, seeded integer
    and Fraction ones with zeros, a basis element and zero."""
    rng = random.Random(seed)
    n = A.dim
    generic = [Element(tuple(Poly.variable(f"{p}_{i + 1}") for i in range(n))) for p in "xy"]
    holes = [Element(tuple(Poly.variable(f"z_{i + 1}") if rng.random() < 0.5 else 0
                           for i in range(n))) for _ in range(2)]
    numbers = [Element(tuple(rng.choice([0, 0, 1, -2, Fraction(3, 2)]) for _ in range(n)))
               for _ in range(3)]
    return generic + holes + numbers + [A.basis_element(n - 1), A.zero()]


CASES = _algebras()


@pytest.mark.parametrize("label, A", CASES, ids=[label for label, _ in CASES])
def test_kernels_match_the_replaced_loops(label, A):
    xs = _elements(A, label)
    maps = [A.alpha, A.twist_power(2), identity_rows(A.dim),
            {i: ((A.dim - 1 - i, Fraction(1, 2)), (0, -1)) for i in range(A.dim)}]
    for a in xs:
        assert right_mul_op(A, a) == reference_right_mul_op(A, a)
        for rows in maps:
            assert apply_rows(rows, a) == reference_apply_rows(rows, a)
        for b in xs:
            assert A.mul(a, b) == reference_mul(A, a, b)


def test_cases_cover_every_coefficient_kind():
    kinds = set()
    for _, A in CASES:
        for row in A.mu.values():
            kinds.update(type(c) for _, c in row)
    assert kinds == {int, Fraction, Poly}


# --- work ---

def test_products_read_the_index_built_with_the_algebra(monkeypatch, mikheev):
    A = HomAlgebra(mikheev.dim, mikheev.mu, mikheev.alpha)
    index = A._left_mu
    assert index == {i: {j: row for (l, j), row in A.mu.items() if l == i}
                     for i in {i for i, _ in A.mu}}
    seen = []
    add_product, image = homalgebra._add_product, homalt.operators._image

    def recording_product(acc, by_left, *args, **kwargs):
        seen.append(by_left)
        add_product(acc, by_left, *args, **kwargs)

    def recording_image(rows, u):
        seen.append(rows)
        return image(rows, u)

    monkeypatch.setattr(homalgebra, "_add_product", recording_product)
    monkeypatch.setattr(homalt.operators, "_image", recording_image)
    e = A.basis()
    A.mul(e[0], e[1])
    for scan in (is_right_hom_alternative, is_left_hom_alternative, is_multiplicative):
        scan(A)
    is_weak_morphism(A, identity_rows(A.dim))
    assert len(seen) > 13**3 and all(by_left is index for by_left in seen)
    seen.clear()
    right_mul_op(A, e[0] + e[1])
    assert seen and all(any(rows is left for left in index.values()) for rows in seen)
    assert A._left_mu is index


@pytest.fixture
def normalized(monkeypatch):
    """The values ``scalars.normalize`` is called on through homalgebra."""
    calls = []
    normalize = homalgebra.normalize

    def counting(c):
        calls.append(c)
        return normalize(c)

    monkeypatch.setattr(homalgebra, "normalize", counting)
    return calls


def _entries(op):
    return sum(len(row) for row in op.rows.values())


def test_compose_normalizes_each_entry_once(normalized):
    # Positive entries: nothing cancels in the product, so every
    # accumulated entry is stored.  In the difference, entry (1, 1) cancels
    # and is neither normalized nor stored.
    half = Fraction(1, 2)
    M = RightOp(3, {0: ((0, half), (1, 2)), 1: ((1, 1), (2, 3)), 2: ((0, 4), (2, half))})
    N = RightOp(3, {0: ((0, 2), (2, 1)), 1: ((0, 1), (1, 1)), 2: ((1, 5), (2, 2))})
    normalized.clear()
    MN = compose(M, N)
    assert len(normalized) == _entries(MN) == 9
    assert MN.entry(2, 2) == 5 and type(MN.entry(2, 2)) is int  # 4 * 1 + 1/2 * 2
    normalized.clear()
    difference = M - N
    assert len(normalized) == _entries(difference) == 8


def test_normalizing_canonical_tables_adds_nothing(monkeypatch, fam_sym):
    # Each index is stored once per row and a Poly is canonical from its
    # constructor, so rebuilding the twisted family from its own tables
    # makes no Poly addition and keeps every Poly as it is.
    added = []
    add = Poly.__add__

    def counting(self, other):
        added.append(other)
        return add(self, other)

    monkeypatch.setattr(Poly, "__add__", counting)
    monkeypatch.setattr(Poly, "__radd__", counting)
    B = HomAlgebra(fam_sym.dim, fam_sym.mu, fam_sym.alpha, fam_sym.params)
    assert added == []
    for old, new in ((fam_sym.mu, B.mu), (fam_sym.alpha, B.alpha)):
        assert new == old
        assert all(c is d for key, row in old.items() for (_, c), (_, d) in zip(row, new[key]))
    # A sum or difference of operators with disjoint entries only places
    # (or negates) each entry: the constructor sums where rows overlap.
    lam = Poly.variable("lambda")
    M = RightOp(2, {0: ((0, lam),)})
    N = RightOp(2, {0: ((1, lam),), 1: ((0, lam),)})
    assert (M + N).rows == {0: ((0, lam), (1, lam)), 1: ((0, lam),)}
    assert (M - N).rows == {0: ((0, lam), (1, -lam)), 1: ((0, -lam),)}
    assert added == []


def test_yau_twist_normalizes_each_table_once(normalized, mikheev):
    # The weak-morphism check scans the rows normalized for the twist.
    beta = mikheev_morphism(FamilyParams.rational(2, 3))
    normalized.clear()
    B = yau_twist(mikheev, beta)
    stored = sum(map(len, B.mu.values())) + sum(map(len, B.alpha.values()))
    assert len(normalized) == len(beta) + stored


def test_is_morphism_normalizes_each_entry_once(normalized, mikheev):
    # The weak-morphism check normalizes the map; the twist scan reads the
    # rows as given.
    beta = mikheev_morphism(FamilyParams.rational(2, 3))
    normalized.clear()
    assert is_morphism(mikheev, beta).status == "holds"
    assert len(normalized) == sum(map(len, beta.values())) == 13

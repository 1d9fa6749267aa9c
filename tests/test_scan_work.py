"""Work counts of the structural scans on algebras where every check holds.

A holding scan visits every tuple it does not skip, so the counts are
exact: the alternativity scans visit the n^2(n+1)/2 triples with their
symmetric pair ordered and evaluate each of the n^3 Hom-associators once,
and the pair scans visit all n^2 pairs.  ``tests/test_scans.py`` compares
the results of the scans; this file pins the work they do.
"""

import itertools

import pytest

from homalt import homalgebra
from homalt.homalgebra import (
    HOLDS,
    identity_rows,
    is_multiplicative,
    is_right_hom_alternative,
    is_weak_morphism,
)
from homalt.homalgebra import is_left_hom_alternative


@pytest.fixture
def work(monkeypatch):
    """Record the tuples a scan visits and the associators it evaluates."""
    visited, associators = [], []
    first_failure, add_associator = homalgebra._first_failure, homalgebra._add_associator

    def recording_first_failure(check_id, dim, values):
        def seen():
            for tup, value in values:
                visited.append(tup)
                yield tup, value
        return first_failure(check_id, dim, seen())

    def counting_add_associator(acc, A, by_left, i, j, k):
        associators.append((i, j, k))
        add_associator(acc, A, by_left, i, j, k)

    monkeypatch.setattr(homalgebra, "_first_failure", recording_first_failure)
    monkeypatch.setattr(homalgebra, "_add_associator", counting_add_associator)
    return visited, associators


def _triples(n, keep):
    return [t for t in itertools.product(range(n), repeat=3) if keep(*t)]


@pytest.mark.parametrize("scan, keep", [
    (is_right_hom_alternative, lambda i, j, k: j <= k),
    (is_left_hom_alternative, lambda i, j, k: i <= j),
])
def test_alternativity_scans_visit_half_the_triples(work, upper_triangular, scan, keep):
    visited, associators = work
    assert scan(upper_triangular).status == HOLDS
    assert visited == _triples(3, keep)  # lexicographic order
    assert len(visited) == 3**2 * 4 // 2 == 18
    assert sorted(associators) == _triples(3, lambda i, j, k: True)


def test_right_alt_scan_work_at_dim_13(work, mikheev):
    visited, associators = work
    assert is_right_hom_alternative(mikheev).status == HOLDS
    assert len(visited) == 13**2 * 14 // 2 == 1183
    assert len(associators) == 13**3 == 2197
    assert len(set(associators)) == 2197


@pytest.mark.parametrize("name", ["upper_triangular", "mikheev"])
def test_pair_scans_visit_every_pair(work, request, name):
    A = request.getfixturevalue(name)
    visited, associators = work
    pairs = list(itertools.product(range(A.dim), repeat=2))
    assert is_multiplicative(A).status == HOLDS
    assert visited == pairs
    visited.clear()
    assert is_weak_morphism(A, identity_rows(A.dim)).status == HOLDS
    assert visited == pairs
    assert associators == []

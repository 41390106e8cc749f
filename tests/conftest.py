"""Fixtures shared by the test modules."""

import pytest

from morphring import FiniteRing, check_ring_axioms


@pytest.fixture
def assert_refused():
    """``assert_refused(ring, patches)``: ``FiniteRing`` on ``ring``'s tables, ``patches``
    written into the multiplication, raises with ``check_ring_axioms``' axiom and witness."""
    def refused(ring, patches):
        mul = ring.mul_table.copy()
        for entry, value in patches.items():
            mul[entry] = value
        axioms = check_ring_axioms(ring.add_table, mul, ring.zero, ring.one)
        assert not axioms.ok
        with pytest.raises(ValueError) as error:
            FiniteRing(ring.order, ring.add_table, mul, ring.zero, ring.one, ring.labels)
        assert str(error.value) == f"tables violate ring axiom {axioms.axiom} at {axioms.witness}"
    return refused

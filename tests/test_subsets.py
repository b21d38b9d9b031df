"""Mask invariants and the canonical search order."""

import pytest

from detsum import SubsetMask, masks_in_search_order, masks_of_cardinality
from detsum.fuzz import run_suite


def test_mask_validation():
    with pytest.raises(ValueError):
        SubsetMask(0b100, 2)  # bit outside the family
    with pytest.raises(ValueError):
        SubsetMask(0, 65)
    with pytest.raises(ValueError):
        SubsetMask.from_indices(3, [3])


def test_mask_basics():
    mask = SubsetMask.from_indices(5, [0, 3])
    assert mask.cardinality() == 2
    assert list(mask) == [0, 3]
    assert 3 in mask and 1 not in mask
    assert mask == SubsetMask(0b01001, 5)
    assert SubsetMask.full(3).is_full()
    assert SubsetMask.empty(3).is_empty()
    assert len(SubsetMask.full(4)) == 4


def test_masks_of_cardinality_ascend_numerically():
    for m in range(1, 8):
        for k in range(m + 1):
            masks = list(masks_of_cardinality(m, k))
            assert masks == sorted(masks)
            assert all(mask.bit_count() == k for mask in masks)
            assert len(masks) == _choose(m, k)


def _choose(m, k):
    import math

    return math.comb(m, k)


def test_search_order_is_cardinality_then_value():
    order = list(masks_in_search_order(4))
    keys = [(mask.bit_count(), mask) for mask in order]
    assert keys == sorted(keys)
    assert len(order) == 15  # nonempty subsets only
    assert list(masks_in_search_order(4, include_empty=True))[0] == 0


def test_search_order_respects_bound():
    order = list(masks_in_search_order(5, max_cardinality=2))
    assert all(mask.bit_count() <= 2 for mask in order)
    assert len(order) == 5 + 10


def test_pair_order_prefers_smaller_mask_value():
    # {1, 2} (value 6) must come before {0, 3} (value 9).
    pairs = list(masks_of_cardinality(4, 2))
    assert pairs.index(0b0110) < pairs.index(0b1001)


def test_subset_walks_suite():
    # m = 1..10 over the seven alt-sum rings and IntPolyRing(2), every bound.
    result = run_suite("subset-walks", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure


def test_superset_sign_sums_suite():
    # Random m <= 12 and size <= 4: the counted c(T) against the Gray walk, a
    # direct count over the supersets and monomial_coefficient_check.
    result = run_suite("superset-sign-sums", seed=0)
    assert result.checks > 0 and result.failures == 0, result.first_failure

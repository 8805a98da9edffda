"""The transcribed k <= 9 reference catalog."""
from __future__ import annotations

from itertools import permutations

import pytest

from permniven.catalogs import GROUP_CORES, NN2_VALUES
from permniven.digits import DigitMultiset, _parse_runs, expand
from permniven.families import catalog
from permniven.orbits import is_pinn_criterion

# The printed tables omit 6 classes at k=6 and 7 at k=9 that a fresh
# search finds (pinned in acceptance criterion 4); these are the sizes of
# the stored tables themselves.
STORED_SIZES = {1: 9, 2: 16, 3: 33, 4: 45, 5: 58, 6: 67, 7: 74, 8: 78, 9: 87}

GROUP_SIZES = (9, 7, 9, 8, 12, 13, 9, 7, 4, 9)
# Digits per core in each group (cores within a group share their length).
GROUP_CORE_LENGTH = (1, 2, 3, 3, 4, 5, 6, 7, 8, 9)


def catalog_class_set(k: int) -> set[DigitMultiset]:
    return {m for inst in catalog(k) for m in inst.members}


def test_group_shape():
    assert len(GROUP_CORES) == len(GROUP_CORE_LENGTH) == 10
    assert tuple(len(g) for g in GROUP_CORES) == GROUP_SIZES
    for cores, length in zip(GROUP_CORES, GROUP_CORE_LENGTH):
        for core in cores:
            digits = expand(_parse_runs(core))
            assert len(digits) == length
            assert "0" not in digits  # cores are zero-free; padding adds zeros


def test_group_ids_grow_with_k():
    def group_ids(k):
        return tuple(inst.template_id for inst in catalog(k))

    assert group_ids(1) == ("N11",)
    assert group_ids(4) == ("N41", "N42", "N43", "N44", "N45")
    assert group_ids(9) == tuple(f"N9{i}" for i in range(1, 11))


@pytest.mark.parametrize("k", range(1, 10))
def test_catalog_sizes_and_membership(k):
    classes = catalog_class_set(k)
    assert len(classes) == STORED_SIZES[k]
    for m in classes:
        assert m.k == k
        assert is_pinn_criterion(m)[0], m.canonical


@pytest.mark.parametrize("k", range(1, 10))
def test_groups_partition_the_catalog(k):
    groups = catalog(k)
    n_fitting = sum(1 for length in GROUP_CORE_LENGTH if length <= k)
    assert [inst.template_id for inst in groups] == [
        f"N{k}{i}" for i in range(1, n_fitting + 1)
    ]
    seen: set[DigitMultiset] = set()
    for inst in groups:
        assert seen.isdisjoint(inst.members)
        seen.update(inst.members)
    assert seen == catalog_class_set(k)


def test_two_digit_values_are_the_transcribed_list():
    assert len(NN2_VALUES) == 23
    assert list(NN2_VALUES) == sorted(NN2_VALUES)
    # brute force: a two-digit PINN and every digit rearrangement is Niven
    brute = []
    for n in range(10, 100):
        digits = [int(c) for c in str(n)]
        s = sum(digits)
        if all(
            int("".join(map(str, p))) % s == 0 for p in permutations(digits)
        ):
            brute.append(n)
    assert list(NN2_VALUES) == brute


def test_catalog_members_padded_from_cores():
    # Every member of group i at width k is its core plus k - len(core) zeros.
    for k in (3, 5, 9):
        for inst, cores, length in zip(catalog(k), GROUP_CORES, GROUP_CORE_LENGTH):
            assert len(inst.members) == len(cores)
            for m, core in zip(inst.members, cores):
                expected = DigitMultiset.from_string(core).with_zeros(k - length)
                assert m == expected, (inst.template_id, core)

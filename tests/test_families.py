"""The ten zero-padded infinite families and the k <= 9 catalog."""
from __future__ import annotations

import pytest

from permniven.catalogs import GROUP_CORES
from permniven.digits import DigitMultiset, _parse_runs, expand
from permniven.families import (
    FAMILY_IDS,
    FamilyInstance,
    catalog,
    instantiate,
    verify_family,
)
from permniven.orbits import FailureWitness, is_pinn_residue_count
from oracle import is_pinn_bruteforce

MEMBER_COUNTS = dict(zip(FAMILY_IDS, (9, 7, 9, 8, 12, 13, 9, 7, 4, 9)))
# core width + 1: every instance carries at least one zero
MIN_K = dict(zip(FAMILY_IDS, (2, 3, 4, 4, 5, 6, 7, 8, 9, 10)))


def _core_width(cores: tuple[str, ...]) -> int:
    return len(expand(_parse_runs(cores[0])))


def test_template_lookup():
    assert len(FAMILY_IDS) == len(GROUP_CORES)
    assert instantiate("kb", 3).template_id == "kb"
    with pytest.raises(ValueError, match="family kb needs k >= 3, got 2"):
        instantiate("kb", 2)
    assert instantiate("kj", 10).template_id == "kj"
    with pytest.raises(ValueError, match="family kj needs k >= 10, got 9"):
        instantiate("kj", 9)
    with pytest.raises(ValueError, match="unknown family 'kz'"):
        instantiate("kz", 12)


def test_instantiate_counts_and_padding():
    for fid in FAMILY_IDS:
        inst = instantiate(fid, 12)
        assert inst.template_id == fid
        assert inst.k == 12
        assert len(inst.members) == MEMBER_COUNTS[fid]
        for m in inst.members:
            assert m.k == 12
            assert m.counts[0] == 12 - (MIN_K[fid] - 1)  # padding only


def test_instantiate_rejects_short_widths():
    for fid in FAMILY_IDS:
        with pytest.raises(ValueError, match="needs k >="):
            instantiate(fid, MIN_K[fid] - 1)
        instantiate(fid, MIN_K[fid])  # boundary is allowed


def test_families_and_catalog_are_one_table():
    # a family at k <= 9 is the catalog group printed in the same place
    for group, fid in enumerate(FAMILY_IDS):
        for k in range(MIN_K[fid], 10):
            inst = catalog(k)[group]
            assert inst.template_id == f"N{k}{group + 1}"
            assert instantiate(fid, k).members == inst.members, (fid, k)


@pytest.mark.parametrize("k", range(1, 10))
def test_catalog_holds_the_groups_that_fit(k):
    fitting = [cores for cores in GROUP_CORES if _core_width(cores) <= k]
    assert [inst.members for inst in catalog(k)] == [
        tuple(
            DigitMultiset.from_string(core).with_zeros(k - _core_width(cores))
            for core in cores
        )
        for cores in fitting
    ]


@pytest.mark.parametrize("k", [10, 11, 13, 17, 2000])
def test_every_family_member_verifies(k):
    # the DP sees each member with at most max(1, v2(s), v5(s)) <= 6
    # zeros, so k = 2000 costs what k = 17 does
    for fid in FAMILY_IDS:
        inst = instantiate(fid, k)
        for m, ok, _proof in verify_family(inst):
            assert ok, (fid, k, m.canonical)


def test_verify_family_cross_checks_small_orbits():
    inst = instantiate("ka", 10)
    for m, ok, _proof in verify_family(inst):
        assert ok
        assert is_pinn_bruteforce(m)[0]


def test_residue_count_proves_every_member_k10_to_k64():
    for k in range(10, 65):
        for fid in FAMILY_IDS:
            for m in instantiate(fid, k).members:
                # the full multiset, without decide_pinn's zero cap
                assert is_pinn_residue_count(m) == (True, None), (fid, k, m.canonical)


def test_verify_family_rejects_a_non_pinn_member():
    inst = FamilyInstance(template_id="x", k=2, members=(DigitMultiset.from_string("13"),))
    [(_m, ok, proof)] = verify_family(inst)
    # the criterion's "no" comes with an arrangement that fails
    assert not ok and proof == FailureWitness(permutation="13", residue=1)


def test_kb_witness_table():
    # each kb core, largest digit first, is its digit sum times one digit, so
    # a member at any width is that product followed by zeros
    cores = GROUP_CORES[FAMILY_IDS.index("kb")]
    assert cores == ("12", "18", "24", "27", "36", "45", "48")
    quotients = []
    for core in cores:
        m = DigitMultiset.from_string(core)
        q, r = divmod(int(m.canonical), m.digit_sum)
        assert r == 0, core
        quotients.append(q)
    assert quotients == [7, 9, 7, 8, 7, 6, 7]


@pytest.mark.parametrize("k", [1, 5, 9])
def test_catalog_instances_match_group_structure(k):
    instances = catalog(k)
    assert [inst.template_id for inst in instances] == [
        f"N{k}{i}" for i in range(1, len(instances) + 1)
    ]
    for inst in instances:
        assert inst.k == k
        for m in inst.members:
            assert m.k == k


def test_catalog_rejects_widths_outside_table():
    with pytest.raises(ValueError):
        catalog(0)
    with pytest.raises(ValueError):
        catalog(10)

"""The ten zero-padded infinite families."""
from __future__ import annotations

import pytest

from permniven.digits import DigitMultiset
from permniven.families import (
    FAMILY_IDS,
    TEMPLATES,
    FamilyInstance,
    KTooSmall,
    catalog,
    instantiate,
    template,
    verify_family,
    zero_augmentation_property,
)
from permniven.orbits import (
    DEFAULT_ORBIT_BUDGET,
    FailureWitness,
    is_pinn_bruteforce,
    is_pinn_residue_count,
    residue_table_size,
)

MEMBER_COUNTS = dict(zip(FAMILY_IDS, (9, 7, 9, 8, 12, 13, 9, 7, 4, 9)))


def test_template_lookup():
    assert [t.id for t in TEMPLATES] == list(FAMILY_IDS)
    assert template("kb").min_k == 3
    assert template("kj").min_k == 10
    with pytest.raises(ValueError):
        template("kz")


def test_instantiate_counts_and_padding():
    for tpl in TEMPLATES:
        inst = instantiate(tpl, 12)
        assert inst.k == 12
        assert len(inst.members) == MEMBER_COUNTS[tpl.id]
        for m in inst.members:
            assert m.k == 12
            assert m.counts[0] == 12 - (tpl.min_k - 1)  # padding only


def test_instantiate_rejects_short_widths():
    for tpl in TEMPLATES:
        with pytest.raises(KTooSmall):
            instantiate(tpl, tpl.min_k - 1)
        instantiate(tpl, tpl.min_k)  # boundary is allowed


@pytest.mark.parametrize("k", [10, 11, 13, 17])
def test_every_family_member_verifies(k):
    # The largest residue table at these widths has 7290 entries (k = 17),
    # so even this budget, a hundredth of the default, cross-checks every
    # member with the DP.
    for tpl in TEMPLATES:
        inst = instantiate(tpl, k)
        for m, ok, _proof in verify_family(inst, budget=10**5):
            assert ok, (tpl.id, k, m.canonical)


def test_verify_family_cross_checks_small_orbits():
    inst = instantiate(template("ka"), 10)
    for m, ok, _proof in verify_family(inst):
        assert ok
        assert is_pinn_bruteforce(m)[0]


def test_residue_count_proves_every_member_k10_to_k64():
    for k in range(10, 65):
        for tpl in TEMPLATES:
            for m in instantiate(tpl, k).members:
                # verify_family's gate: the DP runs at the default budget
                assert residue_table_size(m) <= DEFAULT_ORBIT_BUDGET
                assert is_pinn_residue_count(m) == (True, None), (tpl.id, k, m.canonical)


def test_verify_family_rejects_a_non_pinn_member():
    inst = FamilyInstance(template_id="x", k=2, members=(DigitMultiset.from_string("13"),))
    for budget in (1, DEFAULT_ORBIT_BUDGET):
        [(_m, ok, proof)] = verify_family(inst, budget)
        # the criterion's "no" comes with an arrangement that fails
        assert not ok and proof == FailureWitness(permutation="13", residue=1)


def test_kb_witness_table():
    # each kb core, largest digit first, is its digit sum times one digit, so
    # a member at any width is that product followed by zeros
    cores = template("kb").base_patterns
    assert cores == ("12", "18", "24", "27", "36", "45", "48")
    quotients = []
    for core in cores:
        m = DigitMultiset.from_string(core)
        q, r = divmod(int(m.canonical), m.digit_sum)
        assert r == 0, core
        quotients.append(q)
    assert quotients == [7, 9, 7, 8, 7, 6, 7]


def test_zero_augmentation_property_between_widths():
    assert zero_augmentation_property(10, 11)
    assert zero_augmentation_property(10, 14)
    assert zero_augmentation_property(12, 12)
    with pytest.raises(ValueError):
        zero_augmentation_property(12, 10)


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

"""Closed-form PINN families: zero-padded cores valid at every width.

Each family takes a fixed set of zero-free cores and pads them with zeros
to the requested total width k.  The ten families cover the same cores as
the k <= 9 reference catalog groups; their point is that the padding count
is a free parameter, so each family yields PINN classes at arbitrarily
large k.  verify_family re-proves the claim instance by instance instead
of trusting it, with ``orbits.decide_pinn``, the rule ``check`` also uses:
two deciders that share no reasoning, the congruence criterion,
O(pairs + k), and the residue-counting DP, whose table grows about
linearly in k for these members (155520 entries at k = 200).
The tested range is k <= 64; nothing in the code caps k itself.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import catalogs
from .digits import DigitMultiset, parse_number
from .orbits import (
    DEFAULT_ORBIT_BUDGET,
    CriterionProof,
    FailureWitness,
    decide_pinn,
    is_pinn_criterion,
)

__all__ = [
    "FAMILY_IDS",
    "FamilyInstance",
    "FamilyTemplate",
    "KTooSmall",
    "catalog",
    "instantiate",
    "template",
    "verify_family",
    "zero_augmentation_property",
]

FAMILY_IDS = ("ka", "kb", "kc", "kd", "ke", "kf", "kg", "kh", "ki", "kj")


class KTooSmall(Exception):
    pass


@dataclass(frozen=True, slots=True)
class FamilyTemplate:
    id: str
    base_patterns: tuple[str, ...]  # zero-free cores, run-compressed notation
    min_k: int  # core length + 1: every instance carries at least one zero


@dataclass(frozen=True, slots=True)
class FamilyInstance:
    template_id: str
    k: int
    members: tuple[DigitMultiset, ...]


TEMPLATES: tuple[FamilyTemplate, ...] = tuple(
    FamilyTemplate(id=fid, base_patterns=cores, min_k=length + 1)
    for fid, cores, length in zip(
        FAMILY_IDS, catalogs.GROUP_CORES, catalogs.GROUP_CORE_LENGTH
    )
)


def template(family_id: str) -> FamilyTemplate:
    for t in TEMPLATES:
        if t.id == family_id:
            return t
    raise ValueError(f"unknown family {family_id!r}; expected one of {FAMILY_IDS}")


def instantiate(tpl: FamilyTemplate, k: int) -> FamilyInstance:
    if k < tpl.min_k:
        raise KTooSmall(f"family {tpl.id} needs k >= {tpl.min_k}, got {k}")
    core_len = tpl.min_k - 1
    members = tuple(
        DigitMultiset.from_string(parse_number(core)).with_zeros(k - core_len)
        for core in tpl.base_patterns
    )
    return FamilyInstance(template_id=tpl.id, k=k, members=members)


def verify_family(
    instance: FamilyInstance, budget: int = DEFAULT_ORBIT_BUDGET
) -> list[tuple[DigitMultiset, bool, CriterionProof | FailureWitness]]:
    """Re-prove every member with ``decide_pinn``: the criterion,
    cross-checked by the residue-counting DP when its table fits within
    budget entries.

    A member is ok only when every decider that ran says PINN.  The proof
    is the criterion's for a PINN and otherwise a witness, a concrete
    arrangement and its non-zero residue.
    """
    return [(m, *decide_pinn(m, budget)[:2]) for m in instance.members]


def catalog(k: int) -> list[FamilyInstance]:
    """The k-digit reference catalog (k = 1..9) as grouped instances."""
    return [
        FamilyInstance(template_id=gid, k=k, members=members)
        for gid, members in catalogs.catalog_groups(k)
    ]


def zero_augmentation_property(k_from: int, k_to: int) -> bool:
    """Do family members at k_from, padded to k_to, land in the k_to family
    and re-verify as PINNs?"""
    if k_to < k_from:
        raise ValueError("k_to must be >= k_from")
    extra = k_to - k_from
    for tpl in TEMPLATES:
        if k_from < tpl.min_k:
            continue
        padded = {
            m.with_zeros(extra) for m in instantiate(tpl, k_from).members
        }
        target = set(instantiate(tpl, k_to).members)
        if padded != target:
            return False
        if not all(is_pinn_criterion(m)[0] for m in padded):
            return False
    return True

"""Closed-form PINN families and the k <= 9 catalog: two views of one table.

Every group of ``catalogs.GROUP_CORES`` is a set of zero-free cores that
share one width.  Padding a core with zeros keeps it a PINN, so each group
yields PINN classes at every larger width, and the 87 cores, padded, are
every PINN class with a zero at any width (README, "Classification").
``instantiate(family_id, k)`` pads one group, a family, with at least one
zero; ``catalog(k)`` pads every group whose cores fit in k digits, for
k = 1..9, and labels them as the printed tables do.  Both go through one
padding helper over cores parsed once.

verify_family re-proves the claim instance by instance instead of trusting
it, with ``orbits.decide_pinn``, the rule ``check`` also uses: two deciders
that share no reasoning, the congruence criterion, O(pairs + 10 log k),
and the residue-counting DP on the member with its zeros capped at
max(1, v2(s), v5(s)) <= 6 for digit sum s, whose table is the same at
every k >= core width + 6.  Nothing in the code caps k.
"""
from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .catalogs import GROUP_CORES
from .digits import DigitMultiset
from .orbits import (
    CriterionProof,
    FailureWitness,
    decide_pinn,
)

__all__ = [
    "FAMILY_IDS",
    "FamilyInstance",
    "catalog",
    "instantiate",
    "verify_family",
]

# One label per GROUP_CORES group, in printed order.
FAMILY_IDS = ("ka", "kb", "kc", "kd", "ke", "kf", "kg", "kh", "ki", "kj")


class FamilyInstance(NamedTuple):
    template_id: str
    k: int
    members: tuple[DigitMultiset, ...]


@cache
def _parsed(texts: tuple[str, ...]) -> tuple[DigitMultiset, ...]:
    """The classes of a stored table row, parsed once."""
    return tuple(DigitMultiset.from_string(t) for t in texts)


def _cores(group: int) -> tuple[DigitMultiset, ...]:
    return _parsed(GROUP_CORES[group])


def _core_width(group: int) -> int:
    return _cores(group)[0].k


def _padded(group: int, k: int) -> tuple[DigitMultiset, ...]:
    """The group's cores, each padded with zeros to width k."""
    return tuple(m.with_zeros(k - m.k) for m in _cores(group))


def instantiate(family_id: str, k: int) -> FamilyInstance:
    """The family's cores padded to width k, which needs at least one zero."""
    if family_id not in FAMILY_IDS:
        raise ValueError(f"unknown family {family_id!r}; expected one of {FAMILY_IDS}")
    group = FAMILY_IDS.index(family_id)
    min_k = _core_width(group) + 1
    if k < min_k:
        raise ValueError(f"family {family_id} needs k >= {min_k}, got {k}")
    return FamilyInstance(template_id=family_id, k=k, members=_padded(group, k))


def verify_family(
    instance: FamilyInstance,
) -> list[tuple[DigitMultiset, bool, CriterionProof | FailureWitness]]:
    """Re-prove every member with ``decide_pinn``: the criterion and a
    second decider that shares no reasoning with it.

    A member is ok only when both say PINN.  The proof is the criterion's
    for a PINN and otherwise a witness, a concrete arrangement and its
    non-zero residue.
    """
    return [(m, *decide_pinn(m)[:2]) for m in instance.members]


def catalog(k: int) -> list[FamilyInstance]:
    """The k-digit reference catalog (k = 1..9): every group whose cores fit
    in k digits, padded to width k and labelled N{k}1, N{k}2, ..."""
    if not 1 <= k <= 9:
        raise ValueError(f"catalog covers k = 1..9, got {k}")
    groups = [g for g in range(len(GROUP_CORES)) if _core_width(g) <= k]
    return [
        FamilyInstance(template_id=f"N{k}{i}", k=k, members=_padded(g, k))
        for i, g in enumerate(groups, start=1)
    ]


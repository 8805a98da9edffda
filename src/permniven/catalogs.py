"""Reference catalogs of PINN digit classes for k = 1..9, kept as data.

The tables below are a hand transcription of the reference catalog this
library reproduces.  They are stored verbatim instead of being regenerated
at import time so that the search has an independent golden to be audited
against: any disagreement between these tables and the search output is a
real finding and surfaces in the test suite, never silently absorbed.

The printed k=6 and k=9 tables omit 6 and 7 classes that the search finds,
each with digit sum 27 or 54 and each confirmed by full orbit enumeration.
The tables stay as printed; the 13 omissions are named in acceptance
criterion 4 (`CATALOG_OMISSIONS` in tests/test_acceptance.py), which fails
on any further disagreement in either direction.  They are among the 31
ZERO_FREE_EXTRAS below, which ``search.census`` counts with the cores.

Layout.  Every catalog entry is a zero-free "core" padded with zeros up to
the requested length.  The 87 cores, padded, are also every PINN class
with a zero at any width (README, "Classification").  The cores are
grouped exactly as the source tables group them: one group per core
length, except length 3 which the tables split into repdigits and
non-repdigits.  A k-digit catalog consists of the groups whose cores fit
in k digits, each core padded with zeros to width k (the uniform padding
makes every entry exactly k digits wide; the one undersized entry printed
in the 4-digit source table, 900, is thereby completed to 9000).  Cores
are written in the run-compressed notation of the longer tables, in the
printed order.

ZERO_FREE_EXTRAS holds every zero-free PINN class that is neither a
repdigit nor a core, keyed by width; there is no other at any width
(README, "Classification").

This module holds the data only.  The padding lives in ``families``, whose
``catalog(k)`` and ``instantiate(family_id, k)`` are two views of
GROUP_CORES: the k <= 9 catalog and the ten families at any width.
"""
from __future__ import annotations

__all__ = ["GROUP_CORES", "NN2_VALUES"]

# Zero-free cores, one tuple per printed group.
GROUP_CORES: tuple[tuple[str, ...], ...] = (
    ("1", "2", "3", "4", "5", "6", "7", "8", "9"),
    ("12", "18", "24", "27", "36", "45", "48"),
    ("1_(3)", "2_(3)", "3_(3)", "4_(3)", "5_(3)", "6_(3)", "7_(3)", "8_(3)",
     "9_(3)"),
    ("117", "126", "135", "144", "225", "234", "288", "468"),
    ("1_(3)6", "1125", "1134", "1224", "1233", "2_(3)3", "2448", "2268",
     "2466", "3699", "4_(3)6", "6_(3)9"),
    ("1_(4)5", "1_(3)24", "1_(3)33", "11223", "12_(4)", "2_(3)48", "2_(3)66",
     "22446", "24_(4)", "3_(3)99", "33669", "36_(4)", "48_(4)"),
    ("1_(5)4", "1_(4)23", "1_(3)2_(3)", "2_(5)8", "2_(4)46", "2_(3)4_(3)",
     "3_(4)69", "3_(3)6_(3)", "4_(3)8_(3)"),
    ("1_(6)3", "1_(5)22", "2_(6)6", "2_(5)44", "3_(6)9", "3_(5)66",
     "4_(5)88"),
    ("1_(7)2", "2_(7)4", "3_(7)6", "4_(7)8"),
    ("1_(9)", "2_(9)", "3_(9)", "4_(9)", "5_(9)", "6_(9)", "7_(9)", "8_(9)",
     "9_(9)"),
)

# The zero-free non-repdigit classes that are not cores, by width.
ZERO_FREE_EXTRAS: dict[int, tuple[str, ...]] = {
    6: ("5_(5)2", "74_(5)", "774_(3)1", "7_(3)411", "85_(3)22", "8852_(3)"),
    9: ("4_(6)1_(3)", "5_(3)2_(6)", "74_(4)1_(4)", "77441_(5)", "7_(3)1_(6)",
        "852_(7)", "8_(6)2_(3)"),
    12: ("4_(5)1_(7)", "52_(11)", "74_(3)1_(8)", "7741_(9)", "8_(5)2_(7)"),
    15: ("4_(4)1_(11)", "7441_(12)", "771_(13)", "8_(4)2_(11)"),
    18: ("4_(3)1_(15)", "741_(16)", "8_(3)2_(15)"),
    21: ("441_(19)", "71_(20)", "882_(19)"),
    24: ("41_(23)", "82_(23)"),
    42: ("8_(3)1_(39)",),
}

# The complete list of 2-digit PINN values, as printed.
NN2_VALUES: tuple[int, ...] = (
    10, 12, 18, 20, 21, 24, 27, 30, 36, 40, 42, 45, 48, 50, 54, 60, 63, 70,
    72, 80, 81, 84, 90,
)

"""A first walk: what makes 2448 special, and 13 ordinary.

A permutation-invariant Niven number (PINN) stays divisible by its digit
sum no matter how its digits are shuffled (leading zeros drop away).  The
library treats all rearrangements of one digit multiset as a single
object, so checking a number means checking its whole orbit at once.
"""
from itertools import permutations

from permniven import DigitMultiset, decide_pinn, is_pinn_criterion

m = DigitMultiset.from_string("2448")
print(f"multiset {m.canonical}: digit sum {m.digit_sum}, orbit size {m.orbit_size}")
orbit = sorted(set(map("".join, permutations(m.canonical))))
print("the orbit:", ", ".join(orbit))

# Brute force is the definition: divide every arrangement.
ok = all(int(p) % m.digit_sum == 0 for p in orbit)
print(f"\nbrute force verdict: {ok}")
print(f"quotients by {m.digit_sum}:", [int(p) // m.digit_sum for p in orbit])

# The congruence criterion reaches the same verdict without touching a
# single permutation; for wide numbers it is the only affordable route.
ok, proof = is_pinn_criterion(m)
print(f"\ncriterion verdict: {ok}")
print(f"digit pairs checked: {proof.digit_pairs_checked}")
print(f"position gaps checked: {list(proof.position_gaps_checked)}")

# `permniven check` decides with the criterion and cross-checks it by
# counting the arrangements in each residue class mod the digit sum
# (a repdigit by the closed form 10^k = 1 (mod 9k) instead).
ok, proof, residue_counted = decide_pinn(m)
print(f"\nshared verdict: {ok}, residue count cross-checked: {residue_counted}")

bad = DigitMultiset.from_string("13")
ok, witness, _ = decide_pinn(bad)
print(f"\n13 is a PINN: {ok}")
print(f"witness: {witness.permutation} leaves remainder {witness.residue} mod 4")

# Rep-block notation abbreviates long runs: 1_(26)01 is 26 ones then 01.
wide = DigitMultiset.from_string("1_(26)01")
print(f"\n1_(26)01 has {wide.k} digits, digit sum {wide.digit_sum},")
print(f"orbit size {wide.orbit_size}, criterion verdict {is_pinn_criterion(wide)[0]}")

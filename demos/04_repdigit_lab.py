"""Repdigits: when is a block of equal digits divisible by its digit sum?

The repdigit a repeated k times is Niven exactly when 10^k = 1 (mod 9k);
the repeated digit cancels out.  A stricter variant with modulus 9ka
looks plausible but already fails at a=3, k=3.  The widths satisfying
the exact condition have a striking multiplicative structure, explored
here through a parameterized exponent grid.
"""
from permniven import (
    CONJECTURE_PRIMES,
    ConjectureConstraints,
    exact_condition_sweep,
    multiplicative_order,
    repdigit_niven_check,
    verify_conjecture_grid,
)

print("a=3, k=3: is 333 divisible by 9?", 333 % 9 == 0)
chk = repdigit_niven_check(3, 3)
print(f"exact condition: {chk.exact}, strict 9ka variant: {chk.strict}")

print("\nwidths k <= 10^4 with 10^k = 1 (mod 9k):")
print(" ", exact_condition_sweep(10**4))

print("\nprime building blocks and their orders of 10:")
for name, p in CONJECTURE_PRIMES.items():
    if name == "n":
        print(f"  {name}: 3 (the base of the tower)")
        continue
    print(f"  {name}: {p}, ord(10) = {multiplicative_order(10, p)}")

# Each parameter needs enough powers of three in k before it can appear;
# the grid checks every admissible exponent tuple inside the bounds and
# also confirms that the minimal inadmissible ones genuinely fail.
report = verify_conjecture_grid()
print(
    f"\ngrid: {len(report.entries)} exponent tuples, all consistent: {report.all_ok}, "
    f"{report.skipped_over_cap} skipped over the {report.bit_cap}-bit cap"
)

# The exponents name k by its factors; the check itself is one modular
# power, 10^k mod 9ka, and 10^k mod 9k follows because 9k divides 9ka.
huge = ConjectureConstraints(n=5, alpha=2, beta=1, gamma1=1, delta3=1)
print(f"\nk with {huge.bit_estimate} bits, one pow mod 9ka:",
      repdigit_niven_check(1, huge.k).exact)

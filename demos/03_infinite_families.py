"""Ten families that never run out: zero padding preserves the property.

Each family is a fixed zero-free digit core plus as many zeros as the
target width needs.  A zero can break a zero-free PINN (555552 is one,
5555520 is not), but not these cores: each stays a PINN with 1..6 zeros,
and past six zeros the verdict no longer changes, so the families produce
PINNs at every width past their minimum.
"""
from permniven import (
    FAMILY_IDS,
    DigitMultiset,
    decide_pinn,
    instantiate,
    verify_family,
)
from permniven.catalogs import GROUP_CORES

print("family  min_k  members  sample member at k=14")
for fid in FAMILY_IDS:
    inst = instantiate(fid, 14)
    sample = inst.members[0]
    # the smallest width is the core's, the nonzero digits, plus one zero
    min_k = sample.k - sample.counts[0] + 1
    print(f"{fid:6}  {min_k:5}  {len(inst.members):7}  {sample.canonical}")

# Every member re-proves at an arbitrary width: the congruence criterion
# and the residue-counting DP, which never enumerates the orbit, both agree.
inst = instantiate("ke", 20)
results = verify_family(inst)
print(f"\nke at k=20: {sum(ok for _, ok, _ in results)}/{len(results)} verified")

# The padding law: every core of every family stays a PINN with 1..6 zeros
# added.  Past six zeros the verdict no longer changes (the README's zero
# reduction), so these checks cover every width.
cores = [DigitMultiset.from_string(c) for group in GROUP_CORES for c in group]
padded = all(decide_pinn(m.with_zeros(z))[0] for m in cores for z in range(1, 7))
print(f"all {len(cores)} cores stay PINNs with 1..6 zeros added: {padded}")

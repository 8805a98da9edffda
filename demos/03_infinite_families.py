"""Ten families that never run out: zero padding preserves the property.

Each family is a fixed zero-free digit core plus as many zeros as the
target width needs.  Adding a zero multiplies every permutation's value
by a power of ten without touching the digit sum, so membership survives
padding; the families therefore produce PINNs at every width past their
minimum.
"""
from permniven import (
    FAMILY_IDS,
    instantiate,
    verify_family,
    zero_augmentation_property,
)

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

# Padding members of one width into a larger width lands inside the
# larger instantiation and re-verifies.
print("padding k=10 members to k=13 stays in-family:",
      zero_augmentation_property(10, 13))

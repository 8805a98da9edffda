"""Exhaustive search: every PINN of a given width, as canonical classes.

The search space is digit multisets, not numbers: C(k+9,9) multisets at
width k stand in for 9*10^(k-1) integers.  One scan covers them all; the
classes with a zero turn out to be shorter zero-free classes padded with
zeros, which is where numbers like 7200 come from.
"""
from permniven import SearchConfig, is_pinn_criterion, report_values, search

for k in range(1, 7):
    report = search(SearchConfig(k=k))
    values = report_values(report)
    print(
        f"k={k}: {len(report.records):3d} classes, {len(values):5d} values, "
        f"scanned {report.multisets_scanned:5d} multisets in {report.elapsed:.3f}s"
    )

print("\nall two-digit PINNs:", report_values(search(SearchConfig(k=2))))

zero_free = search(SearchConfig(k=4, allow_zero=False))
print("\nzero-free 4-digit classes:")
for m in (rec.multiset for rec in zero_free.records):
    print(f"  {m.canonical}  digit sum {m.digit_sum}, orbit {m.orbit_size}")

# Padding is not free: each padded class must pass the criterion again.
# Those that do are exactly the k=5 classes with a zero.
report = search(SearchConfig(k=5))
padded = set()
for j in range(1, 5):
    for rec in search(SearchConfig(k=j, allow_zero=False)).records:
        m = rec.multiset.with_zeros(5 - j)
        if is_pinn_criterion(m)[0]:
            padded.add(m)
with_zero = {r.multiset for r in report.records if r.multiset.counts[0]}
print(
    f"\nk=5: {len(with_zero)} classes with a zero, all padded shorter classes: "
    f"{padded == with_zero}"
)

# Zero-free PINNs thin out fast but do not vanish: width 12 has five.
for k in (10, 11, 12):
    rep = search(SearchConfig(k=k, allow_zero=False, exclude_repdigits=True))
    names = [r.multiset.canonical for r in rep.records] or ["none"]
    print(f"zero-free non-repdigit classes at k={k}: {', '.join(names)}")

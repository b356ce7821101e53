"""Kostant partitions: enumeration, counting, and the simple sub-family.

A Kostant partition of theta writes it as a multiset of positive coroots.
Enumeration and the generating-function counter are independent algorithms,
so comparing them is a real cross-check, not a tautology.
"""

from bernasym import (
    count_partitions,
    coweights_up_to_height,
    enumerate_partitions,
    partition_to_json,
    root_system,
)

b2 = root_system("B", 2)
theta = (2, 2)

print(f"Kostant partitions of {theta} in B2 (coroots {b2.positive_coroots}):")
for part in enumerate_partitions(b2, theta):
    pieces = " + ".join(
        f"{n}x{b2.positive_coroots[i]}" if n > 1 else f"{b2.positive_coroots[i]}"
        for i, n in part.parts
    )
    tag = "simple" if part.is_simple else f"|K| = {part.size}"
    print(f"  {pieces}   ({tag})")

print(f"\ncount_partitions agrees: {count_partitions(b2, theta)} partitions")

# The simple family: every multiplicity equal to one.
simple = [part for part in enumerate_partitions(b2, theta) if part.is_simple]
print(f"simple partitions of {theta}: {len(simple)}")

# The counting identity behind the trace formula's regrouping:
#   sum over theta1 + theta2 = theta of  K(theta1) * SimpleK(theta2)
#   ==  sum over K in Kostant(theta) of 2^|R_K|
import itertools

for theta in coweights_up_to_height(2, 4):
    lhs = 0
    for t2 in itertools.product(range(theta[0] + 1), range(theta[1] + 1)):
        t1 = (theta[0] - t2[0], theta[1] - t2[1])
        lhs += count_partitions(b2, t1) * sum(k.is_simple for k in enumerate_partitions(b2, t2))
    rhs = sum(2 ** len(k.support) for k in enumerate_partitions(b2, theta))
    assert lhs == rhs
print("\n(K, S) regrouping identity holds for all B2 coweights of height <= 4")

# Partitions serialize as [coroot-coordinates, multiplicity] pairs.
sample = enumerate_partitions(b2, (1, 2))[0]
print(f"\nJSON form of one partition of (1, 2): {partition_to_json(b2, sample)}")

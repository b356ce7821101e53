"""Stratification index sets: parabolic strata, local triples, defect poset.

The completed adjoint torus has one coordinate stratum per subset of the
Dynkin vertices.  Over a fixed total coweight, the local models stratify by
ordered triples (theta1, mu, theta2); the middle entry is the defect, and
the codimension of a defect stratum is twice the defect's height.
"""

from bernasym import (
    ParabolicType,
    defect_poset,
    enumerate_local_strata,
    enumerate_parabolic_strata,
    root_system,
)

a2 = root_system("A", 2)

print("parabolic strata of A2 (subset of vertices -> canonical point):")
for stratum in enumerate_parabolic_strata(a2):
    kind = {0: " (Borel)", a2.rank: " (full group)"}.get(len(stratum.levi_vertices), "")
    print(f"  I_M = {stratum.levi_vertices!s:<8} c_P = {stratum.canonical_point}{kind}")

theta = (1, 1)
strata = enumerate_local_strata(a2, ParabolicType(), theta)
print(f"\nlocal strata over theta = {theta}: {len(strata)} ordered triples")
for s in strata:
    print(f"  {s.parts[0]} + {s.parts[1]} + {s.parts[2]}   defect {s.defect}")

print(f"\ncodim of the defect-{theta} stratum: twice its height, {2 * sum(theta)}")

# The defect poset on a height-bounded box, with covering relations.
poset = defect_poset(a2, ParabolicType(), 2)
print(f"\ndefect poset up to height 2: {len(poset.elements)} elements, "
      f"{len(poset.covers)} covers")
print("\nDOT rendering (paste into graphviz):")
print(poset.to_dot())

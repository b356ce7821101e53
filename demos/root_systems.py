"""Build root systems and inspect their positive coroots.

Every finite series A-G is supported, as well as explicit Cartan matrices.
Coweights live in the simple-coroot basis: the tuple (2, 1) means
2*alpha1-check + alpha2-check, and its height is the coordinate sum.
"""

import json

from bernasym import (
    ParabolicType,
    RootSystemSpec,
    build_root_system,
    height,
    levi_subsystem,
    root_system,
    root_system_to_json,
)

# A named series: G2 has six positive coroots, the largest of height 5.
g2 = root_system("G", 2)
print("G2 positive coroots, sorted by (height, lex):")
for beta in g2.positive_coroots:
    print(f"  {beta}   height {sum(beta)}")

# <rho, theta> equals the height; it is additive in theta.
theta = (1, 3)
print(f"\n<rho, {theta}> = {height(theta)}")

# The same machinery accepts an explicit Cartan matrix (here B2).
spec = RootSystemSpec(cartan=((2, -1), (-2, 2)), label="my-b2")
b2 = build_root_system(spec)
print(f"\n{b2.name}: {len(b2.positive_coroots)} positive coroots -> {b2.positive_coroots}")

# Levi subsystems restrict the Cartan matrix to a subset of vertices.
a3 = root_system("A", 3)
levi = levi_subsystem(a3, ParabolicType((0, 2)))
print(f"\nLevi of A3 on vertices {{0, 2}}: {levi.name}")
print(f"  coroots {levi.positive_coroots}  (an A1 x A1)")

# Summaries serialize to JSON for golden files and the CLI.
print("\nA2 summary:")
print(json.dumps(root_system_to_json(root_system("A", 2)), indent=2))

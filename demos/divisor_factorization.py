"""Colored divisors and the factorization of the multi-point trace.

A colored divisor places a positive coweight at each of several distinct
points.  Its trace is the product of the single-point traces, so splitting
the points into any two groups multiplies the traces -- the function-level
shadow of the factorization of the underlying sheaf.
"""

from bernasym import ColoredDivisor, divisor_trace, parse_divisor, root_system

a2 = root_system("A", 2)

# Two points carrying (1,0) and (0,2).
divisor = parse_divisor("x:1,0;y:0,2", rank=2)
print(f"divisor: {divisor.points}")
total = tuple(sum(coords) for coords in zip(*(theta for _, theta in divisor.points)))
print(f"total weight: {total}")
print(f"trace: {divisor_trace(a2, divisor)}")

# The same weight concentrated at a single point gives a different trace:
concentrated = parse_divisor("x:1,2", rank=2)
print(f"\nsame total weight at one point: {divisor_trace(a2, concentrated)}")

# Factorization: the trace of a disjoint union is the product of traces.
left = ColoredDivisor(points=(("x", (1, 0)),))
right = ColoredDivisor(points=(("y", (0, 2)),))
product = divisor_trace(a2, left) * divisor_trace(a2, right)
assert product == divisor_trace(a2, divisor)
print("\nfactorization: trace(x + y) == trace(x) * trace(y)")

# With three points the product runs over all of them.
a1 = root_system("A", 1)
three = parse_divisor("x:1;y:2;z:3", rank=1)
print(f"\nA1 divisor with three points: {divisor_trace(a1, three)}")
print("(= (1 - q)^3, one factor per point, independent of the multiplicities)")

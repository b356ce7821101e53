"""The central identity: three routes to the same trace polynomial.

For each positive coweight theta the normalized Frobenius trace can be
computed as (1) a sum over Kostant partitions, (2) a coefficient of the
Gindikin-Karpelevich product expanded as a truncated series, or (3) the
trace of a formal shift/twist class summed over splittings of theta.
They must agree exactly, coefficient by coefficient.
"""

from bernasym import (
    build_asymp_table,
    coweights_up_to_height,
    gk_product_series,
    root_system,
    trace_from_series,
    trace_grothendieck_oracle,
    trace_kostant_sum,
)

g2 = root_system("G", 2)
bound = 5

series = gk_product_series(g2, bound)
print(f"G2, all positive coweights of height <= {bound}:")
print(f"{'theta':>10}  {'kostant sum':<28} {'series':<28} {'class oracle':<28}")
for theta in coweights_up_to_height(2, bound):
    a = trace_kostant_sum(g2, theta)
    b = trace_from_series(series, g2, theta)
    c = trace_grothendieck_oracle(g2, theta)
    assert a == b == c
    print(f"{str(theta):>10}  {str(a):<28} {str(b):<28} {str(c):<28}")

# build_asymp_table packages the sweep and runs the verification for you.
table = build_asymp_table(g2, bound, verify=True, genus=2)
print(f"\ntable built and verified: {len(table.entries)} entries")
print(f"metadata: {table.metadata()}")

# Every nonzero entry vanishes at q = 1 (each summand carries a 1 - q factor).
assert all(sum(c for _, c in p.to_pairs()) == 0 for t, p in table.entries.items() if sum(t) > 0)
print("q = 1 specialization vanishes away from theta = 0, as it must")

# The CSV mirror is human-diffable.
print("\nCSV head:")
print("\n".join(table.to_csv_text().splitlines()[:6]))

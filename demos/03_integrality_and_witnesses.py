"""Deciding whether a hook product ratio is an integer at every partition.

The criterion is a signed hook count: the ratio attached to (gammas,
deltas) is integral everywhere exactly when no partition has a negative
counts signature. Both directions are constructive, and this script runs
them on the classical parameter set ((1,30),(2,3,5)).

Run as: python demos/03_integrality_and_witnesses.py
"""

from hookratio import (
    Partition,
    RatioParams,
    check_multinomial,
    construct_failing_lambda,
    counts_signature,
    decide,
    extract_failing_mu,
    find_failing_mu,
    landau_one_row_check,
    parse_partition,
    ratio_factored,
)

params = RatioParams((1, 30), (2, 3, 5))
print(f"params {params}: balanced = {params.is_balanced}, height = {params.height}")

# On one-row partitions the ratio reduces to a classical factorial ratio,
# and that restricted question passes.
print("one-row check:", landau_one_row_check(params))

# But the 6x5 rectangle has signature -1, so the full question fails.
mu = parse_partition("6^5")
print(f"counts signature of {mu}: {counts_signature(mu, params)}")

# A negative mu inflates to an explicit failing partition: empty core and
# p copies of mu, with p prime beyond every hook of mu.
p, lam = construct_failing_lambda(mu, params)
fr = ratio_factored(lam, params)
print(f"inflated witness: p = {p}, lambda = {lam}")
print(f"ratio at lambda = {fr}")
print(f"integral: {fr.is_integral} (exponent at {p} is {fr.exponent(p)})")
print()

# The reverse direction recovers a bad mu from any failing lambda by
# scanning the quotient tower.
recovered = extract_failing_mu(lam, params, p)
print("recovered from the tower:", recovered)
print()

# Witness search: hook shapes are scanned through one period of the step
# function; the bounded search walks the M-cores and returns the least
# witness of the smallest failing size.
hook_witness = find_failing_mu(params, 0, hooks_only=True)
small_witness = find_failing_mu(params, 30)
print("hook shaped witness:   ", hook_witness)
print("smallest size witness: ", small_witness, "of size", small_witness.size)
print()

# The decision procedure wraps it all up with verified verdicts. A
# divisibility flow from the gammas to the deltas they divide certifies
# ((2,3),(4,4,6,6)), a union of two copies of the exception ((x),(2x,2x)).
for gammas, deltas in [((1,), (2, 2)), ((1, 30), (2, 3, 5)), ((2, 3), (4, 4, 6, 6))]:
    verdict = decide(RatioParams(gammas, deltas), 12)
    line = f"decide{(tuple(gammas), tuple(deltas))}: {verdict.status}"
    if verdict.witness:
        line += f" via mu = {verdict.witness.mu}"
    print(line)
print()

# A family that always passes: the hook count at s dominates t times the
# count at s*t, which makes these multinomial style ratios integral.
lam = Partition((7, 5, 2, 2))
print("multinomial margins hold:",
      all(check_multinomial(lam, s, t) for s in (1, 2, 3) for t in (1, 2, 3)))

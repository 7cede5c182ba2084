# Depth-1 values of both families, computed two independent ways.
#
# The desingularized values at non-positive integers are signed Bernoulli
# numbers; the renormalized values divide by one more and coincide with
# the classical zeta values at non-positive integers. Everything below is
# an exact Fraction: no rounding anywhere.

from dmzv import bernoulli, ems_value, fkmt_value, value_table

# the generating-function route builds a whole table from the depth-1
# factor's coefficients: a dict from each index k to the value at -k
fkmt_table = value_table("fkmt", 1, 10)
ems_table = value_table("ems", 1, 10)

print("k   fkmt (multi-sum)   fkmt (series)   ems (multi-sum)   ems (series)")
for k in range(11):
    row = (
        fkmt_value((k,)),
        fkmt_table[(k,)],
        ems_value((k,)),
        ems_table[(k,)],
    )
    print(f"{k:<3} " + "   ".join(str(v).rjust(14) for v in row))

# The closed forms behind the table:
print("\nclosed forms, checked exactly for k <= 20:")
for k in range(21):
    sign = -1 if k % 2 else 1
    assert fkmt_value((k,)) == sign * bernoulli(k + 1)
    assert ems_value((k,)) == sign * bernoulli(k + 1) / (k + 1)
print("  fkmt(-k) = (-1)^k B_{k+1}")
print("  ems(-k)  = (-1)^k B_{k+1} / (k+1)   (the classical zeta(-k))")

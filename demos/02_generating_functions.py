# The closed-form generating functions and the conversion between them.
#
# Both value families are encoded by products of one shared univariate
# shape evaluated at nested tails t_i + ... + t_r. The series objects
# below are truncated per variable and exact on their whole box.

from dmzv import (
    ems_series,
    ems_series_from_fkmt,
    fkmt_series,
    fkmt_value,
)

Z2 = fkmt_series(2, 3)
print("depth-2 desingularized generating function, cap 3 per variable:")
for exps, coeff in Z2.sorted_terms():
    print(f"  t1^{exps[0]} t2^{exps[1]}: {coeff}")

# Reading a value off the series: multiply the coefficient by
# (-1)^{k1+k2} k1! k2!
coeff = Z2.coefficient((1, 2))
value = fkmt_value((1, 2))
print(f"\ncoefficient at (1,2): {coeff};  value at (-1,-2): {value}")
assert value == -2 * coeff  # (-1)^3 * 1! * 2! * coeff

# Conversion: flip every variable's sign in the desingularized series and
# multiply by the unit prefactor (1 - exp(-tail))/tail for each tail.
# The result is the renormalized series, coefficient for coefficient.
for depth in (1, 2, 3):
    assert ems_series_from_fkmt(depth, 4) == ems_series(depth, 4)
print("\nconversion identity holds coefficientwise for depths 1..3, cap 4")

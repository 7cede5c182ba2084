# The coefficient family behind the shifted-zeta representation.
#
# Expanding a small Laurent polynomial product yields integer
# coefficients indexed by Pochhammer degrees l and argument shifts m;
# the desingularized function is the corresponding finite combination of
# shifted classical zeta functions. Depth 1 reproduces the familiar
# (1 - s) zeta(s).

from dmzv import shifted_zeta_expression
from dmzv.expansion import rendered_text

print("coefficient family at depth 2:")
for value, l, m in shifted_zeta_expression(2):
    print(f"  l={l}  m={m}  ->  {value}")

for depth in (1, 2, 3):
    expr = shifted_zeta_expression(depth)
    print(f"\ndepth {depth}: {len(expr)} terms")
    print(" ", "".join(rendered_text(depth, expr)))

# Structural facts, verified exhaustively by the harness:
#   * the shifts of every term sum to zero
#   * the last shift of a nonzero term is l_r - 1 or l_r, never negative
#   * adjacent-shift pairs contract to binomial multiples of the family
#     one depth down
from dmzv.verify import verify_shift_coeffs

report = verify_shift_coeffs(4)
print(f"\nstructural checks up to depth 4: {'pass' if report.passed else 'FAIL'}")

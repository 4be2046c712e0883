"""The fourth-power root bound pipeline behind the lambda_2 upper edge.

One Graeffe step bounds the largest root of a monic real-rooted polynomial by
the fourth root of its fourth-power sum, which only needs the five leading
coefficients.  Applied to the bracket factors B_n(z)/2^n this gives

    z_0 <= (1/2) (d^4 + 4d^3 - (8m-2)d^2 + 4d + 8m^2 - 8m + 6n - 5)^(1/4),

increasing in n, and at n = 2m+1 integer cross-multiplication shows the bound
stays below (d - (2m+1)/(d+3) + 1)/2.  Mapping roots through x = 2z - 1 that
is precisely lambda_2 < d - (2m+1)/(d+3).
"""

from extremal_trees import (
    check_root_bound_inequality,
    factor_leading_coeffs,
    fn_max_root,
    graeffe_bound,
    largest_root_bound,
    verify_upper_bound_pipeline,
)
from extremal_trees.charpoly import divisors

m, d = 4, 10
print(f"G({m},{d}); divisors of 2m+1 = {2 * m + 1}: {list(divisors(2 * m + 1)[1:])}")
for n in divisors(2 * m + 1)[1:]:
    c = factor_leading_coeffs(n, m, d)
    z0 = fn_max_root(n, m, d)
    bound = largest_root_bound(n, m, d)
    print(f"  n={n}: leading coeffs ({c.a1}, {c.a2}, {c.a3}, {c.a4}); "
          f"max root {z0:.6f} <= bound {bound:.6f} "
          f"(same as graeffe_bound: {abs(bound - graeffe_bound(c)):.1e})")

report = verify_upper_bound_pipeline(m, d)
print(f"\nlambda2 = {report.lam2:.9f}, window {report.window}")
print(f"largest root image 2z0-1 agrees with lambda2 to {report.consistency_gap:.2e}")

print("\nexact quartic inequality (integer cross-multiplication, no rounding):")
for mm, dd in [(2, 6), (2, 7), (10, 50), (50, 200)]:
    print(f"  m={mm:>2}, d={dd:>3}: {check_root_bound_inequality(mm, dd)}")
print("the (2,6) margin is thin: 1721^(1/4) = "
      f"{1721 ** 0.25:.6f} vs {6 - 5 / 9 + 1:.6f}")

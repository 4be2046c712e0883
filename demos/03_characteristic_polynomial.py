"""The exact characteristic polynomial of G(m,d), two ways.

The closed form assembles Chebyshev polynomials: with z = (x+1)/2 and n
running over the divisors of 2m+1 (g = (2m+1)/n, multiplicity phi(n)),

    p(x) = (x+1)^((d-2m)(2m+1)) * prod_n [ (2 T_n(z))^(g-1) * B_n(z) ]^phi(n).

The oracle is the multi-modular Hessenberg oracle on the adjacency matrix:
Hessenberg reduction modulo word-size primes, lifted exactly by the Chinese
remainder theorem.  The two must agree coefficient by coefficient -- and do.
"""

from extremal_trees import (
    bracket_factor,
    build_extremal_graph,
    char_poly_exact,
    char_poly_oracle,
)
from extremal_trees.charpoly import divisors, euler_phi

m, d = 2, 6
p = char_poly_exact(m, d)
q = char_poly_oracle(build_extremal_graph(m, d))
print(f"G({m},{d}): closed form degree {p.degree}, oracle degree {q.degree}")
print("coefficientwise equal:", p == q)
print("low-order coefficients:", p.coeffs[:6])
print("high-order coefficients:", p.coeffs[-6:])

print("\nfactor structure (n runs over divisors of 2m+1):")
for n in divisors(2 * m + 1):
    g = (2 * m + 1) // n
    b = bracket_factor(n, m, d)
    print(f"  n={n}: multiplicity phi(n)={euler_phi(n)}, "
          f"Chebyshev power g-1={g - 1}, bracket factor {b}")

print("\np(d) =", p(d), " (d is always an eigenvalue; the n=1 factor is x-d)")
print("p'(d) =", p.derivative()(d), " (nonzero: d is a simple root)")

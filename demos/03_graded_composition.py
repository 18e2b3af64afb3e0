"""Walkthrough: the graded class ring, its diagonal, and composition.

Classes multiply by block-diagonal embedding, restrict along S_p x S_q
through the table of marks, and compose through wreath products.  Everything
evaluates back to honest counting: on the integers a class of degree n
acts as its cycle-count polynomial.
"""

from betaring import (
    BElement,
    beta_regular,
    beta_upper,
    diagonal,
    eval_z,
    lin,
    plethysm,
    product,
    star,
    star_basis,
)

b1 = beta_upper(1)
bS2 = BElement.basis(2, "S2")

print("=== products ===")
print("b^1 * b^1 =", product(b1, b1), " (the free rank-two class)")
print("b_S2 * b_S2 =", product(bS2, bS2))

print()
print("=== the diagonal ===")
print("Delta(b^2) =", diagonal(beta_upper(2)))
print("Delta(free class) =", diagonal(beta_regular(2)))

print()
print("=== composition is the wreath product ===")
print("b_S2 composed with b_S2 =", star_basis((2, "S2"), (2, "S2")), " (dihedral of order 8)")
w = star_basis((2, "S2"), (3, "S3"))
print("b_S2 composed with b_S3 =", w)
print("  evaluated at 3 colors:", eval_z(w, 3), "= multisets of size 2 of multisets of size 3 of 3")

print()
print("=== composition against sums and virtual arguments ===")
print("b_S2 of (2 b^1) =", star(bS2, b1.scale(2)), "   counts pairs from a doubled set")
print("b_S2 of (-b^1)  =", star(bS2, -b1), "   the falling version r(r-1)/2:")
for r in range(5):
    print(f"   r={r}: {eval_z(star(bS2, -b1), r)}")

print()
print("=== the cycle-index linearization ===")
print("lin(b_S2) =", lin(bS2).convert("h"))
print("lin(b_S2 o b_S2) =", lin(star_basis((2, 'S2'), (2, 'S2'))))
print("h2 plethysm h2  =", plethysm(lin(bS2), lin(bS2)))

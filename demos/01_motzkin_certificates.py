"""Certify the Motzkin polynomial: non-negative, yet not a sum of squares.

The non-negativity certificate is a weighted AM-GM inequality dominating
the negative monomial by the even-support monomials (with several negative
monomials, one per monomial from one exact LP); the non-SOS witness
is a negative monomial that is not the sum of two distinct lattice points
of the half Newton polytope.  Both sides run in exact rational arithmetic.
"""

from halfsquares import (
    MOTZKIN,
    SosCriterionInconclusive,
    SparsePolynomial,
    certify_nonnegative,
    certify_not_sos,
)

print("M =", MOTZKIN)
print("M(1, 1) =", MOTZKIN.evaluate([1, 1]), " (the AM-GM equality point)")
print("M(1, 2) =", MOTZKIN.evaluate([1, 2]))

verified = certify_nonnegative(MOTZKIN)
(ineq,) = verified.certificate.inequalities
print("\nAM-GM certificate for the negative monomial x^2 y^2:")
print("  (2,2) =", " + ".join(f"{lam} * {v}" for v, lam in ineq.shares),
      f"+ {ineq.origin_share} * (0,0)")

# Several risky monomials share the dominators' capacities: one exact LP
# splits them for all the monomials at once.
P = SparsePolynomial(1, {(6,): 2, (5,): -2, (4,): -1, (2,): 2, (0,): 2})
print("\nP =", P)
for ineq in certify_nonnegative(P).certificate.inequalities:
    print(f"  {ineq.target} =", " + ".join(f"{lam} * {v}" for v, lam in ineq.shares),
          f"+ {ineq.origin_share} * (0,)")

witness = certify_not_sos(MOTZKIN)
print("\nNot a sum of squares: monomial", witness.monomial,
      "has no distinct pair in the half polytope")
print("half-polytope lattice points:", list(witness.half_lattice))

# The criterion is sufficient only: a perfect square is never certified.
square = SparsePolynomial(1, {(2,): 1, (1,): -2, (0,): 1})  # (x - 1)^2
try:
    certify_not_sos(square)
except SosCriterionInconclusive as err:
    print("\n(x - 1)^2 -> inconclusive, as it must be:", err.pairs)

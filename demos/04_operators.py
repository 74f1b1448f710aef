"""From a Rota-Baxter operator to a dendriform splitting and back.

tau = diag(1, 1/2) is a weight-zero Rota-Baxter operator on the algebra
with e1.e1 = e2.  Viewed as an O-operator on the regular bimodule it
induces prec/succ operations on the module whose sum tau intertwines
with the original product.
"""

from antiassoc import (
    StructureAlgebra,
    associated_algebra,
    check_q_dendriform,
    check_rota_baxter,
    compatible_dendriform_from_o_operator,
    induced_dendriform_on_module,
    multiply,
    regular_bimodule,
)
from antiassoc.io import format_element
from antiassoc.linalg import Matrix, basis_vec

A = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
tau = Matrix([["1", "0"], ["0", "1/2"]])

print("tau is Rota-Baxter:", check_rota_baxter(A, tau).passed)

reg = regular_bimodule(A)
D = induced_dendriform_on_module(A, reg, tau)
print("induced structure satisfies the three axioms:", check_q_dendriform(D).passed)

e1 = basis_vec(2, 0)
print("e1 < e1 =", format_element(D.prec(e1, e1)))
print("e1 > e1 =", format_element(D.succ(e1, e1)))

# T-homomorphism: tau(u * v in D) == tau(u) . tau(v) in A
ok = all(
    tau.apply(D.star(basis_vec(2, i), basis_vec(2, j)))
    == multiply(A, tau.apply(basis_vec(2, i)), tau.apply(basis_vec(2, j)))
    for i in range(2)
    for j in range(2)
)
print("tau intertwines the products:", ok)

# Because tau is invertible the splitting can be transported back onto A
# itself, and there the two halves sum to the original multiplication.
back = compatible_dendriform_from_o_operator(A, reg, tau)
print("transported halves sum to A:", associated_algebra(back).c == A.c)

"""Bimodules, their duals, and the semidirect product test.

A representation (l, r) on a module V is valid exactly when the
semidirect product algebra on A + V satisfies the same q-law as A.
We show both directions on a small example.
"""

from antiassoc import (
    Bimodule,
    StructureAlgebra,
    check_bimodule,
    check_q_associative,
    dual_bimodule,
    regular_bimodule,
    semidirect_product,
)
from antiassoc.linalg import Tensor3

A = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})

reg = regular_bimodule(A)
print("regular bimodule valid:", check_bimodule(A, reg).passed)

S = semidirect_product(A, reg)
print("semidirect product dim:", S.dim, "q-associative:", check_q_associative(S).passed)

# The dual twists by powers of q and transposes; applying it twice
# gives back the original action tables entry for entry.
D = dual_bimodule(A, reg)
DD = dual_bimodule(A, D)
print("dual valid:", check_bimodule(A, D).passed)
print("double dual == original:", DD.l == reg.l and DD.r == reg.r)

# Now damage one action entry and watch both checks fail together: the
# table entry l[i][j][k] is the e_k coordinate of l(e_i) e_j.  Tables
# are immutable, so the damaged one is built anew.
entries = [[list(fiber) for fiber in plane] for plane in reg.l.entries]
entries[0][0][0] += 1
bad_l = Tensor3(entries)
bad = Bimodule(A.dim, reg.module_dim, bad_l, reg.r)
direct = check_bimodule(A, bad)
via_product = check_q_associative(semidirect_product(A, bad))
print()
print("broken action, direct check:   ", direct.passed)
print("broken action, via semidirect: ", via_product.passed)
for v in direct.violations:
    print(f"    {v.identity_id} fails at pair {v.indices}")

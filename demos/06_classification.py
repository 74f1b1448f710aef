"""Enumerate all 2-dimensional antiassociative algebras on a small grid
and sort them into isomorphism classes.

The residual system in the eight structure constants is solved by brute
force over {-1, 0, 1}.  Class merging maps each table to the normal form
e1.e1 = e2 through the basis (u, u.u) and composes the two changes of
basis, so every "same class" claim comes with a re-verified witness.
"""

from antiassoc import enumerate_2d_antiassociative, verify_paper_classification
from antiassoc.classify2d import describe_products, partition_into_classes

solutions = enumerate_2d_antiassociative(["-1", "0", "1"])
print(f"{len(solutions)} solutions over the grid:")
for A in solutions:
    print("   ", describe_products(A))

classes = partition_into_classes(solutions)
print(f"\n{len(classes)} isomorphism classes; representatives:")
for cls in classes:
    print(f"    {describe_products(solutions[cls[0]])}   (size {len(cls)})")

audit = verify_paper_classification()
print("\naudit of the published table:")
for entry in audit["tables"]:
    print(f"    {entry['label']}: {'ok' if entry['passed'] else 'FAILS the q-law'}")
print("pairwise merges with witnesses:")
for p in audit["pairwise"]:
    if p["status"] == "yes":
        print(f"    {p['first']} ~ {p['second']} via {p['witness']}")
print("distinct valid classes:", audit["distinct_valid_classes"])
for d in audit["discrepancies"]:
    print("discrepancy:", d)

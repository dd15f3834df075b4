"""A tour of multigraded homogeneity on one running example.

Four coordinates, degrees in Z^2, and a single trinomial that happens to be
homogeneous for a grading you would never guess from the exponents alone.
"""

from gradedcones import GradingMap, NotHomogeneousError, PolyRing

ring = PolyRing(("y1", "y2", "y3", "y4"))
grading = GradingMap(ring, [(1, 2), (1, 0), (0, 1), (2, 3)])
F = ring.parse("y1^2 y2 y3 + y1 y4 + y2 y3^2 y4")

print("variables and their degree vectors:")
for name, col in zip(ring.names, grading.columns):
    print(f"  {name} -> {list(col)}")

print(f"\nF = {F}")
print(f"F is homogeneous of degree {list(grading.homogeneous_degree(F))}")
print("  (all three monomials hit the same point of Z^2)")

w = grading.require_positive()
print(f"\npositivity witness omega = {list(w.omega)}")
print(f"  omega . degree(y_i)    = {list(w.dots)}  (all positive)")
print("so every graded piece is finite dimensional and the origin is the")
print("unique fixed point of the torus action.")

mixed = ring.parse("y1 + y2 + 3 y2 y3^2 y4")
print(f"\nsplitting the non-homogeneous {mixed}:")
for degree, part in grading.homogeneous_components(mixed).items():
    print(f"  degree {list(degree)}: {part}")

try:
    grading.homogeneous_degree(mixed)
except NotHomogeneousError as err:
    print(f"asking for its single degree fails: {err}")

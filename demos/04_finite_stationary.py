"""Finite stationary diagrams: classes, distinguished roots, measures.

For a finite stationary standard diagram, ergodic probability measures
correspond to the distinguished communicating classes of A = F^T: classes
whose Perron root strictly dominates every class that can reach them.  Each
yields a nonnegative eigenvector supported exactly on the vertices with
access to the class, and cylinder values xi(w) / lambda^(n-1).  Perron roots
are exact dyadic brackets, so equal radii are decided, not guessed.
"""

from bratteli import (
    EndVertex,
    decompose,
    distinguished_classes,
    distinguished_eigenvector,
    measures_finite_stationary,
    spectral_radius,
)

A = [[3, 0], [1, 2]]
print(f"A = {A}  (A = F^T: entry [i][j] counts edges from vertex i up to j)")

dec = decompose(A)
print(f"communicating classes, topologically ordered: {dec.classes}")
print(f"access relation (beta reaches alpha): {dec.reduced_edges}")

for idx in range(len(dec.classes)):
    lo, hi = spectral_radius(dec.class_matrix(idx))
    print(f"  class {dec.classes[idx]}: Perron root in [{lo:.12f}, {hi:.12f}]")

dist = distinguished_classes(dec)
print(f"distinguished classes: {[dec.classes[i] for i in dist]}")

for alpha in dist:
    data = distinguished_eigenvector(dec, alpha)
    print(f"  class {dec.classes[alpha]}: xi = {data.xi}, support = {sorted(data.support)}")

print("\nMeasures (normalized so level-1 tower masses sum to 1):")
for m in measures_finite_stationary(A):
    print(f"  class {dec.classes[m.data.class_index]}: lambda = {m.lam}, xi = {m.xi_normalized}")
    print(f"    cylinder value at level 2, vertex 2: {m.cylinder_value(EndVertex(2, 2))}")

print("\nA chain where the upstream class dominates kills the downstream measure:")
B = [[2, 0], [1, 3]]
ms = measures_finite_stationary(B)
print(f"  A = {B}: {len(ms)} measure(s); class {decompose(B).classes[ms[0].data.class_index]} wins")

print("\nA 1x1 zero class is never distinguished but its neighbors can be:")
C = [[2, 1, 0], [0, 0, 1], [0, 0, 3]]
decC = decompose(C)
distC = distinguished_classes(decC)
print(f"  classes {decC.classes}; distinguished: {[decC.classes[i] for i in distC]}")

print("\nEqual radii across an access pair are decided exactly:")
T = [[2, 1], [0, 2]]
decT = decompose(T)
print(f"  A = {T}: classes {decT.classes}; distinguished: {[decT.classes[i] for i in distinguished_classes(decT)]}")

print("\nThe certificate behind one bracket, on an irreducible 4x4 block:")
block = [[1, 2, 1, 3], [2, 1, 4, 1], [3, 3, 1, 2], [1, 4, 2, 2]]
root = spectral_radius(block)
sums = [sum(row) for row in block]
print(f"  row sums {sums}: the Perron root lies in [{min(sums)}, {max(sums)}]")
print(f"  characteristic polynomial coefficients (leading first): {root.poly}")


def p(x):
    return sum(c * x ** (len(root.poly) - 1 - k) for k, c in enumerate(root.poly))


for name, x in (("low", root.low), ("high", root.high)):
    print(f"  {name} = {x} = {float(x):.15f}, p({name}) {'< 0' if p(x) < 0 else '> 0' if p(x) > 0 else '= 0'}")
print(f"  width {root.high - root.low} = {float(root.high - root.low):.3e} <= tol 1e-12")
print(f"  as floats, rounded outward: [{root[0]!r}, {root[1]!r}]")
print("  p(low) < 0 puts a real root above low; high is a Newton iterate from the row-sum bound,")
print("  rounded up, and p, p' and p'' stay positive above the Perron root, so it never passes below it")

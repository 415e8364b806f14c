"""Extending an odometer's measure to its saturation, with certificates.

Each odometer of a chain carries a unique tail-invariant probability measure.
Extending it to all tail-equivalent paths multiplies in the mass series
sum_n H^(n)_{i+1} / (a_0(i) ... a_n(i)); the extension is a finite measure
exactly when that series converges.  The engine never answers without a
certificate.  On stationary chains it sums the resolvent exactly (one
back-substitution when every multiplicity above the odometer is below its
own) or proves divergence by a climb to a vertex whose heights grow at least
as fast; on non-stationary chains it uses the generating function
prod_n (1 + t/a_n) with a bound on the tail sum of the reciprocal levels.
"""

from fractions import Fraction

from bratteli import (
    NonStationaryUniform,
    StationaryAK,
    StationaryDecreasing,
    StationaryIncreasing,
    classify_ergodic_measures,
    closed_form_oracles,
    odometer_extension_mass,
    mass_series_terms,
)
from bratteli.sequences import Constant, Geometric, Polynomial, Table

spec = StationaryAK(a=4, k=2)

print("Mass of the first odometer's extension in the (a=4, k=2) chain:")
res = odometer_extension_mass(spec, 1, max_terms=2000)
print(f"  status={res.status}  exact={res.exact_value}  certificate={res.certificate}")
print(f"  (closed form: 1 + 1/(k-1) = {1 + Fraction(1, 1)})")

print("\nFirst series terms (they are exactly geometric with ratio 3/4):")
for n, t in enumerate(mass_series_terms(spec, 1, 5)):
    print(f"  t_{n} = {t}")

print("\nEvery later odometer extends to an infinite measure:")
res2 = odometer_extension_mass(spec, 2)
print(f"  odometer 2: {res2.status}; witness: {res2.divergence_witness}")

print("\nClassification across the first five odometers:")
cls = classify_ergodic_measures(spec, 5)
for e in cls.entries:
    val = e.mass.exact_value if e.mass.is_exact else e.mass.status
    print(f"  odometer {e.index}: {e.mass.status} ({val})")
for note in cls.notes:
    print(f"  note: {note}")

print("\nThe increasing chain (diagonal 2, 3, 4, ...) supports no finite extension:")
inc = classify_ergodic_measures(StationaryIncreasing(), 5)
print(f"  finite odometers: {inc.finite_indices or 'none'}")

print("\nDecreasing chain 5, 3, 2, 2, ...: the mass equals the product sum 7/4:")
dec = StationaryDecreasing(Table((5, 3), Constant(2)))
res = odometer_extension_mass(dec, 1, 400)
oracle = closed_form_oracles(dec, 1)
print(f"  exact={res.exact_value}  certificate={res.certificate}")
print(f"  closed form {oracle.mass} agrees: {res.exact_value == oracle.mass}")

print("\nUniform non-stationary chains follow the reciprocal level-sum criterion:")
for seq, label in [
    (Constant(2), "a_n = 2"),
    (Geometric(2, 2), "a_n = 2^(n+1)"),
    (Polynomial((4, 4, 1)), "a_n = (n+2)^2"),
]:
    res = odometer_extension_mass(NonStationaryUniform(seq), 1, 2000)
    print(f"  {label:14s}: {res.status:8s} via {res.certificate}")

"""The cosine family: every non-psd extreme ray of the 4x4 width-3 dual cone.

Dual cones of bounded-width matrices are cut out by finitely many small psd
conditions; their extreme rays are where separation certificates live.  For
4x4 matrices at width 3 the non-psd extreme rays have an exact normal form:
unit diagonal and entries cos(a), cos(a-c), cos(c) in a circulant pattern.
This demo verifies their defining structure numerically and uses the family
to separate a concrete quadratic.

Run:  python3 demos/03_extreme_rays.py
"""

import itertools
import math

import numpy as np

from factorwidth.dualcone import (
    check_extreme_candidate,
    cos_certificate_search,
    cos_ray,
    dual_membership,
)
from factorwidth.families import PnaSpec, pna_form
from factorwidth.symcore import eigen_sym, frobenius_inner

a, c = math.pi / 2, math.pi / 4
B = cos_ray(a, c)
print(f"cos_ray(pi/2, pi/4) =")
for row in B.rows():
    print("   ", [f"{v:+.4f}" for v in row])

print("\nStructure checks:")
print(f"    in the width-3 dual cone: {dual_membership(B, 3).is_member}")
lam = eigen_sym(B).eigenvalues
print(f"    eigenvalues: {[f'{v:+.4f}' for v in lam]}")
print(f"    det = {float(np.prod(lam)):+.6f}  "
      f"(formula -4 sin^2(a) sin^2(a-c) sin^2(c) = "
      f"{-4 * math.sin(a)**2 * math.sin(a - c)**2 * math.sin(c)**2:+.6f})")
for idx in itertools.combinations(range(4), 3):
    sub = np.array([[float(B[i, j]) for j in idx] for i in idx])
    print(f"    3x3 minor {idx}: det = {np.linalg.det(sub):+.2e}")

report = check_extreme_candidate(B)
print(f"    extreme-ray verdict: {report.is_extreme}  ({report.reason})")

print("\nEvery 3x3 principal minor vanishes: the submatrices all have rank 2,")
print("which is exactly the condition singling out extreme rays among the")
print("non-psd members of the dual cone.  Rank-one psd matrices are the")
print("other (and only other) extreme rays:")
x = np.array([1.0, -2.0, 0.5, 1.5])
from factorwidth.symcore import SymMatrix

rank1 = check_extreme_candidate(SymMatrix.from_array(np.outer(x, x)))
print(f"    xx^T: psd rank {rank1.psd_rank} -> extreme = {rank1.is_extreme}")
full = check_extreme_candidate(SymMatrix.identity(4).to_float())
print(f"    I_4: psd rank {full.psd_rank} -> extreme = {full.is_extreme}")

print("\nBecause the family is explicitly parametrized, separating a 4x4")
print("target at width 3 reduces to a grid-plus-descent search over angles,")
print("permutations and signs, in the target's unit-diagonal frame:")
for aa in (1.4, 1.5):
    Q = pna_form(PnaSpec(4, aa)).Q
    cert = cos_certificate_search(Q)
    if cert is None:
        print(f"    symmetric family at a={aa}: no separator "
              f"(at/above the width-3 threshold 3/2)")
    else:
        print(f"    symmetric family at a={aa}: separator found, "
              f"<B, Q> = {float(frobenius_inner(cert.B, Q)):+.6f}")

print("\nCLI equivalent:   factorwidth certify Q.json 3")

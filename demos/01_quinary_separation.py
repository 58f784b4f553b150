"""A 5-variable quadratic that escapes width-4 squares until multiplied.

Walks the package's flagship example end to end:

1. a quadratic form q_M whose (unique) Gram matrix M is psd but NOT a sum of
   matrices supported on 4x4 principal blocks -- certified exactly by a
   separating matrix A whose 4x4 principal submatrices are all psd while
   <A, M> = -1;
2. the degree-4 form (x1^2+...+x5^2) * q_M, which IS a sum of 4-nomial
   squares: its published Gram decomposes over just 27 of the 1365 possible
   4-subsets.

Run:  python3 demos/01_quinary_separation.py
"""

from fractions import Fraction

from factorwidth.decompose import SolverOptions, fw_membership
from factorwidth.dualcone import dual_membership
from factorwidth.families import example_m_fixtures
from factorwidth.symcore import Support, frobenius_inner, is_psd, principal_submatrix

fx = example_m_fixtures()
M, A = fx.M, fx.A

print("The 5x5 matrix M (exact integers):")
for row in M.rows():
    print("   ", row)

print("\nStep 1 -- M is positive semidefinite but not of factor width 4.")
print("The witness A lies in the dual cone: every 4x4 principal submatrix")
print("of A is psd (checked by exact rational pivoting, zero tolerance):")
for K in [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]:
    rep = is_psd(principal_submatrix(A, Support.of(K)), 0)
    print(f"    A_{K}: psd = {rep.is_psd}")
print(f"    dual membership of A at width 4: "
      f"{dual_membership(A, 4, 0).is_member}")

pairing = frobenius_inner(A, M)
print(f"\nAnd yet <A, M> = {pairing} exactly.")
print("A nonnegative pairing with every width-4 matrix is forced for members,")
print("so M cannot be one.\n")

print("The solver reaches the same verdict on its own (and re-verifies the")
print("certificate it finds):")
verdict = fw_membership(M, 4)
cert = verdict.certificate
print(f"    fw_membership(M, 4) -> {verdict.status}")
print(f"    certificate pairing <B, M> = {float(frobenius_inner(cert.B, M)):.6f}")
print(f"    certificate worst 4x4 eigenvalue margin = "
      f"{cert.worst_minor_margin:.2e}")

print("\nStep 2 -- multiplying by (x1^2 + ... + x5^2) repairs it.")
print("The lifted Gram (15x15, exact rationals, one sign fixed against the")
print("expansion identity) decomposes over the 27 published supports:")
opts = SolverOptions(feas_tol=1e-7, support_list=list(fx.supports27))
d = fw_membership(fx.Qprime, 4, opts).decomposition
print(f"    blocks: {len(d.blocks)}   recomputed residual: {d.residual:.2e}")
print(f"    target was {opts.feas_tol:g} * (1 + max|Q'|) = "
      f"{opts.feas_tol * (1 + fx.Qprime.max_abs()):.2e}")
print("    first three supports used:",
      [K.indices for K, _ in d.blocks[:3]])

print("\nSo q_M is not a sum of 4-nomial squares, but "
      "(sum of squares) * q_M is.")
print("CLI equivalents:")
print("    factorwidth check-fw M.json 4          # exit 1, certificate saved")
print("    factorwidth check-dual A.json 4        # exit 0")
print("    factorwidth check-fw Qprime.json 4 --supports s27.json  # exit 0")

"""The quasitriangular side: splitting r', the C_s family, transport of
the Casimir, and the inner-derivation identity.

    python3 demos/quasitriangular_walk.py
"""
from importlib.resources import files

from starlift import (
    c_s_graded_dims,
    c_s_map,
    center,
    check_inner_derivation,
    load_lie_algebra,
    pbw_product,
    qt_validate,
    sts_theta,
)
from starlift._rat import QQ, rat_str

g, rprime = load_lie_algebra(str(files("starlift").joinpath("data", "sl2-qt.json")))
qt = qt_validate(g, rprime)

print("r' entries:", [(i, j, rat_str(v)) for (i, j), v in rprime.entries])
print("antisymmetric part r:", [(i, j, rat_str(v)) for (i, j), v in qt.r.entries])
print("symmetric part t:", [(i, j, rat_str(v)) for (i, j), v in qt.t])
print("t nondegenerate:", qt.nondegenerate)

for s in ("0", "1", "-2"):
    dims = c_s_graded_dims(QQ(s), 4, qt)
    print(f"graded dimensions of C_{s}:", dims)

C = next(z for z in center(g, 4) if z.filtration == 2)
print("\nquadratic Casimir:", {m: rat_str(c) for m, c in sorted(C.coeffs.items())})
Th = sts_theta(C, qt)
print("its transport:    ", {m: rat_str(c) for m, c in sorted(Th.coeffs.items())})
print("transport lies in C_1:", c_s_map(Th, g, QQ(1)).is_zero())
print("transport is multiplicative on C^2:",
      sts_theta(pbw_product(C, C), qt) == pbw_product(Th, Th))

print("\ninner-derivation check (mu o delta == -ad mu(r')):")
rep = check_inner_derivation(qt)
print("passed:", rep["passed"])
for w in rep["witnesses"]:
    print(f"    generator {w['generator']}: mu(delta) =",
          tuple(rat_str(v) for v in w["mu_delta"]), "match:", w["match"])

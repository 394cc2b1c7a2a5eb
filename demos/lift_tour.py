"""Walk through the lift pipeline on sl2.

Run from the repository root:

    python3 demos/lift_tour.py
"""
import itertools

from starlift import (
    alt_project,
    cocycle_defect,
    cyb,
    dual_bracket,
    gauge_rho,
    lift,
    load_lie_algebra,
    pentagon_defect,
    poisson_traces,
    theta,
)
from starlift._rat import QQ, rat_str

try:
    from importlib.resources import files
except ImportError:
    raise SystemExit("needs Python 3.9+")


def show(tag, series, limit=8):
    items = sorted(series.coeffs.items())
    print(f"{tag}: {len(items)} terms")
    for key, c in items[:limit]:
        print("   ", key, rat_str(c))
    if len(items) > limit:
        print(f"    ... {len(items) - limit} more")


alg, r = load_lie_algebra(str(files("starlift").joinpath("data", "sl2.json")))
print(f"algebra: dim {alg.dim}, basis {alg.basis_names}")

Z = cyb(r)
show("Yang-Baxter tensor Z = cyb(r)", Z)

res = lift(r, 6)
phi, rho = res["phi"], res["rho"]
print("\npentagon defect of phi is zero:", pentagon_defect(phi).is_zero())
print("twist cocycle defect is zero:  ", cocycle_defect(rho, phi).is_zero())
print("alt class of phi == (2/3) Z:   ", alt_project(phi) == Z.scale(QQ(2, 3)))
show("\nphi (cubic and higher corrections)", phi)
show("rho (r plus higher corrections)", rho)

lam_items = {((0, 1, 1),): QQ(1, 2), ((2, 0, 0),): QQ(-1, 3)}
from starlift import FormalSeriesTensor

lam = FormalSeriesTensor.make(alg, 1, 6, lam_items)
moved = gauge_rho(lam, rho)
print("\nafter a lambda-gauge, cocycle defect still zero:",
      cocycle_defect(moved, phi).is_zero())

dual = dual_bracket(r)
print("\ndual bracket structure constants (nonzero, i<j):")
for (i, j), terms in itertools.groupby(dual.brackets, lambda item: item[0][:2]):
    if i < j:
        row = [(k, rat_str(v)) for (_, _, k), v in terms]
        print(f"    [{alg.basis_names[i]}*, {alg.basis_names[j]}*] ->", row)

print("\nPoisson traces up to order 4 and their transports:")
for t in poisson_traces(alg, 4):
    th = theta(t, rho)
    print(f"    order {t.order}: filtration {th.filtration},",
          {m: rat_str(c) for m, c in sorted(th.coeffs.items())})

moved_theta = [theta(t, moved) for t in poisson_traces(alg, 4)]
base_theta = [theta(t, rho) for t in poisson_traces(alg, 4)]
print("\ntheta unchanged by the gauge move:", moved_theta == base_theta)

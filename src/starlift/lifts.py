"""Inductive construction of the associator phi and the twist rho.

Both lifts run the same loop, `_lift`: compute the defect of the current
truncation, extract its lowest homogeneous class, solve d(beta) = class
(solve_coboundary checks that the class is a d-cocycle, and invariant when
asked), and add beta. Degree bookkeeping makes each step kill one more degree.

A defect is LHS - RHS, not the group form LHS * -RHS: the two vanish
together, and if RHS - LHS starts in degree m, each BCH word of L >= 2
letters in LHS and -RHS has degree >= m + L - 1, so their lowest parts agree.
"""
from __future__ import annotations

from ._rat import QQ
from .cohochschild import Cochain, solve_coboundary
from .core import (
    FormalSeriesTensor,
    RMatrix,
    alt_project,
    coproduct_insert,
    cyb,
    is_invariant,
)
from .errors import (
    CompatibilityViolation,
    NotInMSquared,
    NotInMTensor,
    NotInvariant,
    NotInWedge3,
    Obstruction,
    ObstructionAt4,
    RankCertificate,
)
from .star import negate, star


def pentagon_defect(phi: FormalSeriesTensor) -> FormalSeriesTensor:
    """(phi^{1,2,34} * phi^{12,3,4}) - (phi^{2,3,4} * phi^{1,23,4} * phi^{1,2,3}):
    zero iff LHS * -RHS is, with the same lowest part (see the module doc)."""
    if not phi.in_m_tensor():
        raise NotInMTensor("phi must lie in m^{(x)3}")
    lhs = star(coproduct_insert(phi, ((0,), (1,), (2, 3)), 4),
               coproduct_insert(phi, ((0, 1), (2,), (3,)), 4))
    rhs = star(
        star(coproduct_insert(phi, ((1,), (2,), (3,)), 4),
             coproduct_insert(phi, ((0,), (1, 2), (3,)), 4)),
        coproduct_insert(phi, ((0,), (1,), (2,)), 4),
    )
    return lhs - rhs


def cocycle_defect(rho: FormalSeriesTensor, phi: FormalSeriesTensor) -> FormalSeriesTensor:
    """(rho^{1,2} * rho^{12,3}) - (rho^{2,3} * rho^{1,23} * phi): zero iff
    LHS * -RHS is, with the same lowest part (see the module doc)."""
    if not rho.in_m_tensor():
        raise NotInMTensor("rho must lie in m^{(x)2}")
    if not phi.in_m_tensor():
        raise NotInMTensor("phi must lie in m^{(x)3}")
    lhs = star(coproduct_insert(rho, ((0,), (1,)), 3), coproduct_insert(rho, ((0, 1), (2,)), 3))
    rhs = star(star(coproduct_insert(rho, ((1,), (2,)), 3),
                    coproduct_insert(rho, ((0,), (1, 2)), 3)), phi)
    return lhs - rhs


def _lift(x: FormalSeriesTensor, N: int, M0: int, defect, invariant_only: bool):
    """The loop both lifts run: for M = M0 .. N-1, solve away the lowest
    class of defect(x.truncate(M + 1)), a (k+1)-cochain of degree M + 1."""
    for M in range(M0, N):
        err = defect(x.truncate(M + 1))
        if err.min_degree() < M + 1:
            raise RankCertificate(f"defect below current degree {M + 1}")
        cls = err.homogeneous_part(M + 1)
        if cls.is_zero():
            continue
        cochain = Cochain.make(x.k + 1, M + 1, cls.truncate(M + 1))
        x = x + solve_coboundary(cochain, invariant_only=invariant_only).value.truncate(N)
    return x


def lift_associator(Z: FormalSeriesTensor, N: int) -> FormalSeriesTensor:
    """Invariant phi in m^{(x)3} with alt_project(phi) = Z and zero pentagon
    defect mod degree N+1, built degree by degree from the antisymmetric
    embedding of Z."""
    if alt_project(Z) != Z:
        raise NotInWedge3("Z must be a totally antisymmetric 3-tensor")
    if not is_invariant(Z):
        raise NotInvariant("Z must be g-invariant")

    phi = Z.truncate(N)
    if phi.is_zero():
        return phi
    try:
        return _lift(phi, N, 3, pentagon_defect, invariant_only=True)
    except Obstruction as exc:
        raise ObstructionAt4(
            "nonzero obstruction class in wedge^4(g)^g at degree 4",
            cls=exc.context.get("cls"),
        ) from exc


# For rho = r the degree-3 defect class works out to
#     (1/2)cyb(r) + (1/2)[r^{12}, r^{23}] - phi_3,
# and alt_project([r^{12},r^{23}]) = (1/3)cyb(r) for antisymmetric r, so the
# class dies in cohomology iff alt_project(phi_3) = (2/3) alt_project(cyb(r)).
# That ratio is forced: no choice of beta corrections can repair it later.
TWIST_CLASS_RATIO = QQ(2, 3)


def lift_twist(r: RMatrix, phi: FormalSeriesTensor, N: int) -> FormalSeriesTensor:
    """rho in m^{(x)2} with degree-(1,1) part r and zero cocycle defect
    against phi mod degree N+1."""
    target = alt_project(cyb(r)).scale(TWIST_CLASS_RATIO)
    if alt_project(phi) != target:
        raise CompatibilityViolation(
            "alt class of phi's cubic part must be 2/3 of alt_project(cyb(r)) "
            "for the degree-3 step to be solvable"
        )

    return _lift(r.to_series(N), N, 2, lambda rho: cocycle_defect(rho, phi.truncate(rho.N)),
                 invariant_only=False)


def lift(r: RMatrix, N: int) -> dict:
    """Full lift pipeline: phi from the invariant class (2/3)cyb(r) (the
    unique scaling that lets the twist start; see TWIST_CLASS_RATIO), then
    rho against that phi. Returns {"Z": cyb(r), "phi": ..., "rho": ...}."""
    Z = cyb(r)
    phi = lift_associator(Z.scale(TWIST_CLASS_RATIO), N)
    rho = lift_twist(r, phi, N)
    return {"Z": Z, "phi": phi, "rho": rho}


def gauge_phi(sigma: FormalSeriesTensor, phi: FormalSeriesTensor) -> FormalSeriesTensor:
    """sigma . phi = sigma^{2,3} * sigma^{1,23} * phi * (-sigma)^{12,3} * (-sigma)^{1,2}."""
    if not sigma.in_m_tensor():
        raise NotInMTensor("sigma must lie in m^{(x)2}")
    if not is_invariant(sigma):
        raise NotInvariant("gauge element sigma must be g-invariant")
    neg = negate(sigma)
    out = star(coproduct_insert(sigma, ((1,), (2,)), 3),
               coproduct_insert(sigma, ((0,), (1, 2)), 3))
    out = star(out, phi)
    out = star(out, coproduct_insert(neg, ((0, 1), (2,)), 3))
    return star(out, coproduct_insert(neg, ((0,), (1,)), 3))


def gauge_rho(lam: FormalSeriesTensor, rho: FormalSeriesTensor) -> FormalSeriesTensor:
    """lambda . rho = lambda^{1} * lambda^{2} * rho * (-lambda)^{12}."""
    if lam.k != 1 or not lam.in_m_squared():
        raise NotInMSquared("gauge element lambda must be a 1-slot element of m^2")
    out = star(coproduct_insert(lam, ((0,),), 2), coproduct_insert(lam, ((1,),), 2))
    out = star(out, rho)
    return star(out, coproduct_insert(negate(lam), ((0, 1),), 2))

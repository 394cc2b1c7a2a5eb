"""Core data structures: algebra specs, series tensors, the coalgebra
operations, and the classical Yang-Baxter residual."""
import pytest

from starlift import (
    FormalSeriesTensor,
    LieAlgebraSpec,
    LinearForm,
    PBWElement,
    PBWTensorSquare,
    QTStructure,
    RMatrix,
    alt_project,
    coproduct_insert,
    cyb,
    g_action,
    is_invariant,
    load_lie_algebra,
    multiply,
    poisson_bracket,
    qt_validate,
)
from starlift._rat import QQ
from starlift.cohochschild import Cochain
from starlift.errors import (
    AntisymmetryViolation,
    JacobiViolation,
    ParseError,
    SlotMismatch,
    TruncationMismatch,
)

from conftest import dense_c

E, H, F = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_load_validates(sl2):
    alg, r = sl2
    assert alg.dim == 3
    assert alg.basis_names == ("e", "h", "f")
    assert r is not None and r.kind == "antisymmetric-coboundary"


def test_kind_autodetected(sl2qt):
    alg, r = sl2qt
    assert r.kind == "quasitriangular-candidate"


def test_structure_constants(sl2):
    alg, _ = sl2
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h
    c = dense_c(alg)
    assert c[1][0][0] == 2
    assert c[1][2][2] == -2
    assert c[0][2][1] == 1
    assert c[2][0][1] == -1
    # only the nonzero constants are stored, in index order
    keys = [key for key, v in alg.brackets if v]
    assert keys == sorted(set(keys)) == [key for key, _ in alg.brackets] and len(keys) == 6


def test_jacobi_violation_rejected():
    bad = {
        "dim": 3,
        "basis": ["a", "b", "c"],
        "brackets": [[0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]], [2, 0, [[0, "1"]]]],
    }
    with pytest.raises(JacobiViolation):
        load_lie_algebra(bad)


def test_antisymmetry_violation_rejected():
    bad = {
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [],
        "kind": "antisymmetric-coboundary",
        "r": [[0, 1, "1"], [1, 0, "1"]],
    }
    with pytest.raises(AntisymmetryViolation):
        load_lie_algebra(bad)


def test_symmetric_r_autodetected_as_candidate():
    _, r = load_lie_algebra(
        {"dim": 2, "basis": ["a", "b"], "brackets": [], "r": [[0, 1, "1"], [1, 0, "1"]]}
    )
    assert r.kind == "quasitriangular-candidate"


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        load_lie_algebra("{not json")
    with pytest.raises(ParseError):
        load_lie_algebra({"basis": []})
    with pytest.raises(ParseError):
        load_lie_algebra({"dim": 2, "basis": ["a"]})
    with pytest.raises(ParseError):
        load_lie_algebra({"dim": 1, "brackets": [], "kind": "mystery", "r": [[0, 0, "1"]]})


def test_spec_equality_is_structural(sl2):
    alg, _ = sl2
    again, _ = load_lie_algebra(
        {
            "dim": 3,
            "basis": ["e", "h", "f"],
            "brackets": [
                [1, 0, [[0, "2"]]],
                [1, 2, [[2, "-2"]]],
                [0, 2, [[1, "1"]]],
            ],
        }
    )
    assert alg == again and alg is not again


def test_series_arithmetic(sl2):
    alg, _ = sl2
    x = FormalSeriesTensor.generator(alg, 0, 4)
    y = FormalSeriesTensor.generator(alg, 1, 4)
    s = x + y
    assert s.coeffs == {(E,): QQ(1), (H,): QQ(1)}
    assert (s - s).is_zero()
    assert s.scale(QQ(1, 2)).coeffs[(E,)] == QQ(1, 2)
    assert (-s).coeffs[(H,)] == QQ(-1)


def test_series_truncate_and_parts(sl2):
    alg, _ = sl2
    f = FormalSeriesTensor.make(alg, 1, 5, {(E,): QQ(1), ((2, 1, 0),): QQ(3)})
    assert f.homogeneous_part(3).coeffs == {((2, 1, 0),): QQ(3)}
    assert f.truncate(2).coeffs == {(E,): QQ(1)}
    assert f.min_degree() == 1


def test_mismatched_truncations_rejected(sl2):
    alg, _ = sl2
    f = FormalSeriesTensor.generator(alg, 0, 4)
    g = FormalSeriesTensor.generator(alg, 1, 5)
    with pytest.raises(TruncationMismatch):
        poisson_bracket(f, g)


def test_mismatched_slots_rejected(sl2):
    alg, _ = sl2
    f = FormalSeriesTensor.generator(alg, 0, 4)
    g = coproduct_insert(f, [(0,)], 2)  # x_0 (x) 1
    with pytest.raises(SlotMismatch):
        f + g


def test_multiply():
    alg, _ = load_lie_algebra({"dim": 1, "basis": ["x"], "brackets": []})
    x = FormalSeriesTensor.generator(alg, 0, 4)
    assert multiply(x, x).coeffs == {((2,),): QQ(1)}
    assert multiply(multiply(x, x), x).coeffs == {((3,),): QQ(1)}


def test_poisson_bracket_is_kirillov(sl2):
    alg, _ = sl2
    xe = FormalSeriesTensor.generator(alg, 0, 3)
    xh = FormalSeriesTensor.generator(alg, 1, 3)
    xf = FormalSeriesTensor.generator(alg, 2, 3)
    # {xi_e, xi_f} = xi_h, {xi_h, xi_e} = 2 xi_e
    assert poisson_bracket(xe, xf) == xh
    assert poisson_bracket(xh, xe) == xe.scale(QQ(2))
    assert poisson_bracket(xe, xe).is_zero()


def test_poisson_bracket_leibniz(sl2):
    alg, _ = sl2
    xe = FormalSeriesTensor.generator(alg, 0, 6)
    xf = FormalSeriesTensor.generator(alg, 2, 6)
    xh = FormalSeriesTensor.generator(alg, 1, 6)
    lhs = poisson_bracket(multiply(xe, xe), xf)
    rhs = multiply(xe, poisson_bracket(xe, xf)) + multiply(poisson_bracket(xe, xf), xe)
    assert lhs == rhs
    assert rhs == multiply(xe, xh).scale(QQ(2))


def test_g_action_and_invariance(sl2):
    alg, _ = sl2
    # 2ef + h^2/2 is the adjoint-invariant quadratic in S(g); e alone is not
    cas = FormalSeriesTensor.make(
        alg, 1, 4, {((1, 0, 1),): QQ(2), ((0, 2, 0),): QQ(1, 2)}
    )
    assert is_invariant(cas)
    xe = FormalSeriesTensor.generator(alg, 0, 4)
    assert not is_invariant(xe)
    assert any(not g_action(i, xe).is_zero() for i in range(3))
    assert is_invariant(FormalSeriesTensor.make(alg, 0, 4, {(): QQ(3)}))  # a 0-slot constant


def test_coproduct_insert_primitive(sl2):
    alg, _ = sl2
    xe = FormalSeriesTensor.generator(alg, 0, 3)
    d = coproduct_insert(xe, ((0, 1),), 2)
    zero = (0, 0, 0)
    assert d.coeffs == {(E, zero): QQ(1), (zero, E): QQ(1)}


def test_coproduct_insert_square(sl2):
    alg, _ = sl2
    xe = FormalSeriesTensor.generator(alg, 0, 3)
    sq = multiply(xe, xe)
    d = coproduct_insert(sq, ((0, 1),), 2)
    zero = (0, 0, 0)
    assert d.coeffs == {
        ((2, 0, 0), zero): QQ(1),
        (E, E): QQ(2),
        (zero, (2, 0, 0)): QQ(1),
    }


def test_alt_project(sl2):
    alg, _ = sl2
    ef = FormalSeriesTensor.make(alg, 2, 2, {(E, F): QQ(1)})
    a = alt_project(ef)
    assert a.coeffs == {(E, F): QQ(1, 2), (F, E): QQ(-1, 2)}
    assert alt_project(a) == a


def test_cyb_sl2_frozen(sl2):
    alg, r = sl2
    Z = cyb(r)
    q = QQ(1, 4)
    expected = {
        (E, H, F): -q, (E, F, H): q, (H, E, F): q,
        (H, F, E): -q, (F, E, H): -q, (F, H, E): q,
    }
    assert Z.coeffs == expected
    assert alt_project(Z) == Z
    assert is_invariant(Z)


def test_cyb_vanishes_on_triangular(abelian3, nonabelian2):
    for alg, r in (abelian3, nonabelian2):
        assert cyb(r).is_zero()


# ---- the record classes -------------------------------------------------------

RECORD_FIELDS = {
    LieAlgebraSpec: ("dim", "basis_names", "brackets"),
    RMatrix: ("alg", "entries", "kind"),
    FormalSeriesTensor: ("alg", "k", "N", "numerators"),
    Cochain: ("k", "degree", "value"),
    QTStructure: ("g", "rprime", "r", "t", "Z", "nondegenerate"),
    PBWElement: ("alg", "numerators"),
    PBWTensorSquare: ("alg", "numerators"),
    LinearForm: ("alg", "numerators"),
}


def _record(cls, sl2, sl2qt):
    alg, r = sl2
    return {
        LieAlgebraSpec: alg,
        RMatrix: r,
        FormalSeriesTensor: r.to_series(3),
        Cochain: Cochain.make(2, 2, r.to_series(2)),
        QTStructure: qt_validate(*sl2qt),
        PBWElement: PBWElement.one(alg),
        PBWTensorSquare: PBWTensorSquare.make(alg, {((0,), (1,)): QQ(1)}),
        LinearForm: LinearForm.one(alg),
    }[cls]


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(sl2, sl2qt, cls):
    rec = _record(cls, sl2, sl2qt)
    for name in RECORD_FIELDS[cls]:
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        if getattr(rec, name) is not before:
            raise AssertionError(f"{cls.__name__}.{name} changed")
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_value_records_compare_and_hash_by_fields(sl2, sl2qt):
    alg, r = sl2
    twin = LieAlgebraSpec(alg.dim, alg.basis_names, alg.brackets)
    assert twin is not alg and twin == alg and hash(twin) == hash(alg)
    same_r = RMatrix(twin, r.entries)
    assert same_r == r and hash(same_r) == hash(r)
    assert RMatrix(alg, r.entries, "quasitriangular-candidate") != r
    assert Cochain.make(2, 2, r.to_series(2)) == Cochain.make(2, 2, r.to_series(5).truncate(2))
    assert qt_validate(*sl2qt) == qt_validate(*sl2qt)
    # a series is unhashable, and so is every record holding one
    for rec in (r.to_series(2), Cochain.make(2, 2, r.to_series(2)), qt_validate(*sl2qt)):
        with pytest.raises(TypeError):
            hash(rec)


def test_rmatrix_reads_its_fields_for_hashing_once(sl2, monkeypatch):
    """Memo keys such as ("sts_alpha", r', mono) hash r' on every lookup;
    its entries are hashed on the first one only."""
    alg, r = sl2
    reads = []
    values = RMatrix._values
    monkeypatch.setattr(RMatrix, "_values", lambda self: reads.append(id(self)) or values(self))
    fresh = RMatrix(alg, r.entries)
    twin = RMatrix(alg, tuple(item for item in r.entries))
    memo = {("sts_alpha", fresh, (0, 1)): 1}
    for _ in range(5):
        assert hash(fresh) == hash(twin) == hash(r)
        assert memo.get(("sts_alpha", fresh, (0, 1))) == 1
    assert reads.count(id(fresh)) == reads.count(id(twin)) == 1

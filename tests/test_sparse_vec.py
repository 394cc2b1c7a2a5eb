"""The linear structure shared by the four sparse types: zero, negation and
scaling behave alike, and each type refuses operands from another space
with its own typed error."""
import pytest

from starlift import FormalSeriesTensor, LinearForm, copoisson_delta, dual_bracket
from starlift._rat import QQ
from starlift.envelope import TAG_G, TAG_GSTAR, PBWElement, PBWTensorSquare
from starlift.errors import AlgebraMismatch


def _samples(alg):
    """One nonzero element of each sparse type over alg."""
    return {
        "series": FormalSeriesTensor.make(
            alg, 2, 4, {((1, 0, 0), (0, 1, 0)): QQ(2, 3), ((0, 0, 1), (1, 1, 0)): QQ(-5)}),
        "form": LinearForm.make(alg, {(1, 0, 0): QQ(1, 2), (0, 2, 1): QQ(-7, 3)}),
        "pbw": PBWElement.make(alg, TAG_G, {(0, 2): QQ(3), (1,): QQ(-1, 4)}),
        "square": PBWTensorSquare(alg, TAG_GSTAR, {((0,), (1, 2)): QQ(5, 6), ((), (2,)): QQ(1)}),
    }


@pytest.mark.parametrize("kind", ["series", "form", "pbw", "square"])
def test_linear_identities(sl2, kind):
    a = _samples(sl2[0])[kind]
    zero = type(a).zero(*a._frame())
    assert (a - a).is_zero() and a - a == zero
    assert a.scale(0).is_zero() and a.scale(0) == zero
    assert -(-a) == a
    assert a + zero == a
    assert type(a - a) is type(a) and (a - a)._frame() == a._frame()


def test_tensor_squares_over_different_algebras_do_not_add(sl2, nonabelian2):
    a = PBWTensorSquare(sl2[0], TAG_G, {((0,), (1,)): QQ(1)})
    b = PBWTensorSquare(nonabelian2[0], TAG_G, {((0,), (1,)): QQ(1)})
    with pytest.raises(AlgebraMismatch):
        a + b
    with pytest.raises(AlgebraMismatch):
        a - PBWTensorSquare(sl2[0], TAG_GSTAR, dict(a.coeffs))


@pytest.mark.parametrize("order", [(TAG_G, TAG_GSTAR), (TAG_GSTAR, TAG_G)])
def test_copoisson_delta_memo_keeps_tags_apart(sl2, order):
    """The monomial memo is shared by both tags of one dual algebra; each
    call still returns its input's tag and the same coefficients."""
    alg, r = sl2
    dual = dual_bracket(r)
    mono = (0, 1, 2)
    out = {tag: copoisson_delta(PBWElement.make(dual, tag, {mono: QQ(1)}), alg)
           for tag in order}
    assert out[TAG_G].coeffs == out[TAG_GSTAR].coeffs
    assert not out[TAG_G].is_zero()
    assert [out[tag].tag for tag in order] == list(order)

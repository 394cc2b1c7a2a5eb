import pytest
from hypothesis import given
from hypothesis import strategies as st

from starlift._rat import ONE, QQ, ZERO, rat, rat_str


def test_rat_parses_strings():
    assert rat("1/2") == QQ(1, 2)
    assert rat("-3/6") == QQ(-1, 2)
    assert rat("7") == QQ(7)


def test_rat_accepts_ints():
    assert rat(5) == QQ(5)
    assert rat(0) == ZERO


def test_rat_rejects_floats():
    with pytest.raises(Exception):
        rat(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_rat_rejects_bools(value):
    with pytest.raises(TypeError, match="bool"):
        rat(value)


def test_rat_rejects_garbage():
    with pytest.raises(Exception):
        rat("1/0")
    with pytest.raises(Exception):
        rat("a/b")


def test_rat_str_canonical():
    assert rat_str(QQ(2)) == "2"
    assert rat_str(QQ(1, 2)) == "1/2"
    assert rat_str(QQ(-4, 8)) == "-1/2"
    assert rat_str(QQ(6, 3)) == "2"
    assert rat_str(ZERO) == "0"
    assert rat_str(ONE) == "1"


def test_exact_arithmetic():
    # 1/3 + 1/6 must be exactly 1/2, no epsilon anywhere
    assert QQ(1, 3) + QQ(1, 6) == QQ(1, 2)
    assert QQ(1, 10) * 10 == ONE


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_rat_str_round_trips(p, q):
    v = QQ(p, q)
    assert rat(rat_str(v)) == v

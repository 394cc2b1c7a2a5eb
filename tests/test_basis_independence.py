"""Every basis-free field of a report is the same in any basis: the shipped
sl2, nonabelian2 and sl2-qt inputs, rebased by drawn unimodular matrices
with r transformed to match, give the same certificates, dimensions,
filtrations, orders, ranks and ratios at low degree."""
import contextlib
import io
import itertools
import json
from functools import cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from starlift import RMatrix, load_lie_algebra
from starlift._rat import rat_str
from starlift.cli import main

from conftest import data_path, dense_c, dense_r, sparse_r
from test_actor_oracle import _rebased, unimodular

# per input: (command and options, the report fields that name no basis element)
RUNS = {
    "sl2": [
        (("lift", "--degree", "4"), ("certificates", "alt_phi_to_z_ratio")),
        (("cohomology", "--degree", "3"), ("certificates", "dimensions", "invariant_dimensions")),
        (("envelope", "--maxdeg", "3"),
         ("certificates", "center_dim", "center_filtrations", "invariant_dims")),
        (("theta", "--degree", "3", "--maxdeg", "3"), ("certificates", "trace_orders")),
    ],
    "sl2-qt": [
        (("qt", "--maxdeg", "3", "--s", "1/2"),
         ("certificates", "c_s_graded_dims", "nondegenerate", "alpha_rank", "image_comparison")),
    ],
}
RUNS["nonabelian2"] = RUNS["sl2"]


def _report(spec: dict, argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], json.dumps(spec), *argv[1:], "--emit", "certificates"])
    return code, json.loads(out.getvalue())


def _spec(alg, r) -> dict:
    """The input JSON object of alg with r, listing each bracket once."""
    d = alg.dim
    c = dense_c(alg)
    return {
        "dim": d,
        "basis": list(alg.basis_names),
        "brackets": [[i, j, [[k, rat_str(v)] for k, v in enumerate(c[i][j]) if v]]
                     for i, j in itertools.combinations(range(d), 2) if any(c[i][j])],
        "r": [[i, j, rat_str(v)] for (i, j), v in r.entries],
        "kind": r.kind,
    }


def _rebased_r(r, Pinv):
    """r in the basis y_a = sum_i P[a][i] x_i: r'_ab = Pinv_ia r_ij Pinv_jb."""
    d = len(Pinv)
    ent = dense_r(r.entries, d)
    return RMatrix(r.alg, sparse_r(tuple(
        sum(Pinv[i][a] * ent[i][j] * Pinv[j][b] for i in range(d) for j in range(d))
        for b in range(d)) for a in range(d)), r.kind)


@cache
def _shipped(name) -> tuple:
    alg, r = load_lie_algebra(data_path(name))
    return alg, r, tuple(_basis_free(_spec(alg, r), name))


def _basis_free(spec, name):
    for argv, fields in RUNS[name]:
        code, report = _report(spec, argv)
        yield argv[0], code, {field: report[field] for field in fields}


@pytest.mark.parametrize("name", sorted(RUNS))
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_reports_do_not_depend_on_the_basis(name, data):
    alg, r, want = _shipped(name)
    P, Pinv = data.draw(unimodular(alg.dim))
    spec = _spec(_rebased(alg, P, Pinv), _rebased_r(r, Pinv))
    assert tuple(_basis_free(spec, name)) == want

"""Seeded inputs and the job list of each benchmark workload.

The seed only chooses coefficients (``Params``): the values of a dense sl2
``r`` within a fixed sparsity pattern, a rational multiple of the standard
sl3 ``r``, a rescaling of the shipped sl2 ``r`` and the ``--s`` of the ``qt``
job. Every value comes from ``SIGNED_VALUES``, small-height rationals of
either sign, so the supports of all series (and with them the work done)
stay the same from seed to seed. The program itself only ever sees the JSON
files written here and the CLI flags.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DATA = Path("src") / "starlift" / "data"

VALUES = tuple(Fraction(v) for v in ("1/2", "2/3", "3/4", "1", "4/3", "3/2", "2"))
SIGNED_VALUES = tuple(sign * v for v in VALUES for sign in (1, -1))

# sl3 in the basis E12 E13 E21 E23 E31 E32 H1=E11-E22 H2=E22-E33.
SL3_BASIS = ("E12", "E13", "E21", "E23", "E31", "E32", "H1", "H2")
_OFF_DIAGONAL = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
_CARTAN = ({0: 1, 1: -1}, {1: 1, 2: -1})


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``python -m starlift.cli <argv> --emit full``.

    ``argv[1]`` is the input file. ``pinned`` says that the digest of the
    report is pinned for every seed, not only for the default one.
    """

    name: str
    argv: tuple
    pinned: bool = True


@dataclass(frozen=True)
class Params:
    """Everything a seed decides."""

    sl3_scale: Fraction
    dense: tuple  # (a, b, c) of the dense sl2 r = a e^h + b e^f + c h^f
    theta_scale: Fraction
    qt_s: Fraction

    @classmethod
    def from_seed(cls, seed: int) -> "Params":
        """One ``random.Random(seed)`` draws every value in a fixed order."""
        rng = random.Random(seed)
        sl3_scale = rng.choice(SIGNED_VALUES)
        # The CYB class of the dense r is (b^2 + 4ac) e^h^f, so a and c
        # share a sign and the lift never degenerates to zero.
        ac_sign = rng.choice((1, -1))
        dense = (ac_sign * rng.choice(VALUES), rng.choice(SIGNED_VALUES),
                 ac_sign * rng.choice(VALUES))
        return cls(sl3_scale, dense, rng.choice(SIGNED_VALUES), rng.choice(SIGNED_VALUES))


def _matrix(index: int) -> dict:
    """Basis element ``index`` of sl3 as a sparse 3x3 matrix {(i, j): value}."""
    if index < len(_OFF_DIAGONAL):
        return {_OFF_DIAGONAL[index]: Fraction(1)}
    return {(i, i): Fraction(v) for i, v in _CARTAN[index - len(_OFF_DIAGONAL)].items()}


def _commutator(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    for (i, k), x in b.items():
        for (k2, j), y in a.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) - x * y
    return {key: v for key, v in out.items() if v}


def _coordinates(m: dict) -> dict:
    """Coordinates of a traceless 3x3 matrix in ``SL3_BASIS``."""
    out = {}
    for index, pos in enumerate(_OFF_DIAGONAL):
        if m.get(pos):
            out[index] = m[pos]
    d0, d1 = m.get((0, 0), 0), m.get((1, 1), 0)
    # diag(a, b, c) = a*H1 + (a + b)*H2 when a + b + c = 0
    if d0:
        out[6] = d0
    if d0 + d1:
        out[7] = d0 + d1
    return out


def sl3_spec(scale: Fraction) -> dict:
    """sl3 from exact matrix-unit commutators, with ``r = scale * 1/2 sum_{i<j} E_ij ^ E_ji``."""
    brackets = []
    for a in range(8):
        for b in range(a + 1, 8):
            coords = _coordinates(_commutator(_matrix(a), _matrix(b)))
            if coords:
                brackets.append([a, b, [[k, str(v)] for k, v in sorted(coords.items())]])
    half = scale / 2
    r = []
    for upper, lower in ((0, 2), (1, 4), (3, 5)):  # (E12, E21), (E13, E31), (E23, E32)
        r += [[upper, lower, str(half)], [lower, upper, str(-half)]]
    return {"dim": 8, "basis": list(SL3_BASIS), "brackets": brackets, "r": r}


def _sl2_with_r(pairs: dict) -> dict:
    """The shipped sl2 structure constants with an antisymmetric r {(i, j): value}."""
    spec = json.loads((DATA / "sl2.json").read_text())
    spec["r"] = []
    for (i, j), v in sorted(pairs.items()):
        spec["r"] += [[i, j, str(v)], [j, i, str(-v)]]
    return spec


def _write(path: Path, spec: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
    return str(path)


def workload_jobs(workload: str, params: Params, outdir: Path) -> list:
    """Write the inputs of ``workload`` under ``outdir`` and return its jobs."""
    sl2 = str(DATA / "sl2.json")
    if workload == "lift":
        a, b, c = params.dense
        dense_path = _write(outdir / "sl2-dense.json", _sl2_with_r({(0, 1): a, (0, 2): b, (1, 2): c}))
        sl3_path = _write(outdir / "sl3.json", sl3_spec(params.sl3_scale))
        return [
            Job("lift-sl2-d5", ("lift", sl2, "--degree", "5")),
            # too many value triples to pin them all: checked at the default seed
            Job("lift-sl2dense-d4", ("lift", dense_path, "--degree", "4"), pinned=False),
            Job("lift-sl3-d3", ("lift", sl3_path, "--degree", "3")),
        ]
    if workload == "cohomology":
        path = _write(outdir / "sl3.json", sl3_spec(params.sl3_scale))
        return [Job("cohomology-sl3-d3", ("cohomology", path, "--degree", "3"))]
    if workload == "theta":
        path = _write(outdir / "sl2-scaled.json", _sl2_with_r({(0, 2): params.theta_scale / 2}))
        return [Job("theta-sl2-m3", ("theta", path, "--maxdeg", "3"))]
    if workload == "envelope":
        path = _write(outdir / "sl3.json", sl3_spec(params.sl3_scale))
        qt = str(DATA / "sl2-qt.json")
        return [
            Job("envelope-sl3-m3", ("envelope", path, "--maxdeg", "3")),
            Job("qt-sl2qt-m4", ("qt", qt, "--maxdeg", "4", f"--s={params.qt_s}")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("lift", "cohomology", "theta", "envelope")

"""corrlab validate and a load run one check path at the JSON trust boundary.

A table of files, valid ones and one fault of each kind, is loaded with
``load_value`` and checked with ``corrlab validate``.  For every file:

- validate exits 0 iff the load returns, 1 iff it raises a ValidationError,
  and 2 iff it raises ParseError, SchemaError or DimensionTooLarge;
- when validate prints check lines, stderr is empty and its first FAIL line
  names the load's error: its message for a one-line check (a left action,
  ``simplex``), else the check's name and the load's residual;
- when it prints nothing, the file could not be built: stderr carries the
  load's message, or, where the load stopped at a failed check, the fault
  that stops the build (a trace that is no rank).
"""

import json

import numpy as np
import pytest

from corrlab.algebra import make_algebra
from corrlab.errors import (
    CorrLabError,
    DimensionTooLarge,
    EndpointMismatch,
    NotIntertwining,
    NotMultiplicative,
    NotRightLinear,
    NotStarPreserving,
    NotUnitary,
    ParseError,
    PentagonViolated,
    SchemaError,
    ValidationError,
)
from corrlab.generators import random_correspondence, random_simplex, random_unital_hom
from corrlab.modules import CorrIso
from corrlab.nerve import HornSpec, face, identity_iso
from corrlab.serialize import load_value, matrix_to_json, value_to_json
from test_serialize_cli import run_cli

# the per-check lines, whose text shows the residual, not the message
CHECK = {
    NotStarPreserving: "star-preserving",
    NotMultiplicative: "multiplicative",
    NotRightLinear: "right-linear",
    NotUnitary: "unitary",
    NotIntertwining: "intertwining",
    PentagonViolated: "pentagon",
}


def small_simplex(seed, n):
    return random_simplex(np.random.default_rng(seed), n, max_blocks=2, max_size=2, max_mult=1)


def iso_case():
    """identity_iso of a correspondence [2, 1] -> [1, 2] (repro (a)'s)."""
    e = random_correspondence(make_algebra((2, 1)), make_algebra((1, 2)), np.random.default_rng(3))
    return e, value_to_json(identity_iso(e))


def double_column(action):
    """Double the image of e_01 in the first source block of size 2 or more,
    in a star_hom record: the star breaks, the traces stay ranks."""
    blocks = action["src"]["blocks"]
    cols = sum(b * b for b in blocks)
    i = next(i for i, b in enumerate(blocks) if b >= 2)
    col = sum(b * b for b in blocks[:i]) + 1
    m = action["matrix"]
    for r in range(len(m) // cols):
        m[r * cols + col] = [2 * x for x in m[r * cols + col]]


def edge(doc, i, j):
    return next(e["corr"] for e in doc["edges"] if (e["i"], e["j"]) == (i, j))


def scaled(rec, key, factor):
    rec[key] = [[factor * x for x in entry] for entry in rec[key]]


def hom_doc():
    return value_to_json(random_unital_hom(make_algebra((2, 1)), np.random.default_rng(4)))


def corr_doc():
    return value_to_json(iso_case()[0])


def simplex_doc(seed=5, n=2):
    return value_to_json(small_simplex(seed, n))


def horn_doc():
    s = small_simplex(5, 3)
    return value_to_json(HornSpec(3, 1, {j: face(s, j) for j in (0, 2, 3)}))


def hom_not_star():
    doc = hom_doc()
    double_column(doc)
    return doc


def hom_not_multiplicative():
    doc = hom_doc()
    doc["matrix"][0][0] += 1e-3
    return doc


def hom_tripled():
    """Not multiplicative, and its traces are no ranks, so validate cannot
    build it: it prints no line and refuses the trace."""
    doc = hom_doc()
    doc["matrix"] = [[3 * x for x in entry] for entry in doc["matrix"]]
    return doc


def corr_not_star():
    doc = corr_doc()
    double_column(doc["left_action"])
    return doc


def corr_not_unital():
    return {"src": {"blocks": [1]}, "dst": {"blocks": [1]}, "mult": [2],
            "left_action": {"src": {"blocks": [1]}, "dst": {"blocks": [2]},
                            "matrix": [[1, 0]] + [[0, 0]] * 3}}


def repro_a_iso_ends_not_star():
    """Both ends' actions break the star; validate used to pass the file."""
    doc = iso_case()[1]
    for end in ("src", "dst"):
        double_column(doc[end]["left_action"])
    return doc


def iso_not_unitary():
    doc = iso_case()[1]
    scaled(doc, "unitary", 1.001)
    return doc


def iso_not_intertwining():
    """The identity of [2, 1] -> [1, 2] with block 0 (multiplicity 2)
    rotated: unitary and right linear, but the action on that block is all
    of M_2, which the rotation does not commute with."""
    e, _ = iso_case()
    c, s = np.cos(0.3), np.sin(0.3)
    blocks = [np.eye(m, dtype=complex) for m in e.module.mult]
    blocks[0] = np.array([[c, -s], [s, c]], dtype=complex)
    doc = value_to_json(identity_iso(e))
    doc["unitary"] = matrix_to_json(CorrIso._trusted(e, e, blocks).dense())
    return doc


def repro_b_edge_not_multiplicative():
    """Edge (0, 1)'s action moved by 1e-3: validate used to blame the cell."""
    doc = simplex_doc()
    edge(doc, 0, 1)["left_action"]["matrix"][0][0] += 1e-3
    return doc


def edge_not_star():
    doc = simplex_doc()
    double_column(edge(doc, 0, 1)["left_action"])
    return doc


def repro_c_cell_moved():
    """Cell (0, 1, 2) moved by 1e-6 (untrusted-io's "cell" defect):
    validate used to print no line."""
    doc = simplex_doc()
    doc["cells"][0]["unitary"][0][0] += 1e-6
    return doc


def cell_not_unitary():
    doc = simplex_doc(seed=3, n=3)
    scaled(doc["cells"][1], "unitary", 1.001)
    return doc


def pentagon_violated():
    """Cell (0, 1, 2) negated: still a unitary intertwiner, but no pentagon
    through it holds."""
    doc = simplex_doc(seed=3, n=3)
    scaled(doc["cells"][0], "unitary", -1.0)
    return doc


def algebras_swapped():
    doc = value_to_json(small_simplex(2, 1))
    doc["algebras"].reverse()
    return doc


def horn_face_edge_not_star():
    doc = horn_doc()
    double_column(edge(doc["faces"][1]["simplex"], 0, 1)["left_action"])  # face 2's, from A_0
    return doc


def horn_face_cell_moved():
    doc = horn_doc()
    doc["faces"][2]["simplex"]["cells"][0]["unitary"][0][0] += 1e-6
    return doc


def cut_file():
    return json.dumps(simplex_doc())[:1000]


def missing_key():
    doc = simplex_doc()
    del doc["cells"]
    return doc


def too_large():
    return {"blocks": [17]}


# name -> (file builder, what the load raises; None when it returns)
CORPUS = {
    "algebra": (lambda: {"blocks": [2, 1], "label": ""}, None),
    "hom": (hom_doc, None),
    "module": (lambda: {"base": {"blocks": [2, 1]}, "mult": [1, 2]}, None),
    "corr": (corr_doc, None),
    "iso": (lambda: iso_case()[1], None),
    "simplex-2": (simplex_doc, None),
    "simplex-3": (lambda: simplex_doc(seed=3, n=3), None),
    "horn": (horn_doc, None),
    "hom-not-star": (hom_not_star, NotStarPreserving),
    "hom-not-multiplicative": (hom_not_multiplicative, NotMultiplicative),
    "hom-tripled": (hom_tripled, NotMultiplicative),
    "corr-not-star": (corr_not_star, NotStarPreserving),
    "corr-not-unital": (corr_not_unital, EndpointMismatch),
    "repro-a-iso-ends-not-star": (repro_a_iso_ends_not_star, NotStarPreserving),
    "iso-not-unitary": (iso_not_unitary, NotUnitary),
    "iso-not-intertwining": (iso_not_intertwining, NotIntertwining),
    "repro-b-edge-not-multiplicative": (repro_b_edge_not_multiplicative, NotMultiplicative),
    "edge-not-star": (edge_not_star, NotStarPreserving),
    "repro-c-cell-moved": (repro_c_cell_moved, NotRightLinear),
    "cell-not-unitary": (cell_not_unitary, NotUnitary),
    "pentagon-violated": (pentagon_violated, PentagonViolated),
    "algebras-swapped": (algebras_swapped, EndpointMismatch),
    "horn-face-edge-not-star": (horn_face_edge_not_star, NotStarPreserving),
    "horn-face-cell-moved": (horn_face_cell_moved, NotRightLinear),
    "cut-file": (cut_file, ParseError),
    "missing-key": (missing_key, SchemaError),
    "too-large": (too_large, DimensionTooLarge),
}


def write(tmp_path, name):
    build, want = CORPUS[name]
    doc = build()
    path = tmp_path / f"{name}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path, want


def first_fail(out):
    return next(line for line in out.splitlines() if ": FAIL" in line)


@pytest.mark.parametrize("name", list(CORPUS))
def test_validate_agrees_with_load(tmp_path, name):
    path, want = write(tmp_path, name)
    try:
        load_value(path)
        refused = None
    except CorrLabError as err:
        refused = err
    assert type(refused) is type(None) if want is None else type(refused) is want
    code, out, err = run_cli(["validate", str(path)])
    assert code == (0 if refused is None else 1 if isinstance(refused, ValidationError) else 2)
    if out:
        assert err == "" and out.startswith("parsed: ")
        assert out.endswith("all invariants pass\n" if code == 0 else "validation failed\n")
        if refused is not None:
            line = first_fail(out)
            if str(refused) not in line:  # a per-check line: name and residual
                assert f"{CHECK[type(refused)]}: FAIL" in line
                assert f"(residual {refused.residual:.3e})" in line
                assert str(getattr(refused, "indices", "")) in line
    elif type(refused) in CHECK:
        assert err.startswith("validation error: ") and "not a rank" in err
    else:
        kind = "validation error" if code == 1 else "error"
        assert err == f"{kind}: {refused}\n"


def test_validate_reports_the_iso_ends_actions(tmp_path):
    """Repro (a): both ends fail their action check, with the load's
    residual; the unitary itself is fine."""
    path, _ = write(tmp_path, "repro-a-iso-ends-not-star")
    code, out, err = run_cli(["validate", str(path)])
    fail = "FAIL (map does not commute with the adjoint (residual 1.414e+00))"
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "parsed: CorrIso",
        f"src left action is a star-hom: {fail}",
        f"dst left action is a star-hom: {fail}",
        "right-linear: ok (residual 0.000e+00)",
        "unitary: ok (residual 0.000e+00)",
        "intertwining: ok (residual 0.000e+00)",
        "validation failed",
    ]


def test_validate_blames_the_edge_and_skips_the_simplex_check(tmp_path):
    """Repro (b): the faulty edge's line comes first, with the message a
    load gives; the cell built on it fails too, and with an edge or a cell
    failed there is no pentagon line (the simplex check rests on them)."""
    path, _ = write(tmp_path, "repro-b-edge-not-multiplicative")
    code, out, err = run_cli(["validate", str(path)])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[1] == (
        "edge (0, 1) left action is a star-hom: FAIL (fails w_b v_c = delta P for source"
        " blocks (0, 1), units (b, c) = (0, 0) (residual 1.000e-03))"
    )
    assert lines[4:] == [
        "cell (0, 1, 2) right-linear: ok (residual 0.000e+00)",
        "cell (0, 1, 2) unitary: ok (residual 6.777e-16)",
        "cell (0, 1, 2) intertwining: FAIL (residual 1.000e-03)",
        "validation failed",
    ]


def test_validate_prints_a_line_for_a_bad_cell(tmp_path):
    """Repro (c): the moved cell gets FAIL lines, each with its residual."""
    path, _ = write(tmp_path, "repro-c-cell-moved")
    code, out, err = run_cli(["validate", str(path)])
    assert (code, err) == (1, "")
    assert out.splitlines()[4:] == [
        "cell (0, 1, 2) right-linear: FAIL (residual 1.414e-06)",
        "cell (0, 1, 2) unitary: FAIL (residual 1.522e-06)",
        "cell (0, 1, 2) intertwining: FAIL (residual 7.962e-07)",
        "validation failed",
    ]


def test_validate_heads_each_face_of_a_horn(tmp_path):
    """A horn's lines come under one ``face j:`` per face, in file order,
    each face with its own simplex check: face 3's moved cell leaves its
    pentagon unchecked, the other faces' pentagons run."""
    path, _ = write(tmp_path, "horn-face-cell-moved")
    code, out, err = run_cli(["validate", str(path)])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    heads = [line for line in lines if line.startswith("face ")]
    assert heads == ["face 0:", "face 2:", "face 3:"]
    faces = "\n".join(lines).split("face ")[1:]
    assert ["pentagon: ok" in part for part in faces] == [True, True, False]
    assert "cell (0, 1, 2) right-linear: FAIL (residual 1.414e-06)" in faces[2]

"""End-to-end command-line tests: exit codes, JSON schemas, SVG output."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross.cli import main
from wallcross.consistency import LocalInstance
from wallcross.geometry import geometry_to_json, load_geometry
from wallcross.ring import Truncation
from wallcross.walls import WallStructure, truncation_from_json, \
    truncation_to_json

from perfbench import workloads
from tests.test_broken import quadrant
from tests.test_consistency import two_lines
from tests.test_tropical import bent_line_type

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BLOWUP = os.path.join(FIXTURES, "blowup_threefold.json")


@pytest.fixture()
def bundle(tmp_path):
    """Quadrant fixture written to disk: geometry, truncation, walls."""
    s = quadrant()
    g = tmp_path / "geometry.json"
    t = tmp_path / "trunc.json"
    w = tmp_path / "walls.json"
    g.write_text(json.dumps(geometry_to_json(s.complex)))
    t.write_text(json.dumps(truncation_to_json(s.trunc)))
    w.write_text(json.dumps(s.to_json()))
    return {"g": str(g), "t": str(t), "w": str(w), "tmp": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- exit codes ---------------------------------------------------------------

def test_validate_fixture_passes(capsys):
    code, out, _ = run(capsys, "validate", "-g", BLOWUP)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "wallcross/1" and payload["valid"]


@pytest.mark.parametrize("relative", [False, True])
def test_relative_key_validates_only_as_false(tmp_path, capsys, relative):
    """The threefold fixture carries ``"relative": false`` and validates;
    no relative setting is implemented, so true exits 1 with a geometry
    error naming the key."""
    with open(BLOWUP) as fh:
        data = json.load(fh)
    assert data["relative"] is False
    data["relative"] = relative
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "-g", str(path))
    if relative:
        assert code == 1
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "GeometryError"
        assert "'relative'" in diagnostic["message"]
    else:
        assert code == 0 and json.loads(out)["valid"]


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "-g", "/nonexistent/g.json")
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFound"


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["theta", "-g", "x.json"],
    ["render", "-o", "out.svg"],
    ["tropical", "classify", "--type", "t.json"],
    ["--seed", "x", "validate", "-g", "x.json"],
], ids=["missing-options", "render-without-bundle", "nested-subcommand",
        "bad-option-value"])
def test_command_line_errors_end_with_json(tmp_path, capsys, argv):
    """A wrong command line exits 2 and, after argparse's usage line,
    ends with the one-line JSON diagnostic naming what is missing."""
    argv = [str(tmp_path / a) if a.endswith((".json", ".svg")) else a
            for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    last = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert last["schema"] == "wallcross/1"
    assert last["error"] == "UsageError"
    assert "--" in last["message"]
    assert not (tmp_path / "out.svg").exists()


def test_validation_error_exits_one(tmp_path, capsys):
    s = quadrant()
    bad = geometry_to_json(s.complex)
    bad["good_strata"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "validate", "-g", str(path))
    assert code == 1
    assert "error" in json.loads(err)


def _truncated_geometry(b):
    path = b["tmp"] / "truncated.json"
    path.write_text(open(b["g"]).read()[:40])
    return ["validate", "-g", str(path)]


def _keyless(b, *argv):
    path = b["tmp"] / "keyless.json"
    path.write_text(json.dumps({"n": 2}))
    return [*argv, str(path)]


def _geometry_of_shape(b, data):
    path = b["tmp"] / "shape.json"
    path.write_text(json.dumps(data))
    return ["validate", "-g", str(path)]


def _edited_walls(b):
    data = json.loads(open(b["w"]).read())
    data["walls"][0]["support"] = [[1.5, 1.9]]
    path = b["tmp"] / "walls-edited.json"
    path.write_text(json.dumps(data))
    return ["theta", "-g", b["g"], "-t", b["t"], "-w", str(path),
            "--p", "1,0", "--x", "1,2"]


def _non_integral_count(b):
    path = b["tmp"] / "counts.json"
    path.write_text(json.dumps({"counts": [
        {"max_cone": [0, 1], "support": [[1, 1]], "u": [1.5, 1.5],
         "A": [1], "W": 1}]}))
    return ["walls", "-g", b["g"], "-t", b["t"], "-c", str(path)]


def _count_with(b, **fields):
    path = b["tmp"] / "counts.json"
    path.write_text(json.dumps({"counts": [
        {"max_cone": [0, 1], "support": [[1, 1]], "u": [1, 1], "A": [1],
         "W": 1, **fields}]}))
    return ["walls", "-g", b["g"], "-t", b["t"], "-c", str(path)]


def test_count_with_explicit_k_and_aut_assembles(bundle, capsys):
    code, out, _ = run(capsys, *_count_with(bundle, k=2, aut=3))
    assert code == 0
    assert len(json.loads(out)["walls"]) == 1


def _edited_truncation(b):
    data = json.loads(open(b["t"]).read())
    data["bound"] = 4.5
    path = b["tmp"] / "trunc-edited.json"
    path.write_text(json.dumps(data))
    return ["theta", "-g", b["g"], "-t", str(path), "-w", b["w"],
            "--p", "1,0", "--x", "1,2"]


def _edited_divisors(b):
    data = json.loads(open(b["g"]).read())
    for d in data["divisors"]:
        d["b"] = 1.5
    return _geometry_of_shape(b, data)


def _edited_instance(b, edit):
    data = two_lines().to_json()
    edit(data)
    path = b["tmp"] / "instance.json"
    path.write_text(json.dumps(data))
    return ["scatter", "--instance", str(path)]


@pytest.mark.parametrize("argv", [
    _truncated_geometry,
    lambda b: _keyless(b, "validate", "-g"),
    lambda b: ["theta", "-g", b["g"], "-t", b["t"], "-w", b["w"],
               "--p", "1,x", "--x", "1,2"],
    lambda b: _keyless(b, "scatter", "--instance"),
    lambda b: _geometry_of_shape(b, []),
    lambda b: _geometry_of_shape(b, {"divisors": 5, "good_strata": []}),
    lambda b: _edited_instance(
        b, lambda d: d["rays"][0]["function"][-1].update(c="1/0")),
    lambda b: _edited_instance(
        b, lambda d: d["rays"][0].update(direction=[1.5, 0])),
    _edited_walls,
    _non_integral_count,
    _edited_truncation,
    _edited_divisors,
    lambda b: _count_with(b, k=1.5),
    lambda b: _count_with(b, aut=2.5),
    lambda b: _count_with(b, aut=0),
    lambda b: _count_with(b, aut=-1),
    lambda b: _count_with(b, k=0),
], ids=["truncated-json", "missing-key", "bad-vector", "missing-trunc",
        "list-for-object", "number-for-list", "zero-denominator",
        "non-integral-direction", "non-integral-support",
        "non-integral-count", "non-integral-bound",
        "non-integral-fiber-multiplicity", "non-integral-k",
        "non-integral-aut", "non-positive-aut", "negative-aut",
        "non-positive-k"])
def test_unparsable_input_is_usage_error(bundle, capsys, argv):
    code, _, err = run(capsys, *argv(bundle))
    assert code == 2
    assert json.loads(err)["schema"] == "wallcross/1"


@pytest.mark.parametrize("rank, message", [
    (0.5, "non-integral entry 0.5"),
    ("0", "non-integer entry '0'"),
    (True, "non-integer entry True"),
    (-1, "invariant_rank must be >= 0, got -1"),
], ids=["non-integral", "string", "bool", "negative"])
def test_malformed_invariant_rank_is_usage_error(bundle, capsys, rank,
                                                 message):
    argv = _edited_instance(bundle, lambda d: d.update(invariant_rank=rank))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"schema": "wallcross/1",
                               "error": "ValueError", "message": message}


@pytest.fixture()
def quadrant3(tmp_path):
    """The benchmark's bound-3 quadrant on disk, as -g/-t/-w options."""
    s = workloads.quadrant(3, 1)
    files = {"-g": geometry_to_json(s.complex),
             "-t": truncation_to_json(s.trunc), "-w": s.to_json()}
    argv = []
    for flag, data in files.items():
        path = tmp_path / f"{flag[1]}.json"
        path.write_text(json.dumps(data))
        argv += [flag, str(path)]
    return argv


@pytest.mark.parametrize("command, argv, error, message", [
    ("theta", ["--p", "1", "--x", "3,7"], "ValueError",
     "--p 1 has length 1, not the dimension 2 of the complex"),
    ("theta", ["--p", "1,0", "--x", "3,7,5"], "ValueError",
     "--x 3,7,5 has length 3, not the dimension 2 of the complex"),
    ("alpha", ["--p1", "1,0", "--p2", "0,1", "--r", "1,1,7"], "ValueError",
     "--r 1,1,7 has length 3, not the dimension 2 of the complex"),
    ("broken-lines", ["--p", "1,0,0", "--x", "3,7"], "ValueError",
     "--p 1,0,0 has length 3, not the dimension 2 of the complex"),
    ("render", ["--p", "1,0"], "UsageError",
     "render draws broken lines from --p and --x together"),
    ("render", ["--x", "3,7"], "UsageError",
     "render draws broken lines from --p and --x together"),
], ids=["theta-short-p", "theta-long-x", "alpha-long-r", "lines-long-p",
        "render-p-alone", "render-x-alone"])
def test_vector_of_the_wrong_length_is_usage_error(quadrant3, capsys,
                                                    command, argv, error,
                                                    message):
    """A point or exponent option of another length than the complex's
    dimension, or render's --p without --x, exits 2 with one JSON
    diagnostic and writes nothing."""
    code, out, err = run(capsys, command, *quadrant3, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"schema": "wallcross/1", "error": error,
                               "message": message}


# -- wall assembly ------------------------------------------------------------

def test_walls_assembles_and_round_trips(capsys, tmp_path):
    out_path = tmp_path / "walls.json"
    code, _, _ = run(capsys, "walls", "-g", BLOWUP,
                     "-t", os.path.join(FIXTURES, "blowup_truncation.json"),
                     "-c", os.path.join(FIXTURES, "blowup_counts.json"),
                     "--grading", os.path.join(FIXTURES,
                                               "blowup_grading.json"),
                     "-o", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["schema"] == "wallcross/1" and data["walls"]
    cx = load_geometry(BLOWUP)
    trunc = truncation_from_json(
        json.loads(open(os.path.join(
            FIXTURES, "blowup_truncation.json")).read()))
    again = WallStructure.from_json(data, cx, trunc)
    assert again.to_json()["walls"] == data["walls"]


# -- broken lines and theta ---------------------------------------------------

def test_theta_above_the_wall(bundle, capsys):
    code, out, _ = run(capsys, "theta", "-g", bundle["g"], "-t", bundle["t"],
                       "-w", bundle["w"], "--p", "1,0", "--x", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 0
    terms = {tuple(item["m"]): item["c"] for item in payload["theta"]}
    assert terms == {(1, 0): "1/1", (0, -1): "1/1"}


def test_theta_below_the_wall(bundle, capsys):
    code, out, _ = run(capsys, "theta", "-g", bundle["g"], "-t", bundle["t"],
                       "-w", bundle["w"], "--p", "1,0", "--x", "2,1")
    assert code == 0
    payload = json.loads(out)
    assert [tuple(i["m"]) for i in payload["theta"]] == [(1, 0)]


def test_wall_exponent_off_its_support_is_rejected(bundle, capsys):
    """Loaded walls are checked: the quadrant's wall term with exponent
    (-1, 0) is not tangent to its support, the ray (1, 1)."""
    data = json.loads(open(bundle["w"]).read())
    [term] = [t for t in data["walls"][0]["function"] if any(t["m"])]
    assert term["m"] == [-1, -1]
    term["m"] = [-1, 0]
    path = bundle["tmp"] / "walls-off-support.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "theta", "-g", bundle["g"],
                         "-t", bundle["t"], "-w", str(path),
                         "--p", "1,0", "--x", "1,2")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "schema": "wallcross/1", "error": "InadmissibleWallDirection",
        "message": "wall 0 in chart (0, 1): exponent (-1, 0) not tangent "
                   "to the wall support"}


def test_non_simplicial_wall_support_is_rejected(bundle, capsys):
    """A loaded wall whose support repeats its ray, (1, 1) and (2, 2), is
    named in the diagnostic."""
    data = json.loads(open(bundle["w"]).read())
    assert data["walls"][0]["support"] == [[1, 1]]
    data["walls"][0]["support"] = [[1, 1], [2, 2]]
    path = bundle["tmp"] / "walls-non-simplicial.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "theta", "-g", bundle["g"],
                         "-t", bundle["t"], "-w", str(path),
                         "--p", "1,0", "--x", "1,2")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "schema": "wallcross/1", "error": "WallError",
        "message": "wall 0 in chart (0, 1): a simplicial wall support has "
                   "n-1 = 1 generators, not 2"}


def test_broken_lines_decorated(bundle, capsys):
    code, out, _ = run(capsys, "broken-lines", "-g", bundle["g"],
                       "-t", bundle["t"], "-w", bundle["w"],
                       "--p", "1,0", "--x", "1,2", "--decorated")
    assert code == 0
    payload = json.loads(out)
    assert payload["decorated"] and len(payload["lines"]) == 2
    bent = [l for l in payload["lines"] if l["bends"]]
    assert len(bent) == 1
    assert bent[0]["bends"][0]["mu"] == [[0, 1]]


def test_alpha_on_the_wall_ray(bundle, capsys):
    code, out, _ = run(capsys, "alpha", "-g", bundle["g"], "-t", bundle["t"],
                       "-w", bundle["w"], "--p1", "1,0", "--p2", "0,1",
                       "--r", "1,1")
    assert code == 0
    payload = json.loads(out)
    terms = payload["alpha"]
    assert len(terms) == 1 and terms[0]["c"] == "1/1"


# -- consistency and scattering -----------------------------------------------

def test_consistency_passes_on_quadrant(bundle, capsys):
    code, out, _ = run(capsys, "consistency", "-g", bundle["g"],
                       "-t", bundle["t"], "-w", bundle["w"], "--level", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["reports"]


def test_scatter_completes_instance(tmp_path, capsys):
    inst = two_lines()
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst.to_json()))
    out_path = tmp_path / "done.json"
    code, _, _ = run(capsys, "scatter", "--instance", str(path),
                     "--max-weight", "2", "-o", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["added_rays"] == 1
    done = LocalInstance.from_json(data)
    assert len(done.rays) == len(inst.rays) + 1


def test_scatter_beyond_truncation_fails(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(two_lines().to_json()))
    code, _, err = run(capsys, "scatter", "--instance", str(path),
                       "--max-weight", "9")
    assert code == 1
    assert json.loads(err)["error"] == "NonConvergent"


def test_scatter_rejects_a_class_of_non_positive_weight(tmp_path):
    """The ray term t^(-1) z^(-1,0) has powers of ever lower weight, so its
    inverse series never ends: the instance exits 1 at once.  Run in a
    child, so that a hang fails within the budget."""
    trunc = truncation_to_json(Truncation.degree(1, 3))
    function = [{"A": [0], "m": [0, 0], "c": "1"},
                {"A": [-1], "m": [-1, 0], "c": "1"}]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"trunc": trunc, "rays": [
        {"direction": [1, 0], "function": function}]}))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wallcross.cli", "scatter", "--instance",
         str(path)], env=env, capture_output=True, text=True, timeout=2)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "NotUnipotent"


# -- tropical -----------------------------------------------------------------

def test_tropical_classify(bundle, tmp_path, capsys):
    path = tmp_path / "type.json"
    path.write_text(json.dumps(bent_line_type().to_json()))
    code, out, _ = run(capsys, "tropical", "classify", "-g", bundle["g"],
                       "--type", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "broken-line" and payload["k_tau"] == 1


@pytest.mark.parametrize("path, value", [
    (("legs", 0, "u"), [1, 0, 0]),
    (("legs", 0, "u"), [1.5, 0]),
    (("legs", 1, "v"), 0.5),
    (("edges", 0, "u"), [1]),
    (("edges", 0, "v"), [1, 0, 0]),
    (("vertices", 0, "rays"), [[1, 1, 1]]),
    (("vertices", 1, "A"), [1, 0]),
    (("vertices", 1, "A"), [0.5]),
    (("vertices", 0, "cone"), [0, 1.5]),
    (("edges", 0, "v"), [0]),
    (("edges", 0, "v"), {}),
    (("legs", 0, "u"), ["1", True]),
    (("legs", 0, "u"), [" 1", "1 "]),
], ids=["long-contact-order", "non-integral-contact-order",
        "non-integral-leg-vertex", "short-edge-contact-order",
        "edge-not-a-pair", "long-ray", "long-class", "non-integral-class",
        "non-integral-cone", "edge-one-end", "edge-no-ends",
        "string-and-bool-contact-order", "padded-string-contact-order"])
def test_malformed_type_is_usage_error(bundle, tmp_path, capsys, path,
                                       value):
    data = bent_line_type().to_json()
    *keys, last = path
    item = data
    for key in keys:
        item = item[key]
    item[last] = value
    type_path = tmp_path / "type.json"
    type_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "tropical", "classify", "-g", bundle["g"],
                         "--type", str(type_path))
    assert code == 2 and out == ""
    assert json.loads(err)["schema"] == "wallcross/1"


def _pieces_json(u_inc, ks):
    from tests.test_multiplicity import bend_configuration
    pieces, glue = bend_configuration(u_inc, ks, 0)
    return {
        "pieces": [{"type": p.type.to_json(),
                    "gluing_legs": list(p.gluing_legs)} for p in pieces],
        "edges": [{"ends": [list(e.ends[0]), list(e.ends[1])],
                   "lattice": [list(v) for v in e.lattice]} for e in glue],
    }


def _multiplicity(b, capsys, data):
    path = b["tmp"] / "pieces.json"
    path.write_text(json.dumps(data))
    return run(capsys, "tropical", "multiplicity", "-g", b["g"],
               "--pieces", str(path))


def test_tropical_multiplicity(bundle, capsys):
    for u_inc, ks, expected in (((1, 0), (2,), 1), ((3, -2), (2, 1), 5)):
        code, out, _ = _multiplicity(bundle, capsys, _pieces_json(u_inc, ks))
        assert code == 0
        assert json.loads(out)["multiplicity"] == expected


def _set_lattice(data, lattice):
    data["edges"][0]["lattice"] = lattice


def _set_end(data, end):
    data["edges"][0]["ends"][0] = end


def _set_gluing_legs(data, legs):
    data["pieces"][0]["gluing_legs"] = legs


def _set_leg(data, u):
    data["pieces"][0]["type"]["legs"][0]["u"] = u


def _set_edge_ends(data, v):
    # the last piece carries the bend chain, the only piece with edges
    data["pieces"][-1]["type"]["edges"][0]["v"] = v


@pytest.mark.parametrize("edit", [
    lambda d: _set_lattice(d, [[0.5, 0], [0, 1]]),
    lambda d: _set_lattice(d, [[1], [0, 1]]),
    lambda d: _set_lattice(d, [[1, 0, 0], [0, 1, 0]]),
    lambda d: _set_end(d, [9, 0]),
    lambda d: _set_end(d, [-1, 0]),
    lambda d: _set_end(d, [0, 1]),
    lambda d: _set_end(d, [0.5, 0]),
    lambda d: _set_end(d, [0, 0, 0]),
    lambda d: _set_gluing_legs(d, [0.5]),
    lambda d: _set_gluing_legs(d, [4]),
    lambda d: _set_leg(d, [3, -2, 1]),
    lambda d: _set_leg(d, [3.5, -2]),
    lambda d: _set_edge_ends(d, [0]),
    lambda d: _set_edge_ends(d, {}),
], ids=["non-integral-lattice", "short-lattice-vector",
        "long-lattice-vector", "missing-piece", "negative-piece",
        "leg-not-glued", "non-integral-end", "end-not-a-pair",
        "non-integral-gluing-leg", "missing-gluing-leg",
        "long-contact-order", "non-integral-contact-order",
        "edge-one-end", "edge-no-ends"])
def test_malformed_multiplicity_input_is_usage_error(bundle, capsys, edit):
    # the bend (3, -2) against walls of multiplicity 2 and 1 has
    # multiplicity 5 when well formed
    data = _pieces_json((3, -2), (2, 1))
    edit(data)
    code, out, err = _multiplicity(bundle, capsys, data)
    assert code == 2 and out == ""
    assert json.loads(err)["schema"] == "wallcross/1"


# JSON values a mutation puts in place of a node of a well-formed input
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3),
    st.text(max_size=2), st.lists(st.integers(-3, 3), max_size=4),
    st.just({}))


def _json_paths(node, path=()):
    """The path of every node of a JSON value, the root's first."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


@st.composite
def _mutated(draw, data):
    """A copy of the JSON value ``data`` with one to three of its nodes,
    each drawn from all of them, replaced or deleted."""
    data = json.loads(json.dumps(data))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(data))))
        if not path:
            data = draw(_JSON_LEAVES)
            continue
        *keys, last = path
        parent = data
        for key in keys:
            parent = parent[key]
        if draw(st.booleans()):
            parent[last] = draw(_JSON_LEAVES)
        else:
            del parent[last]
    return data


@pytest.fixture(scope="module")
def geometry_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("geometry") / "geometry.json"
    path.write_text(json.dumps(geometry_to_json(quadrant().complex)))
    return path


def _run_tropical(geometry_path, command, flag, data):
    """Exit code, stdout and stderr of one tropical command on ``data``."""
    path = geometry_path.with_name(f"{command}.json")
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["tropical", command, "-g", str(geometry_path), flag,
                     str(path)])
    return code, out.getvalue(), err.getvalue()


def _assert_documented_exit(code, out, err):
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert json.loads(err)["schema"] == "wallcross/1"
    else:
        assert json.loads(out)["schema"] == "wallcross/1"


@settings(max_examples=150, deadline=None)
@given(data=_mutated(bent_line_type().to_json()))
def test_mutated_type_exits_with_a_diagnostic(geometry_path, data):
    _assert_documented_exit(*_run_tropical(geometry_path, "classify",
                                           "--type", data))


@settings(max_examples=150, deadline=None)
@given(data=_mutated(_pieces_json((3, -2), (2, 1))))
def test_mutated_pieces_exit_with_a_diagnostic(geometry_path, data):
    _assert_documented_exit(*_run_tropical(geometry_path, "multiplicity",
                                           "--pieces", data))


# -- rendering ----------------------------------------------------------------

def test_render_quadrant_with_lines(bundle, capsys, tmp_path):
    out_path = tmp_path / "slice.svg"
    argv = ["render", "-g", bundle["g"], "-t", bundle["t"],
            "-w", bundle["w"], "--p", "1,0", "--x", "1,2",
            "-o", str(out_path)]
    assert main(argv) == 0
    svg = out_path.read_bytes()
    assert svg.startswith(b"<svg")
    assert svg.count(b'stroke="crimson"') == 1     # one wall ray
    assert svg.count(b"<polyline") == 2            # two broken lines
    assert svg.count(b"<circle") == 1              # one bend marker
    # full determinism: identical bytes on a second run
    out2 = tmp_path / "slice2.svg"
    argv[-1] = str(out2)
    assert main(argv) == 0
    assert out2.read_bytes() == svg


def test_render_instance_rays(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(two_lines().to_json()))
    code, _, _ = run(capsys, "render", "--instance", str(path),
                     "-o", str(tmp_path / "joint.svg"))
    assert code == 0
    svg = (tmp_path / "joint.svg").read_bytes()
    assert svg.count(b"<line") == 4 and b">r3<" in svg


def test_render_nonplanar_rejected(capsys, tmp_path):
    t = tmp_path / "t.json"
    w = tmp_path / "w.json"
    t.write_text(json.dumps(truncation_to_json(quadrant().trunc)))
    w.write_text(json.dumps({"walls": [], "dropped_trivial": 0}))
    code, _, err = run(capsys, "render", "-g", BLOWUP, "-t", str(t),
                       "-w", str(w))
    assert code == 1
    assert json.loads(err)["error"] == "NonPlanarSlice"


# -- seed plumbing ------------------------------------------------------------

def test_env_seed_overrides(bundle, capsys, monkeypatch):
    monkeypatch.setenv("WALLCROSS_SEED", "7")
    code, out, _ = run(capsys, "theta", "-g", bundle["g"], "-t", bundle["t"],
                       "-w", bundle["w"], "--p", "1,0", "--x", "1,2")
    assert code == 0
    assert json.loads(out)["seed"] == 7


@pytest.mark.parametrize("weight, code", [("-1", 2), ("0", 0)])
def test_scatter_rejects_a_negative_weight(tmp_path, capsys, weight, code):
    """A negative cap would drop the rays' own terms, so no loop could
    pass: it is a usage error, not a failing loop; weight 0 adds no ray."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(two_lines().to_json()))
    got, out, err = run(capsys, "scatter", "--instance", str(path),
                        "--max-weight", weight)
    assert got == code
    if code:
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "ValueError"
        assert "must be >= 0" in diagnostic["message"]
    else:
        assert json.loads(out)["added_rays"] == 0

import itertools
import json
from fractions import Fraction

import pytest

from tricontact import assemble, planar, solver, verify
from tricontact.assemble import represent
from tricontact.cli import main
from tricontact.core import Representation
from conftest import chain, represent_in, tri, with_triangle


def run(argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_stacked_n4_is_k4(self, tmp_path, k4):
        out = tmp_path / "g.json"
        assert run(["gen", "stacked", "--n", 4, "--output", out]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 4 and data["outer"] == [0, 1, 2]
        assert sorted(tuple(e) for e in data["edges"]) == sorted(
            itertools.combinations(range(4), 2))

    def test_four_connected(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "random", "--n", 10, "--seed", 2,
                    "--four-connected", "--output", out]) == 0
        T = planar.from_json(json.loads(out.read_text()))
        assert planar.separating_triangles(T) == []

    def test_four_connected_n5_is_invalid(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "random", "--n", 5, "--four-connected", "--output", out]) == 3
        assert not out.exists()


class TestValidate:
    def test_ok(self, tmp_path, octahedron):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(octahedron.to_json()))
        out = tmp_path / "d.json"
        assert run(["validate", "--input", g, "--output", out]) == 0
        assert json.loads(out.read_text())["valid"] is True

    def test_invalid_exit_code(self, tmp_path):
        g = tmp_path / "bad.json"
        g.write_text(json.dumps({"n": 5, "outer": [0, 1, 2],
                                 "edges": [list(e) for e in
                                           itertools.combinations(range(5), 2)]}))
        assert run(["validate", "--input", g]) == 3


class TestRun:
    def test_k4_all_pass(self, tmp_path, k4):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(k4.to_json()))
        rep_f = tmp_path / "rep.json"
        report_f = tmp_path / "report.json"
        code = run(["run", "--input", g, "--output", rep_f,
                    "--report", report_f, "--drawing"])
        assert code == 0
        report = json.loads(report_f.read_text())
        assert report["passed"] is True and report["crossings"] == 0
        rep = Representation.from_json(json.loads(rep_f.read_text()))
        assert len(rep.triangles) == 4

    def test_byte_identical_reruns(self, tmp_path, octahedron):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(octahedron.to_json()))
        outs = []
        for name in ("a", "b"):
            rep_f = tmp_path / f"rep_{name}.json"
            assert run(["run", "--input", g, "--output", rep_f]) == 0
            outs.append(rep_f.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag, value", [("--delta", "1e-9"), ("--margin", "1e-3"),
                                             ("--h-min", "1e-3"), ("--max-iters", "80"),
                                             ("--restarts", "0"), ("--seed", "7")])
    def test_solver_tolerance_flags_are_rejected(self, tmp_path, flag, value, capsys):
        # every piece is placed exactly, so `run` takes no solver tolerance,
        # iteration count or seed: such a flag is a usage error
        g = tmp_path / "g.json"
        g.write_text(json.dumps(chain(20, 5, 2).to_json()))
        rep_f = tmp_path / "rep.json"
        with pytest.raises(SystemExit) as exc:
            run(["run", "--input", g, "--output", rep_f, flag, value])
        assert exc.value.code == 2 and not rep_f.exists()
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_svg(self, tmp_path, k4):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(k4.to_json()))
        svg = tmp_path / "out.svg"
        assert run(["run", "--input", g, "--output", tmp_path / "r.json",
                    "--svg", svg, "--drawing"]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "<polygon" in text and "polyline" in text

    def test_drawing_extracted_once(self, tmp_path, k4, monkeypatch):
        calls = []
        extract = verify.extract_drawing

        def counted(*args, **kwargs):
            calls.append(1)
            return extract(*args, **kwargs)

        monkeypatch.setattr(verify, "extract_drawing", counted)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(k4.to_json()))
        drawing_f = tmp_path / "d.json"
        svg = tmp_path / "out.svg"
        assert run(["run", "--input", g, "--output", tmp_path / "r.json", "--drawing",
                    "--drawing-out", drawing_f, "--svg", svg]) == 0
        assert len(calls) == 1
        assert len(json.loads(drawing_f.read_text())["polylines"]) == len(k4.edges)
        assert "polyline" in svg.read_text()

    def test_drawing_out_draws_the_svg(self, tmp_path):
        # --drawing-out implies --drawing, and the SVG reuses that drawing
        g = tmp_path / "g.json"
        g.write_text(json.dumps(planar.gen_stacked(8, 0).to_json()))
        drawing_f, svg = tmp_path / "d.json", tmp_path / "out.svg"
        assert run(["run", "--input", g, "--output", tmp_path / "r.json",
                    "--drawing-out", drawing_f, "--svg", svg]) == 0
        polylines = json.loads(drawing_f.read_text())["polylines"]
        assert svg.read_text().count("<polyline") == len(polylines) == 18

    def test_failed_verification_exit_code(self, tmp_path, k4, outer_map, monkeypatch):
        bad = with_triangle(represent_in(k4, outer_map), 3, tri(Fraction(19, 10), 2, 1))
        monkeypatch.setattr(assemble, "represent", lambda T, config: bad)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(k4.to_json()))
        report_f = tmp_path / "report.json"
        assert run(["run", "--input", g, "--output", tmp_path / "r.json",
                    "--report", report_f]) == 5
        assert json.loads(report_f.read_text())["missing_edges"] == [[2, 3]]

    def test_scaled_run(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(planar.double_wheel(6).to_json()))
        assert run(["run", "--input", g, "--output", tmp_path / "r.json",
                    "--scale", "1/1000"]) == 0


class TestVerify:
    def test_corrupted_rep_nonzero_exit(self, tmp_path, k4, outer_map):
        rep = represent_in(k4, outer_map)
        bad = with_triangle(rep, 3, tri(Fraction(19, 10), 2, 1))
        g = tmp_path / "g.json"
        g.write_text(json.dumps(k4.to_json()))
        r = tmp_path / "rep.json"
        r.write_text(json.dumps(bad.to_json()))
        report_f = tmp_path / "report.json"
        code = run(["verify", "--input", r, "--graph", g, "--output", report_f])
        assert code == 5
        report = json.loads(report_f.read_text())
        assert report["passed"] is False and report["missing_edges"] == [[2, 3]]

    def test_good_rep_passes(self, tmp_path, k4, outer_map):
        rep = represent_in(k4, outer_map)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(k4.to_json()))
        r = tmp_path / "rep.json"
        r.write_text(json.dumps(rep.to_json()))
        assert run(["verify", "--input", r, "--graph", g, "--drawing"]) == 0

    @pytest.mark.parametrize("flag, rep_epsilon", [(["--epsilon", 0], None),
                                                   (["--epsilon", -1], None), ([], "-1/1")],
                             ids=["flag_zero", "flag_negative", "json_negative"])
    def test_nonpositive_epsilon_is_input_error(self, tmp_path, flag, rep_epsilon, capsys):
        # as `run --epsilon 0` is: rejected before any check, not reported
        # as a boundary contact over budget
        T = planar.gen_stacked(8, 0)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(T.to_json()))
        rep = represent(T).to_json()
        if rep_epsilon is not None:
            rep["epsilon"] = rep_epsilon
        r = tmp_path / "rep.json"
        r.write_text(json.dumps(rep))
        out = tmp_path / "report.json"
        assert run(["verify", "--input", r, "--graph", g, "--output", out, *flag]) == 2
        assert capsys.readouterr().err == "input error: epsilon must be positive\n"
        assert not out.exists()

    def test_invalid_graph_exit_code(self, tmp_path, k4, outer_map):
        r = tmp_path / "rep.json"
        r.write_text(json.dumps(represent_in(k4, outer_map).to_json()))
        g = tmp_path / "bad.json"
        g.write_text(json.dumps({"n": 5, "outer": [0, 1, 2],
                                 "edges": [list(e) for e in
                                           itertools.combinations(range(5), 2)]}))
        assert run(["verify", "--input", r, "--graph", g]) == 3


class TestSolveCommand:
    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a wood loop that stops without a layout surfaces as the solver
        # exit code, naming the vertices of nonpositive height; capped at one
        # solve, g4_22_0 stops at its canonical wood
        monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(planar.gen_four_connected(22, 0).to_json()))
        code = run(["run", "--input", g, "--output", tmp_path / "r.json"])
        assert code == 4 and not (tmp_path / "r.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("solver failure: no contact layout for the piece inside ")
        assert "after 1 exact solves; vertices with h <= 0: [" in err

    def test_shut_face_exit_code(self, tmp_path, monkeypatch, capsys):
        # a zero-hole face the overlaps cannot open is a solver failure too,
        # naming the face: at weight 1 and no doubling, dw8's [1, 6, 7]
        monkeypatch.setattr(solver, "OPEN_WEIGHT", 1)
        monkeypatch.setattr(solver, "MAX_WEIGHT", 1)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(planar.double_wheel(8).to_json()))
        code = run(["run", "--input", g, "--output", tmp_path / "r.json"])
        assert code == 4 and not (tmp_path / "r.json").exists()
        assert capsys.readouterr().err == ("solver failure: zero-hole face [1, 6, 7] of the piece "
                                           "inside (0, 2, 3) stays shut at weight 1\n")


class TestRender:
    def test_render_rep(self, tmp_path, k4, outer_map):
        rep = represent_in(k4, outer_map)
        r = tmp_path / "rep.json"
        r.write_text(json.dumps(rep.to_json()))
        svg = tmp_path / "o.svg"
        assert run(["render", "--input", r, "--contacts", "--output", svg]) == 0
        assert "<circle" in svg.read_text()

    def test_mismatched_graph_exit_code(self, tmp_path):
        r = tmp_path / "rep.json"
        r.write_text(json.dumps(represent(planar.gen_stacked(12, 0)).to_json()))
        g = tmp_path / "g.json"
        g.write_text(json.dumps(planar.gen_stacked(12, 5).to_json()))
        assert run(["render", "--input", r, "--graph", g, "--output", tmp_path / "o.svg"]) == 5


class TestJsonRoundtrip:
    def test_representation_exact(self, tmp_path):
        T = planar.gen_stacked(20, 6)
        rep = represent(T)
        text = json.dumps(rep.to_json(), sort_keys=True)
        again = Representation.from_json(json.loads(text))
        assert again == rep
        assert json.dumps(again.to_json(), sort_keys=True) == text

    def test_missing_input_is_input_error(self, tmp_path):
        assert run(["validate", "--input", tmp_path / "nope.json"]) == 2

    @pytest.mark.parametrize("graph", [
        {"n": 4, "outer": [0, 1, 2], "edges": [1, 2, 3]},
        {"n": 4, "outer": [0, 1, 2], "edges": None},
        [],
    ], ids=["int_edges", "null_edges", "top_level_list"])
    def test_malformed_graph_is_invalid_graph(self, tmp_path, graph, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(graph))
        assert run(["validate", "--input", g]) == 3
        assert capsys.readouterr().err.startswith("invalid graph: malformed graph JSON")

    @pytest.mark.parametrize("command", ["render", "verify"])
    @pytest.mark.parametrize("field, value", [("triangles", [["0", "0", "4"]]), ("outer", 5)])
    def test_malformed_representation_is_input_error(self, tmp_path, k4, outer_map,
                                                     command, field, value, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(k4.to_json()))
        r = tmp_path / "rep.json"
        r.write_text(json.dumps({**represent_in(k4, outer_map).to_json(), field: value}))
        assert run([command, "--input", r, "--graph", g]) == 2
        assert capsys.readouterr().err.startswith("input error: malformed representation JSON")

    @pytest.mark.parametrize("command", ["render", "verify"])
    @pytest.mark.parametrize("outer", [[7, 8, 9], "abc", [0, 1], [0, 1, 1], [0, True, 2],
                                       [0, 1, 2.0]],
                             ids=["absent", "string", "two", "repeated", "bool", "float"])
    def test_outer_must_name_three_triangles(self, tmp_path, k4, outer_map, command, outer,
                                             capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(k4.to_json()))
        r = tmp_path / "rep.json"
        r.write_text(json.dumps({**represent_in(k4, outer_map).to_json(), "outer": outer}))
        assert run([command, "--input", r, "--graph", g, "--output", tmp_path / "out"]) == 2
        assert "outer must name three distinct triangles" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"n": 4.5},
        {"edges": ["01", "02", "03", "12", "13", "23"]},
        {"edges": [[0, True], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
        {"outer": [0, 1, 2.0]},
    ], ids=["float_n", "string_edges", "bool_endpoint", "float_outer"])
    def test_graph_ids_must_be_integers(self, tmp_path, k4, change, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({**k4.to_json(), **change}))
        assert run(["validate", "--input", g]) == 3
        assert "is not an integer" in capsys.readouterr().err

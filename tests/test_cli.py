import json
import os
import subprocess
import sys

import pytest

from polytx import Solution, Transmitter, fixture
from polytx.cli import main

GAP7_RING = [
    [0, 2], [2, 2], [2, 0], [12, 0], [12, 2], [14, 2], [14, 3], [10, 3],
    [10, 1], [8, 1], [8, 3], [6, 3], [6, 1], [4, 1], [4, 3], [0, 3],
]
RECT_RING = [[0, 0], [6, 0], [6, 3], [0, 3]]
VALLEY_RING = [[0, 0], [6, 0], [6, 3], [4, 3], [4, 1], [2, 1], [2, 3], [0, 3]]
# Two notches over a floor: edge heights 0, 2 and 4, so the band from 2 to 4
# is two grid rows once a transmitter's span ends at 3.
COMB_RING = [
    [0, 0], [10, 0], [10, 4], [8, 4], [8, 2], [6, 2], [6, 4], [4, 4],
    [4, 2], [2, 2], [2, 4], [0, 4],
]

# render --vis output, byte for byte.  GAP7_X6_K0_SVG: the family vertical
# at x=6 on GAP7 at k=0, on the unrefined grid.  COMB_X1_K2_SVG: the vertical
# at x=1 from y=0 to 3 on COMB_RING at k=2, off the family, so the grid gains
# the cuts x=1 and y=3 and the band from 2 to 4 holds two rows.
GAP7_X6_K0_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="600" height="160" viewBox="0 0 600 160">
  <path d="M 20.0 60.0 H 100.0 V 140.0 H 500.0 V 60.0 H 580.0 V 20.0 H 420.0 V 100.0 H 340.0 V 20.0 H 260.0 V 100.0 H 180.0 V 20.0 H 20.0 Z" fill="#f7f5ef" stroke="#1a1a1a" stroke-width="1.5"/>
  <rect x="100.0" y="100.0" width="80.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="180.0" y="100.0" width="80.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="260.0" y="100.0" width="80.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="260.0" y="60.0" width="80.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="260.0" y="20.0" width="80.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="340.0" y="100.0" width="80.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="420.0" y="100.0" width="80.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <line x1="260.0" y1="140.0" x2="260.0" y2="20.0" stroke="#2266aa" stroke-width="3" stroke-linecap="round"/>
</svg>
"""
COMB_X1_K2_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="440" height="200" viewBox="0 0 440 200">
  <path d="M 20.0 180.0 H 420.0 V 20.0 H 340.0 V 100.0 H 260.0 V 20.0 H 180.0 V 100.0 H 100.0 V 20.0 H 20.0 Z" fill="#f7f5ef" stroke="#1a1a1a" stroke-width="1.5"/>
  <rect x="20.0" y="100.0" width="40.0" height="80.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="20.0" y="60.0" width="40.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="60.0" y="100.0" width="40.0" height="80.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="60.0" y="60.0" width="40.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="100.0" y="100.0" width="80.0" height="80.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="180.0" y="100.0" width="80.0" height="80.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="180.0" y="60.0" width="80.0" height="40.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="260.0" y="100.0" width="80.0" height="80.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <rect x="340.0" y="100.0" width="80.0" height="80.0" fill="#7fb2d9" fill-opacity="0.4"/>
  <line x1="60.0" y1="180.0" x2="60.0" y2="60.0" stroke="#2266aa" stroke-width="3" stroke-linecap="round"/>
</svg>
"""


@pytest.fixture
def gap7_file(tmp_path):
    f = tmp_path / "gap7.json"
    f.write_text(json.dumps({"vertices": GAP7_RING}))
    return str(f)


@pytest.fixture
def rect_file(tmp_path):
    f = tmp_path / "rect.json"
    f.write_text(json.dumps({"vertices": RECT_RING}))
    return str(f)


@pytest.fixture
def valley_file(tmp_path):
    f = tmp_path / "valley.json"
    f.write_text(json.dumps({"vertices": VALLEY_RING}))
    return str(f)


def candidates_out(capsys, *argv) -> list[tuple]:
    """(orientation, anchor, lo, hi) per candidate printed by the CLI."""
    assert main(["candidates", *argv]) == 0
    cands = json.loads(capsys.readouterr().out)
    return [(c["orientation"], c["anchor"], *c["span"]) for c in cands]


class TestValidate:
    def test_summary(self, gap7_file, capsys):
        assert main(["validate", gap7_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "valid": True,
            "vertices": 16,
            "m": 8,
            "slabs": 7,
            "xs": [0, 2, 4, 6, 8, 10, 12, 14],
            "spans": [[2, 3], [0, 3], [0, 1], [0, 3], [0, 1], [0, 3], [2, 3]],
        }

    def test_invalid_polygon(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"vertices": [[0,0],[2,2],[0,2]]}')
        assert main(["validate", str(f)]) == 2
        assert "non-orthogonal" in capsys.readouterr().err

    def test_out_of_range_polygon(self, tmp_path, capsys):
        f = tmp_path / "far.json"
        f.write_text('{"vertices": [[0,0],[2000000,0],[2000000,1],[0,1]]}')
        assert main(["validate", str(f)]) == 2
        assert "out-of-range" in capsys.readouterr().err

    def test_non_integer_names_the_vertex(self, tmp_path, capsys):
        f = tmp_path / "half.json"
        f.write_text('{"vertices": [[0,0],[6,0],[6,0.5],[0,3]]}')
        assert main(["validate", str(f)]) == 2
        assert f"{f}: non-integer (vertex 2): coordinate 0.5 is not an integer" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestCandidates:
    def test_full_family(self, rect_file, gap7_file, valley_file, capsys):
        assert main(["candidates", rect_file]) == 0
        cands = json.loads(capsys.readouterr().out)
        assert len(cands) == 4
        assert {"orientation": "v", "anchor": 0, "span": [0, 3]} in cands
        assert candidates_out(capsys, gap7_file) == [
            ("v", 0, 2, 3), ("v", 2, 0, 3), ("v", 4, 0, 3), ("v", 6, 0, 3),
            ("v", 8, 0, 3), ("v", 10, 0, 3), ("v", 12, 0, 3), ("v", 14, 2, 3),
            ("h", 0, 2, 12), ("h", 1, 2, 12), ("h", 2, 0, 4), ("h", 2, 6, 8),
            ("h", 2, 10, 14), ("h", 3, 0, 4), ("h", 3, 6, 8), ("h", 3, 10, 14),
        ]
        assert candidates_out(capsys, valley_file) == [
            ("v", 0, 0, 3), ("v", 2, 0, 3), ("v", 4, 0, 3), ("v", 6, 0, 3),
            ("h", 0, 0, 6), ("h", 1, 0, 6), ("h", 3, 0, 2), ("h", 3, 4, 6),
        ]

    def test_pruned(self, rect_file, gap7_file, valley_file, capsys):
        assert main(["candidates", rect_file, "--pruned"]) == 0
        cands = json.loads(capsys.readouterr().out)
        assert cands == [{"orientation": "h", "anchor": 3, "span": [0, 6]}]
        assert candidates_out(capsys, gap7_file, "--pruned") == [
            ("h", 1, 2, 12), ("h", 3, 0, 4), ("h", 3, 10, 14),
        ]
        assert candidates_out(capsys, valley_file, "--pruned") == [("h", 1, 0, 6)]


class TestSolve:
    def test_approx(self, gap7_file, capsys):
        assert main(["solve", gap7_file, "--alg", "approx", "--k", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solver"] == "approx"
        assert doc["count"] == 1
        assert doc["coverage"] == "complete"
        assert doc["transmitters"] == [{"orientation": "v", "anchor": 8, "span": [0, 3]}]

    def test_failed_solver_check_exits_3(self, gap7_file, stalled_finders, capsys):
        assert main(["solve", gap7_file, "--alg", "approx", "--k", "2"]) == 3
        assert "invariant breach" in capsys.readouterr().err
        assert main(["compare", gap7_file]) == 3

    def test_segment_outside_the_polygon_exits_3(self, valley_file, monkeypatch, capsys):
        # An answer whose segment crosses VALLEY's notch is not a cover.
        crossing = (Transmitter("h", 2, (0, 6)),)
        monkeypatch.setattr(
            "polytx.cli.approximate_2transmitters",
            lambda p: Solution.build(fixture("VALLEY"), crossing, 2, "approx", 1),
        )
        assert main(["solve", valley_file, "--alg", "approx", "--k", "2"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["coverage"] == "incomplete"
        assert doc["transmitters"] == [{"orientation": "h", "anchor": 2, "span": [0, 6]}]
        assert main(["compare", valley_file]) == 3

    def test_exact_with_budget(self, gap7_file, capsys):
        assert main(["solve", gap7_file, "--alg", "exact", "--k", "0", "--budget", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 3
        assert doc["k"] == 0

    def test_budget_exhausted(self, gap7_file, capsys):
        code = main(["solve", gap7_file, "--alg", "exact", "--k", "0", "--budget", "2"])
        assert code == 4
        assert "no covering subset of cardinality <= 2" in capsys.readouterr().err

    def test_output_files(self, gap7_file, tmp_path, capsys):
        out_json = tmp_path / "sol.json"
        out_svg = tmp_path / "sol.svg"
        code = main([
            "solve", gap7_file, "--alg", "exact", "--k", "2",
            "--json", str(out_json), "--svg", str(out_svg),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out_json.read_text())
        assert doc["transmitters"] == [{"orientation": "v", "anchor": 6, "span": [0, 3]}]
        svg = out_svg.read_text()
        assert svg.startswith("<svg") and "<line" in svg

    def test_approx_requires_k2(self, gap7_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", gap7_file, "--alg", "approx", "--k", "0"])
        assert exc.value.code == 1


class TestCompare:
    def test_gap7(self, gap7_file, capsys):
        assert main(["compare", gap7_file]) == 0
        assert capsys.readouterr().out.strip() == "approx 1, exact 1, ratio 1.0"

    def test_stair6_ratio(self, tmp_path, capsys):
        ring = [
            [0, 0], [2, 0], [2, 1], [4, 1], [4, 2], [6, 2], [6, 3], [8, 3],
            [8, 4], [10, 4], [10, 5], [12, 5], [12, 7], [10, 7], [10, 6],
            [8, 6], [8, 5], [6, 5], [6, 4], [4, 4], [4, 3], [2, 3], [2, 2], [0, 2],
        ]
        f = tmp_path / "stair6.json"
        f.write_text(json.dumps({"vertices": ring}))
        assert main(["compare", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "approx 3, exact 2, ratio 1.5"


class TestGen:
    def test_deterministic_and_valid(self, tmp_path, capsys):
        args = ["gen", "--slabs", "4", "--max-h", "6", "--max-w", "3", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

        f = tmp_path / "gen.json"
        assert main(args + ["--out", str(f)]) == 0
        assert json.loads(f.read_text()) == json.loads(first)
        assert main(["validate", str(f)]) == 0

    def test_bad_generator_parameters(self, capsys):
        code = main(["gen", "--slabs", "3", "--max-h", "1", "--max-w", "3", "--seed", "0"])
        assert code == 2
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--slabs", "0", "--max-h", "6", "--max-w", "3", "--seed", "0"])
        assert exc.value.code == 1


class TestRender:
    def test_polygon_only(self, gap7_file, tmp_path):
        out = tmp_path / "p.svg"
        assert main(["render", gap7_file, "--svg", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "<path" in svg

    def test_with_solution_and_region(self, gap7_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        assert main(["solve", gap7_file, "--alg", "approx", "--k", "2",
                     "--json", str(sol)]) == 0
        out = tmp_path / "r.svg"
        assert main(["render", gap7_file, "--solution", str(sol),
                     "--vis", "0", "--svg", str(out)]) == 0
        svg = out.read_text()
        assert "<line" in svg and "<rect" in svg

    @pytest.mark.parametrize(
        "ring, t, k, expected",
        [
            (GAP7_RING, {"orientation": "v", "anchor": 6, "span": [0, 3]}, 0, GAP7_X6_K0_SVG),
            (COMB_RING, {"orientation": "v", "anchor": 1, "span": [0, 3]}, 2, COMB_X1_K2_SVG),
        ],
        ids=["gap7-family-k0", "comb-off-family-k2"],
    )
    def test_vis_output_bytes(self, ring, t, k, expected, tmp_path):
        poly, sol, out = tmp_path / "p.json", tmp_path / "s.json", tmp_path / "r.svg"
        poly.write_text(json.dumps({"vertices": ring}))
        sol.write_text(json.dumps({"k": k, "transmitters": [t]}))
        assert main(["render", str(poly), "--solution", str(sol),
                     "--vis", "0", "--svg", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")

    def test_vis_needs_solution(self, gap7_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["render", gap7_file, "--vis", "0", "--svg", str(tmp_path / "x.svg")])
        assert exc.value.code == 1

    def test_vis_index_out_of_range(self, gap7_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        main(["solve", gap7_file, "--alg", "approx", "--k", "2", "--json", str(sol)])
        code = main(["render", gap7_file, "--solution", str(sol),
                     "--vis", "5", "--svg", str(tmp_path / "x.svg")])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_vis_transmitter_outside_polygon(self, rect_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        for t in (
            {"orientation": "v", "anchor": 9, "span": [0, 3]},   # right of the polygon
            {"orientation": "v", "anchor": 3, "span": [0, 4]},   # pokes out of the top
            {"orientation": "h", "anchor": 1, "span": [-1, 6]},  # pokes out of the left
        ):
            sol.write_text(json.dumps({"k": 2, "transmitters": [t]}))
            code = main(["render", rect_file, "--solution", str(sol),
                         "--vis", "0", "--svg", str(tmp_path / "x.svg")])
            assert code == 2
            assert "not inside the closed polygon" in capsys.readouterr().err

    def test_malformed_solution_file(self, gap7_file, tmp_path, capsys):
        # k is judged by visibility.check_k, as every library call judges it
        sol = tmp_path / "sol.json"
        for k in ("9", "-1", "3.0"):
            sol.write_text(f'{{"k": {k}, "transmitters": []}}')
            code = main(["render", gap7_file, "--solution", str(sol),
                         "--svg", str(tmp_path / "x.svg")])
            assert code == 2, k
            err = capsys.readouterr().err
            assert err == f"error: {sol}: not a solution document: k must be 0, 1 or 2\n", k

    def test_vis_on_an_empty_solution(self, gap7_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text('{"k": 2, "transmitters": []}')
        code = main(["render", gap7_file, "--solution", str(sol),
                     "--vis", "0", "--svg", str(tmp_path / "x.svg")])
        assert code == 2
        assert capsys.readouterr().err == "error: --vis 0: the solution has no transmitters to shade\n"
        assert not (tmp_path / "x.svg").exists()

    def test_bad_span_quoted_as_written(self, gap7_file, tmp_path, capsys):
        # the message names the document's own numbers
        sol = tmp_path / "sol.json"
        t = {"orientation": "v", "anchor": 8, "span": [3, 1]}
        sol.write_text(json.dumps({"k": 2, "transmitters": [t]}))
        code = main(["render", gap7_file, "--solution", str(sol),
                     "--svg", str(tmp_path / "x.svg")])
        assert code == 2
        assert "span must be a nondegenerate interval, got (3, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t",
        [
            {"orientation": "v", "anchor": 2.7, "span": [0, 3]},
            {"orientation": "v", "anchor": 2, "span": [True, 3]},
            {"orientation": "v", "anchor": "1", "span": [0, 3]},
        ],
        ids=["float", "bool", "string"],
    )
    def test_non_integer_solution_values(self, rect_file, tmp_path, capsys, t):
        # read as parse_polygon reads coordinates, never coerced with int()
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"k": 2, "transmitters": [t]}))
        code = main(["render", rect_file, "--solution", str(sol),
                     "--svg", str(tmp_path / "x.svg")])
        assert code == 2
        assert "not a solution document" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [True, "1", 2.5], ids=["bool", "string", "fraction"])
    def test_non_integer_solution_k(self, rect_file, tmp_path, capsys, k):
        # k is read with the transmitter fields' rule; --vis would index with it
        sol = tmp_path / "sol.json"
        t = {"orientation": "v", "anchor": 3, "span": [0, 3]}
        sol.write_text(json.dumps({"k": k, "transmitters": [t]}))
        code = main(["render", rect_file, "--solution", str(sol),
                     "--vis", "0", "--svg", str(tmp_path / "x.svg")])
        assert code == 2
        assert "not a solution document" in capsys.readouterr().err

    def test_integral_float_solution_k(self, valley_file, tmp_path):
        # JSON 1.0 is the integer 1, as for coordinates; the left wall's
        # region indexes the row walls with k
        sol = tmp_path / "sol.json"
        t = {"orientation": "v", "anchor": 0, "span": [0, 3]}
        sol.write_text(json.dumps({"k": 1.0, "transmitters": [t]}))
        code = main(["render", valley_file, "--solution", str(sol),
                     "--vis", "0", "--svg", str(tmp_path / "x.svg")])
        assert code == 0


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{bad}"],
            ["solve", "{bad}", "--alg", "approx", "--k", "2"],
            ["render", "{poly}", "--solution", "{bad}", "--svg", "{out}"],
        ],
        ids=["validate", "solve", "render-solution"],
    )
    def test_exits_2_with_a_message(self, argv, rect_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "x.svg"
        code = main([a.format(bad=bad, poly=rect_file, out=out) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot read {bad}: ")
        assert "Traceback" not in err


class TestDeeplyNestedSolution:
    # json.loads raises RecursionError, a RuntimeError, on nesting this
    # deep; it must read as a bad document, not as an invariant breach.
    @pytest.mark.parametrize(
        "template",
        ["{nested}", '{{"k": 2, "transmitters": {nested}}}'],
        ids=["bare-list", "in-transmitters"],
    )
    def test_exits_2_with_a_message(self, template, rect_file, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(template.format(nested="[" * 200000 + "]" * 200000))
        out = tmp_path / "x.svg"
        code = main(["render", rect_file, "--solution", str(deep), "--svg", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{deep}: not a solution document: " in err
        assert "Traceback" not in err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{poly}", "--alg", "approx", "--k", "2", "--json", "{out}"],
            ["solve", "{poly}", "--alg", "approx", "--k", "2", "--svg", "{out}"],
            ["gen", "--slabs", "3", "--max-h", "4", "--max-w", "2", "--seed", "0", "--out", "{out}"],
            ["render", "{poly}", "--svg", "{out}"],
        ],
        ids=["solve-json", "solve-svg", "gen-out", "render-svg"],
    )
    def test_exits_2_with_a_message(self, argv, rect_file, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main([a.format(poly=rect_file, out=out) for a in argv])
        assert code == 2
        assert f"cannot write {out}" in capsys.readouterr().err


class TestClosedPipe:
    def test_exits_2_and_silences_stdout(self, rect_file, tmp_path, monkeypatch, capsys):
        # the reader closed stdout: exit 2 with no traceback, and stdout's
        # descriptor now points at the null device
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["validate", rect_file]) == 2
            os.write(sink.fileno(), b"discarded")
        assert (tmp_path / "stdout").read_bytes() == b""
        assert capsys.readouterr().err == ""

    def test_reader_gone_before_output(self):
        # 0.6 MB of JSON fills the pipe, so the write fails whatever the timing
        proc = subprocess.Popen(
            [sys.executable, "-m", "polytx.cli", "gen",
             "--slabs", "5000", "--max-h", "20", "--max-w", "4", "--seed", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b""


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_installed_script(self, rect_file):
        proc = subprocess.run(
            [sys.executable, "-m", "polytx.cli", "validate", rect_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["m"] == 2

    def test_package_runs_as_a_module(self, rect_file):
        proc = subprocess.run(
            [sys.executable, "-m", "polytx", "validate", rect_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["m"] == 2

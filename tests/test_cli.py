"""End-to-end CLI behavior: verbs, formats, exit codes, stdin/file input."""

import csv
import io
import json
import sys
import tracemalloc

import pytest

from ferrers import spectral
from ferrers.cli import main
from ferrers.graphs import BipartiteGraph, is_connected, parse_graph

HEX_TEXT = "3 3\n0 1\n1 2\n0 2\n"
K22_TEXT = "2 2\n0 1\n0 1\n"


@pytest.fixture
def hexfile(tmp_path):
    p = tmp_path / "hex.txt"
    p.write_text(HEX_TEXT)
    return str(p)


def feed(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


class TestBasicVerbs:
    def test_tau_plain(self, hexfile, capsys):
        assert main(["tau", hexfile, "--format", "plain"]) == 0
        assert capsys.readouterr().out == "6\n"

    def test_tau_json_default(self, hexfile, capsys):
        assert main(["tau", hexfile]) == 0
        assert json.loads(capsys.readouterr().out) == {"tau": 6}

    def test_tau_csv(self, hexfile, capsys):
        assert main(["tau", hexfile, "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["tau"], ["6"]]

    def test_tau_from_stdin(self, monkeypatch, capsys):
        feed(monkeypatch, K22_TEXT)
        assert main(["tau", "--format", "plain"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_invariant_exact_fraction(self, hexfile, capsys):
        assert main(["invariant", hexfile, "--format", "plain"]) == 0
        assert capsys.readouterr().out == "64/9\n"

    def test_invariant_json(self, hexfile, capsys):
        main(["invariant", hexfile])
        assert json.loads(capsys.readouterr().out) == {"F": "64/9"}

    def test_biadj_flag(self, tmp_path, capsys):
        p = tmp_path / "biadj.txt"
        p.write_text("11\n11\n")
        assert main(["tau", str(p), "--format", "plain"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_biadj_header_autodetected(self, monkeypatch, capsys):
        feed(monkeypatch, "biadj\n11\n11\n")
        assert main(["tau", "--format", "plain"]) == 0
        assert capsys.readouterr().out == "4\n"


class TestCheck:
    def test_record_fields(self, hexfile, capsys):
        assert main(["check", hexfile]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert set(rec) == {
            "graph",
            "tau",
            "F",
            "inequality_ok",
            "equality",
            "ferrers",
            "reduction_ok",
            "majorizes",
        }
        assert rec["tau"] == 6 and rec["F"] == "64/9"
        assert rec["inequality_ok"] is True and rec["equality"] is False

    def test_plain_lines(self, hexfile, capsys):
        assert main(["check", hexfile, "--format", "plain"]) == 0
        out = capsys.readouterr().out
        assert "tau: 6" in out and "ferrers: false" in out

    def test_fault_inject_fails_with_exit_one(self, corrupt, monkeypatch, capsys):
        corrupt("inequality")
        feed(monkeypatch, K22_TEXT)
        assert main(["check"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["tau"] == 5
        assert rec["inequality_ok"] is False


class TestSpectralVerbs:
    def test_spectrum_keys(self, hexfile, capsys):
        assert main(["spectrum", hexfile]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert set(rep) == {
            "lambda",
            "a_sorted",
            "partial_gaps",
            "defect_sums",
            "trace_gap",
            "majorizes",
        }
        assert rep["lambda"][0] == pytest.approx(3.0, abs=1e-9)
        assert rep["defect_sums"] == ["1/1", "1/2"]
        assert rep["majorizes"] is True

    def test_long_x_side_is_refused_before_m_is_built(self, monkeypatch, capsys):
        # K_{65,1}, one above the cap on m: the Jacobi solve on X would grow
        # faster than m^3, so M must not be built.
        def refuse(g):
            raise AssertionError("spectrum built M above its cap")

        monkeypatch.setattr(spectral, "scaled_schur", refuse)
        feed(monkeypatch, "65 1\n" + " ".join(map(str, range(65))) + "\n")
        assert main(["spectrum"]) == 2
        assert "m = 65 exceeds the spectrum input cap 64" in capsys.readouterr().err

    def test_long_y_side_still_runs(self, monkeypatch, capsys):
        # K_{1,65}: the cap bounds m, the side M is built on, not n.
        feed(monkeypatch, "1 65\n" + "0\n" * 65)
        assert main(["spectrum"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["a_sorted"] == [65] and rep["majorizes"] is True

    def test_majorize_is_rejected(self, hexfile, capsys):
        assert main(["majorize", hexfile]) == 2
        assert capsys.readouterr().out == ""


class TestOverlap:
    def test_frozen_pair(self, capsys):
        assert main(["overlap", "0,1", "1,2", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"trace": "5/4", "defect": "1/4"}

    def test_plain_two_lines(self, capsys):
        main(["overlap", "0,1", "1,2", "3", "--format", "plain"])
        assert capsys.readouterr().out == "trace: 5/4\ndefect: 1/4\n"

    def test_out_of_range_is_input_error(self, capsys):
        assert main(["overlap", "0,5", "1", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_field_is_input_error(self):
        assert main(["overlap", "0,", "1", "3"]) == 2

    @pytest.mark.parametrize(
        "m, message",
        [
            ("3", "index 400000000 in subset '400000000' is outside 0..2"),
            ("1000000000", "m = 1000000000 exceeds the overlap input cap 20"),
        ],
        ids=["beyond-m", "beyond-cap"],
    )
    def test_huge_index_is_refused_before_shifting(self, m, message, capsys):
        # 1 << 400000000 alone would take 50 MB.
        tracemalloc.start()
        try:
            assert main(["overlap", "0", "400000000", m]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert message in capsys.readouterr().err

    def test_negative_index_names_the_range(self, capsys):
        assert main(["overlap", "0", "-1", "3"]) == 2
        assert "index -1 in subset '-1' is outside 0..2" in capsys.readouterr().err

    def test_ground_set_at_the_cap_is_checked(self, capsys):
        assert main(["overlap", "0", "0", "20"]) == 0
        assert json.loads(capsys.readouterr().out) == {"trace": "1/1", "defect": "0/1"}

    def test_ground_set_above_the_cap_is_refused_before_any_product(self, monkeypatch, capsys):
        def refuse(I, T, m):
            raise AssertionError("checked the overlap of a refused ground set")

        monkeypatch.setattr("ferrers.cli.overlap_trace", refuse)
        assert main(["overlap", "0", "0", "21"]) == 2
        assert "exceeds the overlap input cap 20" in capsys.readouterr().err

    def test_failed_identity_check_exits_1(self, monkeypatch, capsys):
        real = spectral.overlap_defect
        monkeypatch.setattr("ferrers.spectral.overlap_defect", lambda i, t: real(i, t) + 1)
        assert main(["overlap", "0,1", "1,2", "3"]) == 1
        assert "theorem check failed:" in capsys.readouterr().err


class TestStaircaseVerbs:
    def test_gen_round_trips_through_detect(self, monkeypatch, capsys):
        assert main(["ferrers-gen", "3,2,1", "--format", "plain"]) == 0
        text = capsys.readouterr().out
        g = parse_graph(text)
        assert g == BipartiteGraph(3, 3, (0b111, 0b011, 0b001))
        feed(monkeypatch, text)
        assert main(["ferrers-detect", "--format", "plain"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_detect_rejects_hexagon(self, hexfile, capsys):
        main(["ferrers-detect", hexfile, "--format", "plain"])
        assert capsys.readouterr().out == "false\n"

    def test_gen_rejects_increasing_heights(self, capsys):
        assert main(["ferrers-gen", "1,2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gen_rejects_garbage(self):
        assert main(["ferrers-gen", "a,b"]) == 2

    def test_gen_height_at_the_cap_is_built(self, capsys):
        assert main(["ferrers-gen", "20", "--format", "plain"]) == 0
        assert parse_graph(capsys.readouterr().out) == BipartiteGraph(20, 1, ((1 << 20) - 1,))

    @pytest.mark.parametrize("heights", ["21", "1000000,1"])
    def test_gen_height_above_the_cap_is_refused_before_any_bitset(
        self, heights, monkeypatch, capsys
    ):
        # Writing the staircase walks a (1 << h) - 1 bitset bit by bit, so a
        # 7-digit height would run for hours.
        def refuse(p):
            raise AssertionError("built the staircase of a refused height")

        monkeypatch.setattr("ferrers.cli.ferrers_from_partition", refuse)
        assert main(["ferrers-gen", heights]) == 2
        top = heights.split(",")[0]
        err = capsys.readouterr().err
        assert f"error: height {top} exceeds the ferrers-gen input cap 20" in err


class TestEnumerate:
    def test_plain_blocks_reparse(self, capsys):
        assert main(["enumerate", "2", "2", "--format", "plain"]) == 0
        blocks = [b for b in capsys.readouterr().out.split("\n\n") if b.strip()]
        graphs = [parse_graph(b + "\n") for b in blocks]
        assert len(graphs) == 5
        assert len({g.nbrs for g in graphs}) == 5

    def test_json_lines(self, capsys):
        main(["enumerate", "2", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        for line in lines:
            parse_graph(json.loads(line)["graph"])

    def test_csv_has_one_header(self, capsys):
        assert main(["enumerate", "2", "2", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 5
        graphs = [parse_graph(row["graph"]) for row in rows]
        assert all(is_connected(g) for g in graphs)
        assert len({g.nbrs for g in graphs}) == 5

    def test_dedupe(self, capsys):
        main(["enumerate", "2", "2", "--dedupe"])
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_dedupe_plain_prints_each_class(self, capsys):
        assert main(["enumerate", "4", "5", "--dedupe", "--format", "plain"]) == 0
        blocks = [b for b in capsys.readouterr().out.split("\n\n") if b.strip()]
        assert len(blocks) == 558

    def test_cap_exceeded_is_input_error(self, capsys):
        assert main(["enumerate", "5", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cap_flag_and_env(self, monkeypatch, capsys):
        assert main(["enumerate", "2", "2", "--cap", "3"]) == 2
        capsys.readouterr()
        assert main(["enumerate", "2", "2", "--cap", "4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        # The environment does not set the cap; only --cap does.
        monkeypatch.setenv("FERRERS_CAP", "3")
        assert main(["enumerate", "2", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5


class TestVerify:
    def test_summary_json(self, capsys):
        assert main(["verify", "2", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads(lines[-1])
        assert summary["dims"] == [2, 2]
        assert summary["graphs_checked"] == 8
        assert summary["violations"] == 0
        assert summary["equality_cases"] == summary["ferrers_count"] == 8
        # json mode streams one record per graph ahead of the summary
        records = [json.loads(line) for line in lines[:-1]]
        assert len(records) == 8
        assert all(r["inequality_ok"] is True for r in records)

    def test_plain_summary_only(self, capsys):
        assert main(["verify", "2", "2", "--format", "plain"]) == 0
        out = capsys.readouterr().out
        assert "graphs_checked: 8" in out
        assert "tau" not in out  # no per-graph records outside json mode

    def test_csv_summary(self, capsys):
        assert main(["verify", "1", "2", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "dims"
        assert rows[1][0] == "1;2"

    def test_workers_flag(self, capsys):
        assert main(["verify", "2", "2", "--workers", "2", "--format", "plain"]) == 0
        assert "graphs_checked: 8" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_input_error(self, workers, capsys):
        assert main(["verify", "2", "2", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"workers must be at least 1, got {workers}" in captured.err

    def test_fault_inject_exits_one(self, corrupt, capsys):
        corrupt("inequality")
        assert main(["verify", "1", "1"]) == 1
        assert "theorem check failed:" in capsys.readouterr().err

    def test_cap_exceeded(self, capsys):
        assert main(["verify", "5", "5"]) == 2

    def test_cap_refuses_before_listing_pairs(self, capsys):
        # A million (m, n) pairs would take over 100 MB before the refusal.
        tracemalloc.start()
        try:
            assert main(["verify", "1000", "1000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "pair (1000, 1000) exceeds the enumeration cap 20" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["0", "3"], ["3", "0"]])
    def test_empty_range_is_input_error(self, argv, capsys):
        assert main(["verify", *argv]) == 2
        assert "no (m, n) pairs to verify" in capsys.readouterr().err


class TestCorollaryVerb:
    def test_unit_weights(self, tmp_path, capsys):
        p = tmp_path / "weighted.txt"
        p.write_text(HEX_TEXT + "1 1 1 1 1 1\n")
        assert main(["corollary", str(p), "--format", "plain"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_fractional_weights_from_stdin(self, monkeypatch, capsys):
        feed(monkeypatch, K22_TEXT + "1/2 2 3 1/7\n")
        assert main(["corollary"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True}

    def test_plain_decimal_weights(self, monkeypatch, capsys):
        feed(monkeypatch, K22_TEXT + "0.5 2 3.25 1\n")
        assert main(["corollary"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True}

    def test_biadj_graph_section(self, monkeypatch, capsys):
        feed(monkeypatch, "11\n11\n1 1 1 1\n")
        assert main(["corollary"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True}

    def test_no_edge_cap(self, monkeypatch, capsys):
        # K_{5,5} has 25 edges; no tree is listed, so no cap applies.
        feed(monkeypatch, "5 5\n" + "0 1 2 3 4\n" * 5 + "1 0 2 1/3 1 1 1 4 1 1\n")
        assert main(["corollary"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True}

    def test_missing_weights_line(self, monkeypatch, capsys):
        feed(monkeypatch, "1 1\n0\n")
        # the single graph line is taken as weights and the rest fails to parse
        assert main(["corollary"]) == 2

    def test_one_line_input_is_refused(self, monkeypatch, capsys):
        feed(monkeypatch, "1 1\n")
        assert main(["corollary"]) == 2
        assert "expected a graph followed by one line of weights" in capsys.readouterr().err

    def test_blank_lines_after_the_weights(self, monkeypatch, capsys):
        feed(monkeypatch, K22_TEXT + "1 1 1 1\n\n  \n")
        assert main(["corollary"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True}

    def test_negative_weight(self, monkeypatch, capsys):
        feed(monkeypatch, K22_TEXT + "1 1 -1 1\n")
        assert main(["corollary"]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_verb(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_malformed_graph(self, monkeypatch, capsys):
        feed(monkeypatch, "2 2\n0 3\n0 1\n")
        assert main(["tau"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param(
                "3 3 3\n0\n1\n2\n", "expected header 'm n' or 'biadj', got '3 3 3'",
                id="three-field-header",
            ),
            pytest.param("3 3\n0\n \n1 2\n", "line for y_1 is empty", id="blank-y1"),
        ],
    )
    def test_header_and_blank_line_refused(self, monkeypatch, capsys, text, message):
        feed(monkeypatch, text)
        assert main(["tau"]) == 2
        assert message in capsys.readouterr().err

    def test_enumerate_empty_part_refused(self, capsys):
        assert main(["enumerate", "0", "3"]) == 2
        assert "both parts must be nonempty" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["tau", str(tmp_path / "nope.txt")]) == 2

    @pytest.mark.parametrize("weight", ["1e2", "2E-1", "1e2000000"])
    def test_exponent_weight_is_input_error(self, monkeypatch, capsys, weight):
        # Fraction expands an exponent digit by digit, so 11 bytes could cost
        # seconds; the weight is refused before it is parsed.
        feed(monkeypatch, K22_TEXT + f"1/2 {weight} 3 1\n")
        assert main(["corollary"]) == 2
        assert repr(weight) in capsys.readouterr().err

    def test_zero_denominator_weight_is_input_error(self, monkeypatch, capsys):
        # Fraction("1/0") raises ZeroDivisionError; exit 1 is kept for failed checks.
        feed(monkeypatch, K22_TEXT + "1/0 2 3 1\n")
        assert main(["corollary"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["spectrum", "check"])
    def test_disconnected_graph_is_input_error(self, monkeypatch, capsys, verb):
        # scaled_schur refuses it with DisconnectedGraph for both verbs.
        feed(monkeypatch, "2 2\n0\n1\n")
        assert main([verb]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tau", "HEX", "--tol", "1e-6"],
            ["invariant", "HEX", "--cap", "4"],
            ["spectrum", "HEX", "--workers", "2"],
            ["enumerate", "2", "2", "--tol", "1e-6"],
            ["check", "HEX", "--cap", "4"],
            ["overlap", "0,1", "1,2", "3", "--cap", "4"],
            ["check", "HEX", "--fault-inject"],
            ["verify", "1", "1", "--fault-inject"],
            ["check", "HEX", "--tol", "1e-6"],
            ["spectrum", "HEX", "--tol", "1e-6"],
            ["verify", "1", "1", "--tol", "1e-6"],
            ["tau", "HEX", "--biadj"],
            ["corollary", "WHEX", "--cap", "4"],
        ],
    )
    def test_flag_of_another_verb_rejected(self, argv, hexfile, tmp_path):
        # Each command succeeds without its last flag (and the flag's value,
        # if any), and exits 2 with it, since that verb does not take it.
        # WHEX is the hexagon followed by a line of weights, as corollary reads it.
        weighted = tmp_path / "weighted.txt"
        weighted.write_text(HEX_TEXT + "1 1 1 1 1 1\n")
        files = {"HEX": hexfile, "WHEX": str(weighted)}
        argv = [files.get(a, a) for a in argv]
        flag = max(i for i, a in enumerate(argv) if a.startswith("--"))
        assert main(argv[:flag]) == 0
        assert main(argv) == 2

"""Command-line surface: spec parsing, report shapes, exit codes, and
byte-stable output."""

import json
from fractions import Fraction

import pytest

from uvinfo import CardinalityPower, DiameterPlusOne, LebesguePlusOffset
from uvinfo.cli import (
    ParseError,
    ValidationError,
    main,
    parse_channel_spec,
    parse_m_spec,
    parse_matrix_spec,
    parse_pair_spec,
)

F = Fraction


def run(args, capsys):
    """Invoke the entry point; returns (exit code, stdout, stderr)."""
    with pytest.raises(SystemExit) as info:
        main(args)
    out, err = capsys.readouterr()
    return info.value.code, out, err


class TestChannelSpec:
    def test_bundled_fixture_parses_to_ints(self):
        import importlib.resources as resources
        text = resources.files("uvinfo").joinpath(
            "data", "fig5.json").read_text()
        ch = parse_channel_spec(text)
        assert ch.x_symbols == tuple(range(1, 20))
        assert ch.image(1) == frozenset([1, 2, 3, 4, 5, 6, 11])

    def test_string_symbols_stay_strings(self):
        ch = parse_channel_spec('{"map": {"a": ["u"], "b": ["u", "v"]}}')
        assert ch.x_symbols == ("a", "b")
        assert ch.image("b") == frozenset(["u", "v"])

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError, match=r"line 2, column"):
            parse_channel_spec('{"map":\n !}')

    def test_empty_image_names_the_symbol(self):
        with pytest.raises(ValidationError, match="input 3"):
            parse_channel_spec('{"map": {"3": []}}')

    def test_alphabet_violation_names_both_symbols(self):
        with pytest.raises(ValidationError, match="symbol 2 of input 1"):
            parse_channel_spec('{"map": {"1": [1, 2]}, "outputs": [1]}')

    def test_stray_field_rejected(self):
        with pytest.raises(ParseError, match="unknown channel field"):
            parse_channel_spec('{"map": {"1": [1]}, "extra": 1}')


class TestPairSpec:
    def test_finite_pair(self):
        pair, m_x, m_y = parse_pair_spec(
            '{"kind": "finite", "joint": [[1, "u"], [2, "u"]]}')
        assert pair.marginal_range("X") == frozenset([1, 2])
        assert (m_x, m_y) == (None, None)

    def test_hybrid_pair_with_embedded_uncertainty(self):
        text = ('{"kind": "hybrid", "cells": {"a": [[0, 15]]},'
                ' "m_x": "card:5", "m_y": "leb+10"}')
        pair, m_x, m_y = parse_pair_spec(text)
        assert pair.is_hybrid()
        assert m_x == CardinalityPower(5)
        assert m_y == LebesguePlusOffset(10)

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown pair kind"):
            parse_pair_spec('{"kind": "mystery"}')

    def test_empty_cell_names_the_label(self):
        with pytest.raises(ValidationError, match="'a'"):
            parse_pair_spec('{"kind": "hybrid", "cells": {"a": []}}')


class TestMSpec:
    @pytest.mark.parametrize("text,expected", [
        ("card:19", CardinalityPower(19)),
        ("card:19:3", CardinalityPower(19, 3)),
        ("leb+10", LebesguePlusOffset(10)),
        ("leb+1/3", LebesguePlusOffset(F(1, 3))),
        ("diam:5", DiameterPlusOne(5)),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_m_spec(text) == expected

    @pytest.mark.parametrize("bad", ["card:", "card:x", "card:4:2:1",
                                     "leb+0.5", "gauss:3", "card:-1"])
    def test_rejected_forms(self, bad):
        with pytest.raises((ParseError, ValidationError, Exception)):
            m = parse_m_spec(bad)
            # card:-1 parses the int but the functional must refuse it
            assert m is not None and bad != "card:-1"


class TestMatrixSpec:
    def test_entries_and_floor(self):
        em = parse_matrix_spec(
            '{"labels": ["a", "b"], "entries": [["a", "b", "1/3"]],'
            ' "v_min": "1/2"}')
        assert em.value("a", "b") == F(1, 3)
        assert em.v_min == F(1, 2)

    def test_bad_entry_shape(self):
        with pytest.raises(ParseError, match="matrix entry"):
            parse_matrix_spec('{"labels": ["a"], "entries": [["a", "a"]]}')


class TestCommands:
    def test_capacity_json_round_trip(self, capsys):
        code, out, _ = run(["--format", "json", "capacity", "--channel",
                            "fig5.json", "--m", "card:19", "--delta", "2/9"],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["witness"] == [1, 7]
        assert payload["delta"] == "2/9"

    def test_mi_uses_embedded_uncertainty(self, capsys):
        code, out, _ = run(["mi", "--pair", "walkers.json",
                            "--delta1", "1/6"], capsys)
        assert code == 0
        assert "status: Disassociated" in out
        assert "bits: 0" in out

    def test_mi_flag_overrides_embedded_uncertainty(self, capsys):
        code, out, _ = run(["--format", "json", "mi", "--pair",
                            "walkers.json", "--delta1", "1/6",
                            "--m-x", "card:5:2"], capsys)
        # squaring sends the X-side association values to {1/25, 9/25},
        # which straddle 1/6, so no family exists there any more
        assert code == 0
        assert json.loads(out)["status"] == "Neither"

    def test_analyze_reports_association_values(self, capsys):
        code, out, _ = run(["--format", "json", "analyze", "--pair",
                            "walkers.json", "--delta1", "1/6",
                            "--delta2", "1/4", "--taxicab"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["a_xy"] == ["1/5", "3/5"]
        assert payload["a_yx"] == ["3/8", "1/2"]
        assert payload["levels"]["variant"] == "disassociated"
        assert payload["taxicab"]["exists"] is True

    def test_rates_profile_with_certificates(self, capsys):
        seq = '{"kind": "geometric", "base": "7/342", "first": "2/9"}'
        code, out, _ = run(["--format", "json", "rates", "--channel",
                            "fig5.json", "--m", "card:19", "--sequence", seq,
                            "--n-max", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [r["count"] for r in payload["rows"]] == [2, 4]
        assert payload["inf"]["bits"] == "1"
        assert [c["theorem"] for c in payload["certificates"]] == ["T12"]

    def test_single_letter_certificate(self, capsys):
        code, out, _ = run(["--format", "json", "single-letter", "--channel",
                            "fig5.json", "--m", "card:19:3",
                            "--variant", "T14"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["certifies"] is True
        assert payload["capacity_bits"] == "log2(3)"
        assert payload["codebook"] == [1, 7, 13]

    def test_verify_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--channel", "fig5.json",
                            "--m", "card:19", "--deltas", "0,2/9,6/19"],
                           capsys)
        assert code == 0
        assert "failures: 0" in out

    def test_hamming_failure_exits_one(self, capsys, tmp_path):
        cb = tmp_path / "cb.txt"
        cb.write_text("0000\n1100\n")
        code, out, _ = run(["hamming", "--codebook", str(cb),
                            "--tau", "1/4", "--delta", "0"], capsys)
        assert code == 1
        assert "distinguishable: no" in out

    def test_hamming_report(self, capsys):
        code, out, _ = run(["--format", "json", "hamming", "--words",
                            "0000,1111", "--tau", "1/4", "--delta", "1/2"],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["min_distance"] == 4
        assert payload["correctable"] == 1

    def test_classify_from_csv(self, capsys, tmp_path):
        src = tmp_path / "conf.csv"
        src.write_text("true,predicted\na,a\na,b\nb,b\nc,c\n")
        code, out, _ = run(["--format", "json", "classify", "--confusion",
                            str(src), "--delta", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["witness"] == ["a", "c"]

    def test_examples_all_pass(self, capsys):
        code, out, _ = run(["examples"], capsys)
        assert code == 0
        assert "failures: 0" in out
        assert "ok=no" not in out


class TestErrorHandling:
    def test_decimal_delta_exits_two(self, capsys):
        code, _, err = run(["capacity", "--channel", "fig5.json",
                            "--m", "card:19", "--delta", "0.5"], capsys)
        assert code == 2
        assert "not exact" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(["capacity", "--channel", "/nowhere.json",
                            "--m", "card:19", "--delta", "0"], capsys)
        assert code == 2
        assert "no such input file" in err

    def test_domain_error_exits_two(self, capsys):
        code, _, err = run(["capacity", "--channel", "fig5.json",
                            "--m", "card:19", "--delta", "1"], capsys)
        assert code == 2
        assert "delta" in err

    @pytest.mark.parametrize("horizon", ["1000000", "100000000"])
    def test_huge_horizon_exits_two(self, capsys, horizon):
        code, out, err = run(["rates", "--channel", "fig5.json", "--m",
                              "card:19", "--delta", "2/9", "--horizon",
                              horizon], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: 19^{horizon} block inputs exceed the cap of 500\n"

    def test_half_specified_levels_rejected(self, capsys):
        code, _, err = run(["analyze", "--pair", "walkers.json",
                            "--delta1", "1/6"], capsys)
        assert code == 2
        assert "both" in err

    @pytest.mark.parametrize("matrix", [
        {"labels": [1, "a"], "entries": []},
        {"labels": [["a"], "b"], "entries": []},
        {"labels": ["a", "b"], "entries": [[["a"], "b", "1/4"]]},
    ], ids=["incomparable-labels", "unhashable-label", "unhashable-entry-label"])
    def test_bad_matrix_labels_exit_two(self, capsys, tmp_path, matrix):
        src = tmp_path / "matrix.json"
        src.write_text(json.dumps(matrix))
        code, out, err = run(["classify", "--matrix", str(src),
                              "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_diameter_on_integer_labels_exits_two(self, capsys):
        code, out, err = run(["capacity", "--channel", "fig5.json",
                              "--m", "diam:3", "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestDeterminism:
    # The CLI runs single-threaded and reads no thread-count setting; a
    # leftover UVINFO_THREADS in the environment must not change a report.
    def test_reports_are_byte_stable_across_thread_counts(
            self, capsys, monkeypatch):
        outputs = []
        for threads in ("1", "3", "8", "not-a-number"):
            monkeypatch.setenv("UVINFO_THREADS", threads)
            code, out, _ = run(["--format", "json", "examples"], capsys)
            assert code == 0
            outputs.append(out)
        assert len(set(outputs)) == 1

    def test_verify_is_byte_stable_across_thread_counts(
            self, capsys, monkeypatch):
        outputs = []
        for threads in ("1", "4", "not-a-number"):
            monkeypatch.setenv("UVINFO_THREADS", threads)
            code, out, _ = run(["--format", "json", "verify", "--channel",
                                "fig5.json", "--m", "card:19"], capsys)
            assert code == 0
            outputs.append(out)
        assert len(set(outputs)) == 1

    def test_repeated_runs_identical(self, capsys):
        args = ["--format", "json", "rates", "--channel", "fig5.json",
                "--m", "card:19", "--delta", "4/9", "--horizon", "1"]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second

    def test_format_flag_accepted_in_both_positions(self, capsys):
        tail = ["capacity", "--channel", "fig5.json", "--m", "card:19",
                "--delta", "2/9"]
        _, leading, _ = run(["--format", "json"] + tail, capsys)
        _, trailing, _ = run(tail + ["--format", "json"], capsys)
        _, plain, _ = run(tail, capsys)
        assert leading == trailing
        assert plain.startswith("command: capacity")

"""Command-line surface: spec parsing, report shapes, exit codes, and
byte-stable output."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uvinfo import (CardinalityPower, DiameterPlusOne, LebesguePlusOffset,
                    UvinfoError, cli)
from uvinfo.cli import (
    CARD_MAX_BITS,
    CARD_MAX_EXPONENT,
    ParseError,
    main,
    parse_channel_spec,
    parse_m_spec,
    parse_matrix_spec,
    parse_pair_spec,
)

F = Fraction
FIG5 = ["--channel", "fig5.json", "--m", "card:19"]
EMPTY_M = ("unknown uncertainty spec ''; use card:<base>[:<exp>], "
           "leb+<offset>, or diam:<normalizer>")
EMPTY_RATIO = "not a valid ratio: ''"


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
        with pytest.raises(UvinfoError, match="image of 3 is empty"):
            parse_channel_spec('{"map": {"3": []}}')

    def test_an_empty_map_is_refused(self):
        with pytest.raises(UvinfoError,
                           match="a channel needs at least one input symbol"):
            parse_channel_spec('{"map": {}}')

    def test_alphabet_violation_names_both_symbols(self):
        with pytest.raises(UvinfoError, match="symbol 2 of input 1"):
            parse_channel_spec('{"map": {"1": [1, 2]}, "outputs": [1]}')

    @pytest.mark.parametrize("key", ["²", "--1", "-", "1.0", "1" * 5000],
                             ids=["superscript", "two-dashes", "dash",
                                  "decimal", "past-the-digit-limit"])
    def test_symbols_int_cannot_read_stay_strings(self, key):
        # "²" is a digit, "--1" is digits after dashes, and int() reads no
        # string of more than 4300 digits; each used to end in a ValueError
        # and exit 3
        ch = parse_channel_spec('{"map": {"%s": ["u"], "-3": ["v"]}}' % key)
        assert ch.x_symbols == tuple(sorted([key, "-3"]))

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
        with pytest.raises(ParseError, match="'a'"):
            parse_pair_spec('{"kind": "hybrid", "cells": {"a": []}}')


class TestMSpec:
    @pytest.mark.parametrize("text,expected", [
        ("card:19", CardinalityPower(19)),
        ("card:19:3", CardinalityPower(19, 3)),
        ("leb+10", LebesguePlusOffset(10)),
        ("leb+1/3", LebesguePlusOffset(F(1, 3))),
        ("diam:5", DiameterPlusOne(5)),
        (f"card:19:{CARD_MAX_EXPONENT}", CardinalityPower(19, CARD_MAX_EXPONENT)),
        (f"card:{2 ** 64 - 1}:64", CardinalityPower(2 ** 64 - 1, 64)),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_m_spec(text) == expected

    REJECTED = {
        "card:": "non-integer field in 'card:'",
        "card:x": "non-integer field in 'card:x'",
        "card:4:2:1": "bad uncertainty spec 'card:4:2:1': "
                      "bad cardinality spec 'card:4:2:1'",
        "leb+0.5": "bad uncertainty spec 'leb+0.5': "
                   "decimal notation is not exact: '0.5'",
        "gauss:3": "unknown uncertainty spec 'gauss:3'; use card:<base>"
                   "[:<exp>], leb+<offset>, or diam:<normalizer>",
        # card:-1 parses the int but the functional must refuse it
        "card:-1": "bad uncertainty spec 'card:-1': "
                   "base_size must be a positive integer",
    }

    @pytest.mark.parametrize("bad", sorted(REJECTED))
    def test_rejected_forms(self, bad):
        with pytest.raises(ParseError) as info:
            parse_m_spec(bad)
        assert str(info.value) == self.REJECTED[bad]


class TestMatrixSpec:
    def test_entries_and_floor(self):
        em = parse_matrix_spec(
            '{"labels": ["a", "b"], "entries": [["a", "b", "1/3"]],'
            ' "v_min": "1/2"}')
        assert em.value("a", "b") == F(1, 3)
        assert em.v_min == F(1, 2)

    def test_a_pair_repeated_with_its_value_is_read_once(self):
        em = parse_matrix_spec('{"labels": ["a", "b"], "entries": '
                               '[["a", "b", "1/2"], ["a", "b", "2/4"]]}')
        assert em.value("a", "b") == F(1, 2)

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

    def test_mi_needs_no_measure_its_direction_never_reads(
            self, tmp_path, monkeypatch, capsys):
        # YgivenX reads only m_y, so a pair file without m_x answers as the
        # bundled walkers.json does
        _, want, _ = run(["mi", "--pair", "walkers.json", "--delta1", "1/4",
                          "--direction", "YgivenX"], capsys)
        spec = json.loads(cli._read_input("walkers.json", "pair"))
        del spec["m_x"]
        (tmp_path / "pair.json").write_text(json.dumps(spec))
        monkeypatch.chdir(tmp_path)
        argv = ["mi", "--pair", "pair.json", "--delta1", "1/4", "--direction"]
        assert run([*argv, "YgivenX"], capsys) == (0, want, "")
        assert run([*argv, "XgivenY"], capsys)[0] == 2

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

    @pytest.mark.parametrize("seq", [
        '{"kind": "explicit", "values": ["0", "0"]}',
        '{"kind": "explicit", "values": ["1/2", "0"], "first": "0"}',
    ], ids=["listed-zeros", "first-overrides-a-listed-value"])
    def test_rates_zero_sequence_gets_the_zero_error_certificate(self, capsys,
                                                                 seq):
        # both sequences are zero at every n; the second used to lose Cor2
        # because the listed delta_1 was read under `first`
        code, out, _ = run(["--format", "json", "rates", "--channel",
                            "fig5.json", "--m", "card:19", "--sequence", seq,
                            "--n-max", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [c["theorem"] for c in payload["certificates"]] \
            == ["T12", "Cor2", "T13"]

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


# a command that reads its input file from each flag that takes one
READERS = {
    "--channel": lambda path: ["capacity", "--channel", path,
                               "--m", "card:19", "--delta", "0"],
    "--pair": lambda path: ["analyze", "--pair", path],
    "--matrix": lambda path: ["classify", "--matrix", path, "--delta", "0"],
    "--confusion": lambda path: ["classify", "--confusion", path,
                                 "--delta", "0"],
    "--codebook": lambda path: ["hamming", "--codebook", path, "--tau", "1"],
    "--sequence": lambda path: ["rates", "--channel", "fig5.json",
                                "--m", "card:19", "--sequence", path,
                                "--n-max", "2"],
}


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

    def test_directory_path_does_not_fall_back_to_bundle(self, capsys):
        code, out, err = run(["capacity", "--channel", "/nowhere/fig5.json",
                              "--m", "card:19", "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: no such input file: /nowhere/fig5.json\n"

    @pytest.mark.parametrize("path", ["a\0b.json", "/nowhere/a\0b.json"])
    def test_path_with_a_nul_is_a_missing_file(self, capsys, path):
        # open() refuses a NUL with ValueError, not an OSError
        code, out, err = run(["capacity", "--channel", path, "--m", "card:19",
                              "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: no such input file: {path}\n"

    def test_missing_sequence_file_exits_two(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["rates", "--channel", "fig5.json", "--m",
                              "card:19", "--sequence", "seq.json",
                              "--n-max", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: no such input file: seq.json\n"

    @pytest.mark.parametrize("flag", sorted(READERS))
    @pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
    def test_unreadable_input_file_exits_two(self, capsys, tmp_path,
                                             monkeypatch, flag, unreadable):
        # a directory and bytes that are not UTF-8 used to end in an
        # IsADirectoryError or a UnicodeDecodeError and exit 3
        monkeypatch.chdir(tmp_path)
        if unreadable == "directory":
            path, message = ".", "cannot read input file .: "
        else:
            path = "bad.json"
            (tmp_path / path).write_bytes(b"\xff\xfe{}")
            message = "input file bad.json is not UTF-8 text (byte 0)\n"
        code, out, err = run(READERS[flag](path), capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_zero_lebesgue_offset_exits_two(self, capsys, tmp_path):
        # with offset 0 the single point [1, 1] where a and b meet would
        # measure 0, which no uncertainty function may do
        src = tmp_path / "cells.json"
        src.write_text('{"kind": "hybrid", "cells": {"a": [[0, 1]], '
                       '"b": [[1, 2]], "c": [[3, 4]]}}')
        code, out, err = run(["analyze", "--pair", str(src), "--m-x", "card:3",
                              "--m-y", "leb+0", "--delta1", "0",
                              "--delta2", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: bad uncertainty spec 'leb+0': "
                       "offset must be positive\n")

    def test_profile_past_the_image_cap_keeps_its_rows(self, capsys, tmp_path):
        src = tmp_path / "channel.json"
        src.write_text(json.dumps(
            {"map": {str(x): [x, x + 1] for x in range(13)}}))
        code, out, err = run(["--format", "json", "rates", "--channel",
                              str(src), "--m", "card:14", "--sequence",
                              '{"kind": "geometric", "base": "1/100", '
                              '"first": "1/50"}', "--n-max", "1"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [row["count"] for row in payload["rows"]] == [7]
        assert payload["certificates"] == []
        assert payload["notes"] == ["certificates skipped: 13 distinct images "
                                    "exceed the brute-force cap of 12"]

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

    def test_unnormalized_product_names_its_value(self, capsys):
        code, out, err = run(["rates", "--channel", "fig5.json", "--m",
                              "card:20", "--delta", "2/9", "--horizon", "2"],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "error: m(output alphabet) = 361/400, expected 1\n"

    def test_one_symbol_base_bounds_the_horizon(self, capsys, tmp_path):
        # a one-input, one-output base has one block per horizon, so the
        # block length is what meets the cap: neither command builds a
        # block of 10^8 symbols
        src = tmp_path / "one.json"
        src.write_text('{"map": {"a": ["x"]}}')
        code, out, err = run(["rates", "--channel", str(src), "--m", "card:1",
                              "--delta", "0", "--horizon", "100000000"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: horizon 100000000 exceeds the cap of 500 on "
                       "block inputs\n")
        code, out, err = run(["--format", "json", "rates", "--channel",
                              str(src), "--m", "card:1", "--sequence",
                              '{"kind": "zero"}', "--n-max", "100000000"],
                             capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert len(payload["rows"]) == 500
        assert payload["notes"] == ["horizon 501 skipped: horizon 501 exceeds "
                                    "the cap of 500 on block inputs"]

    def test_huge_cardinality_exponent_exits_two(self, capsys, monkeypatch):
        # exact powers this large used to run past any timeout: the spec
        # must be refused before any uncertainty value is computed
        def refuse(self, size):
            raise AssertionError("an uncertainty value was computed")
        monkeypatch.setattr(CardinalityPower, "of_size", refuse)
        code, out, err = run(["capacity", "--channel", "fig5.json", "--m",
                              "card:19:99999999", "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: bad uncertainty spec 'card:19:99999999': "
                       f"exponent 99999999 exceeds the cap of {CARD_MAX_EXPONENT}\n")

    @pytest.mark.parametrize("spec", [
        f"card:{10 ** 70}:64", f"card:{2 ** 64}:64", f"card:{2 ** CARD_MAX_BITS}",
    ], ids=["ten-to-the-70", "just-past-the-cap", "exponent-one"])
    def test_huge_cardinality_base_exits_two(self, capsys, monkeypatch, spec):
        # m(output alphabet) = (19 / 10^70)^64 has a denominator too long
        # to print, which used to end in a ValueError traceback
        def refuse(self, size):
            raise AssertionError("an uncertainty value was computed")
        monkeypatch.setattr(CardinalityPower, "of_size", refuse)
        code, out, err = run(["capacity", "--channel", "fig5.json", "--m",
                              spec, "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: bad uncertainty spec {spec!r}: base ** exponent "
                       f"exceeds the cap of {CARD_MAX_BITS} bits\n")

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

    def test_colliding_channel_keys_exit_two(self, capsys, tmp_path):
        # both keys read as the input 1: keeping either image would answer
        # for a channel the file does not describe
        src = tmp_path / "channel.json"
        src.write_text('{"map": {"1": [1], "01": [2]}}')
        code, out, err = run(["capacity", "--channel", str(src), "--m",
                              "card:1", "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: input keys '1' and '01' both read as 1\n"

    @pytest.mark.parametrize("flag, spec, message", [
        ("--matrix", {"labels": ["a", "b"], "entries": [["a", "b", True]]},
         "a boolean is not a ratio: True"),
        ("--matrix", {"labels": ["a", "b"], "v_min": False},
         "a boolean is not a ratio: False"),
        ("--sequence", {"kind": "constant", "value": False},
         "a boolean is not a ratio: False"),
        ("--channel", {"map": {"1": [True, 2], "2": [1, 3]}},
         "a boolean is not a symbol: True"),
        ("--matrix", {"labels": [1, 2, 3], "entries": [[True, 2, "1/2"]]},
         "a boolean is not a label: True"),
        ("--matrix", {"labels": [1, 2, 3], "entries": [[1, False, "1/2"]]},
         "a boolean is not a label: False"),
        ("--matrix", {"labels": [True, 2], "entries": []},
         "a boolean is not a label: True"),
        ("--matrix", {"labels": [True, 1]},
         "a boolean is not a label: True"),
    ], ids=["matrix-entry", "matrix-floor", "sequence-value", "channel-image",
            "matrix-entry-first-label", "matrix-entry-second-label",
            "matrix-label", "matrix-labels-collide"])
    def test_json_booleans_exit_two(self, capsys, tmp_path, flag, spec,
                                    message):
        # a bool is an int, so true and false used to read as 1 and 0: the
        # channel's images {1, 2} and {1, 3} met, and it still exited 0
        src = tmp_path / "spec.json"
        src.write_text(json.dumps(spec))
        args = {"--matrix": ["classify", "--matrix", str(src), "--delta", "0"],
                "--sequence": ["rates", "--channel", "fig5.json", "--m",
                               "card:19", "--sequence", str(src)],
                "--channel": ["capacity", "--channel", str(src), "--m",
                              "card:3", "--delta", "0"]}[flag]
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, text, message", [
        ("--channel", '{"map": {"3": 5}}', "image of input 3 must be a list"),
        ("--channel", '{"map": {"1": [1]}, "outputs": []}',
         "'outputs' must be a nonempty list"),
        ("--pair", '{"kind": "finite", "joint": [[1, 2, 3]]}',
         "'joint' entries are [x, y] pairs"),
        ("--pair", '{"kind": "hybrid", "cells": []}',
         "a hybrid pair needs a nonempty 'cells' object"),
        ("--pair", '{"kind": "hybrid", "cells": {"a": 5}}',
         "cell for label 'a' must be a list"),
        ("--pair", '{"kind": "hybrid", "cells": {"a": [[1]]}}',
         "an interval union is read from (lo, hi) pairs"),
        ("--pair", '{"kind": "hybrid", "cells": {"a": [5]}}',
         "an interval union is read from (lo, hi) pairs"),
        ("--matrix", '{"labels": ["a", "b"], "entries": {}}',
         "'entries' must be a list of [l1, l2, value] rows"),
        ("--matrix", '{"labels": ["a", "b"], "entries": '
                     '[["a", "b", "1/2"], ["a", "b", "0"]]}',
         "conflicting entries for pair ('a', 'b'): 1/2 vs 0"),
        ("--confusion", "true,predicted\na,b,c\n", "line 2: ['a', 'b', 'c']"),
        ("--channel", '{"map": {"1": [1], "2": [2], "1": [1, 2]}}',
         "invalid JSON: the key '1' is given twice"),
        ("--pair", '{"kind": "hybrid", "cells": {"a": [[0, 1]], '
                   '"a": [[5, 6]]}}',
         "invalid JSON: the key 'a' is given twice"),
        ("--sequence", '{"kind": "geometric", "base": "1/2", "base": "2"}',
         "invalid JSON: the key 'base' is given twice"),
    ], ids=["image-not-a-list", "empty-outputs", "joint-entry-not-a-pair",
            "cells-not-an-object", "cell-not-a-list", "cell-piece-of-one",
            "cell-piece-not-a-list", "entries-not-a-list",
            "matrix-pair-given-two-values", "confusion-row-of-three",
            "channel-input-given-twice", "pair-label-given-twice",
            "sequence-field-given-twice"])
    def test_malformed_input_file_exits_two(self, capsys, tmp_path, flag,
                                            text, message):
        # raw text, since json.dumps writes no key twice; a key given twice
        # and a matrix pair given two values used to keep their last value
        src = tmp_path / "input"
        src.write_text(text)
        code, out, err = run(READERS[flag](str(src)), capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", [
        '{"map": {"1": [%s]}}' % ("1" * 5000),
        '{"map": %s}' % ("[" * 100000 + "]" * 100000),
    ], ids=["integer-past-the-digit-limit", "nesting-past-the-stack"])
    def test_json_past_the_parser_limits_exits_two(self, capsys, tmp_path,
                                                   text):
        # json.loads raises ValueError and RecursionError here, not
        # JSONDecodeError; both used to exit 3
        src = tmp_path / "channel.json"
        src.write_text(text)
        code, out, err = run(["capacity", "--channel", str(src), "--m",
                              "card:1", "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid JSON: too many digits or too deep\n"

    @pytest.mark.parametrize("values", ["5", "null", "true", "1.5", '"12"'])
    def test_explicit_sequence_values_must_be_a_list(self, capsys, values):
        code, out, err = run(["rates", "--channel", "fig5.json", "--m",
                              "card:19", "--sequence",
                              '{"kind": "explicit", "values": %s}' % values],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "error: an explicit sequence needs a list of values\n"

    @pytest.mark.parametrize("kind", ["[]", "{}"])
    def test_unhashable_sequence_kind_exits_two(self, capsys, kind):
        code, out, err = run(["rates", "--channel", "fig5.json", "--m",
                              "card:19", "--sequence", '{"kind": %s}' % kind],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"error: unknown sequence kind {json.loads(kind)!r}\n"

    @pytest.mark.parametrize("level", ["2/5", "18/19"])
    def test_profile_above_the_noise_floor_reports_rows(self, capsys, level):
        # the T13 level of a singleton codebook, delta_1 / m(Y), passes 1
        # here; that codebook is skipped instead of aborting the profile
        code, out, err = run(["--format", "json", "rates", "--channel",
                              "fig5.json", "--m", "card:19", "--sequence",
                              '{"kind": "constant", "value": "%s"}' % level],
                             capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert [row["delta_n"] for row in report["rows"]] == [level]
        assert report["certificates"] == []

    def test_certificate_level_above_one_exits_two(self, capsys):
        code, out, err = run(["single-letter", "--channel", "fig5.json",
                              "--m", "card:19", "--variant", "T13",
                              "--codebook", "1", "--delta1", "1/2",
                              "--sequence", '{"kind": "zero"}'], capsys)
        assert (code, out) == (2, "")
        assert err == "error: level 19/14 for codebook (1,) outside [0, 1]\n"

    def test_diameter_on_integer_labels_exits_two(self, capsys):
        code, out, err = run(["capacity", "--channel", "fig5.json",
                              "--m", "diam:3", "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unexpected_exception_exits_three(self, capsys, monkeypatch):
        # exit 1 means a verification mismatch, so a fault of the program
        # gets its own code and one line, not a traceback
        def broken(args):
            raise RuntimeError("handler fault")
        monkeypatch.setattr(cli, "_cmd_capacity", broken)
        code, out, err = run(["capacity", "--channel", "fig5.json",
                              "--m", "card:19", "--delta", "0"], capsys)
        assert (code, out) == (3, "")
        assert err == "internal error: RuntimeError: handler fault\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupts_are_not_internal_errors(self, monkeypatch, exc):
        def interrupted(args):
            raise exc()
        monkeypatch.setattr(cli, "_cmd_capacity", interrupted)
        with pytest.raises(exc):
            main(["capacity", "--channel", "fig5.json", "--m", "card:19",
                  "--delta", "0"])


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


# ---------------------------------------------------------------------------
# exit contract under random input


SYMBOLS = (st.integers(-1, 4) | st.sampled_from(["a", "1", "01", "-2", ""])
           | st.booleans() | st.none())
ODD_SYMBOLS = st.sampled_from(["²", "--1", "-", "01", "-2", "", True, False,
                               None, 2.5, "a"])
JSON = st.recursive(
    SYMBOLS | st.sampled_from(["1/2", "0.5", "1/0", "x"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["map", "kind", "joint", "cells", "labels",
                         "entries", "v_min", "value", "values", "base"]),
        kids, max_size=4),
    max_leaves=10)
RATIOS = st.sampled_from(["0", "1/9", "1/5", "1/3", "1/2", "2/3"])
BAD_RATIOS = st.sampled_from(["1", "-1/2", "3/2", "0.5", "1e2", "1/0", "x",
                              "", " 1/4 "])
BAD_M_SPECS = st.sampled_from([
    "card:1", "card:3", "card:0", "card:-2", "card:x", "card:3:0",
    "card:3:-1", "card:3:99", "card:", "card:1:2:3", "leb+1", "leb+0",
    "leb+-1", "diam:1", "diam:3", "diam:0", "gauss:3"])


def twice(obj: dict) -> bytes:
    """The JSON text of ``obj`` with its first key given twice, which
    ``json.dumps`` never writes; bytes, so a drawn JSON string stays apart."""
    key, value = next(iter(obj.items()))
    return ("{%s: %s, %s" % (json.dumps(key), json.dumps(value),
                             json.dumps(obj)[1:])).encode()


def mostly(draw, good, bad, odds=6):
    """``good`` drawn about ``odds - 1`` times in ``odds``, else ``bad``;
    ``bad`` goes with the last choice, since the draws lean to the first."""
    return draw(bad if draw(st.integers(1, odds)) == odds else good)


@st.composite
def channels_and_measures(draw):
    """A channel spec and an m-spec, most often a cardinality measure on
    its output alphabet, so that most commands run."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    images = st.lists(st.integers(0, k - 1), min_size=1, max_size=k)
    spec = {"map": {str(x): draw(images) for x in range(n)}}
    if draw(st.booleans()):
        spec["outputs"] = list(range(k))
    size = len(spec.get("outputs") or set().union(*spec["map"].values()))
    good = st.sampled_from([f"card:{size}", f"card:{size}:2"])
    bad_spec = (st.builds(lambda a, b: {"map": {"1": [a], "2": [0, b]}},
                          ODD_SYMBOLS, ODD_SYMBOLS)
                | st.just(b'{"map": %s}' % twice(spec["map"]))
                | st.builds(lambda a: {"map": {"1": a}}, SYMBOLS) | JSON)
    return (mostly(draw, st.just(spec), bad_spec, odds=3),
            mostly(draw, good, BAD_M_SPECS))


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 4))
    joint = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)).map(list),
                          min_size=1, max_size=6))
    xs, ys = {x for x, _ in joint}, {y for _, y in joint}
    finite = {"kind": "finite", "joint": joint, "m_x": f"card:{len(xs)}",
              "m_y": f"card:{len(ys)}"}
    piece = st.tuples(st.integers(0, 3), st.integers(1, 3)).map(
        lambda p: [p[0], p[0] + p[1]])
    hybrid = {"kind": "hybrid", "m_x": f"card:{n}", "m_y": "leb+1",
              "cells": {str(x): draw(st.lists(piece, min_size=1, max_size=2))
                        for x in range(n)}}
    bad = (st.builds(lambda a, b, mx: {"kind": "finite",
                                       "joint": [[a, 0], [1, b]],
                                       "m_x": mx, "m_y": "card:1"},
                     ODD_SYMBOLS, ODD_SYMBOLS, BAD_M_SPECS)
           | st.just(b'{"kind": "hybrid", "cells": %s}' % twice(hybrid["cells"]))
           | st.builds(lambda a: {**hybrid, "cells": {"0": a}}, SYMBOLS)
           | JSON)
    return mostly(draw, st.sampled_from([finite, hybrid]), bad)


@st.composite
def matrices(draw):
    labels = draw(st.lists(st.sampled_from("abcdef"), min_size=2, max_size=6,
                           unique=True))
    entries = [[a, b, draw(RATIOS)] for k, a in enumerate(labels)
               for b in labels[k + 1:] if draw(st.booleans())]
    entries.append([labels[0], labels[-1], mostly(draw, RATIOS,
                                                  BAD_RATIOS | SYMBOLS)])
    spec = {"labels": labels, "entries": entries,
            "v_min": mostly(draw, st.sampled_from(["1", "3/4"]), BAD_RATIOS)}
    return mostly(draw, st.just(spec), JSON)


@st.composite
def sequences(draw):
    kind = draw(st.sampled_from(["constant", "explicit", "geometric",
                                 "zero"]))
    value = mostly(draw, RATIOS, BAD_RATIOS | SYMBOLS)
    spec = {"kind": kind}
    if kind != "zero":
        field = {"constant": "value", "explicit": "values",
                 "geometric": "base"}[kind]
        spec[field] = [value] if kind == "explicit" else value
    if draw(st.booleans()):
        spec["first"] = mostly(draw, RATIOS, BAD_RATIOS)
    return json.dumps(mostly(draw, st.just(spec), JSON))


@st.composite
def commands(draw):
    """One command line over random specs, and the files it reads; every
    option is written ``--name=value``, so a value may start with a dash."""
    command = draw(st.sampled_from(["capacity", "rates", "profile",
                                    "single-letter", "verify", "analyze",
                                    "mi", "classify", "hamming"]))
    files = {}
    argv = [f"--format={draw(st.sampled_from(['json', 'text']))}"]
    ratios = st.integers(0, 5).flatmap(
        lambda k: BAD_RATIOS if k == 5 else RATIOS)

    def maybe(option, values):  # present about five times in six
        if draw(st.integers(0, 5)) < 5:
            argv.append(f"--{option}={draw(values)}")

    if command in ("capacity", "rates", "profile", "single-letter", "verify"):
        files["channel.json"], m = draw(channels_and_measures())
        argv += ["rates" if command == "profile" else command,
                 "--channel=channel.json", f"--m={m}"]
        if command in ("capacity", "rates"):
            argv.append(f"--delta={draw(ratios)}")
        counts = st.sampled_from(["1", "2", "0", "x"])  # horizon or n-max
        if command == "rates":
            maybe("horizon", counts)
        if command == "profile":
            argv.append(f"--sequence={draw(sequences())}")
            maybe("n-max", counts)
        if command == "single-letter":
            variants = st.sampled_from(["T12", "Cor2", "T13", "T14"])
            argv.append(f"--variant={draw(variants)}")
            maybe("codebook", st.sampled_from(["0", "0,1", "0,2", "a", "9"]))
            maybe("delta1", ratios)
            maybe("sequence", sequences())
        if command == "verify":
            maybe("deltas",
                  st.lists(ratios, min_size=1, max_size=2).map(",".join))
    elif command in ("analyze", "mi"):
        files["pair.json"] = draw(pairs())
        argv += [command, "--pair=pair.json", f"--delta1={draw(ratios)}"]
        if command == "analyze":
            argv.append(f"--delta2={draw(ratios)}")
            if draw(st.booleans()):
                argv.append("--taxicab")
    elif command == "classify":
        files["matrix.json"] = draw(matrices())
        argv += [command, "--matrix=matrix.json", f"--delta={draw(ratios)}"]
    else:
        length = draw(st.integers(1, 4))
        word = st.text("01", min_size=length, max_size=length)
        words = mostly(draw,
                       st.lists(word, min_size=1, max_size=4, unique=True),
                       st.lists(st.text("01x", max_size=5), max_size=4))
        argv += [command, f"--words={','.join(words)}",
                 f"--tau={draw(ratios)}", f"--delta={draw(ratios)}"]
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestExitContract:
    """Every input ends in exit 0, 1 (a mismatch) or 2 (bad input) with one
    error line; exit 3 is a fault of the program."""

    @given(commands())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_input_exits_zero_one_or_two(self, workdir, drawn):
        argv, files = drawn
        for name, spec in files.items():
            (workdir / name).write_bytes(
                spec if isinstance(spec, bytes) else json.dumps(spec).encode())
            argv = [a.replace(name, str(workdir / name)) for a in argv]
        args = cli._build_parser().parse_args(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(args)
        assert code in (0, 1, 2), (argv, files, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (code == 2) == err.getvalue().startswith("error: ")

    @pytest.mark.parametrize("argv,message", [
        (["rates", "--delta", "0", "--n-max", "2"], "--n-max needs --sequence"),
        (["rates", "--n-max", "2"], "--n-max needs --sequence"),
        (["rates", "--sequence", '{"kind": "zero"}', "--delta", "0"],
         "--sequence (profile) takes no --delta or --horizon"),
        (["rates", "--sequence", '{"kind": "zero"}', "--horizon", "2"],
         "--sequence (profile) takes no --delta or --horizon"),
        (["classify", "--matrix", "m.json", "--confusion", "c.csv",
          "--delta", "0"], "give --confusion or --matrix, not both"),
        (["hamming", "--words", "01,10", "--codebook", "w.txt", "--tau", "0"],
         "give --words or --codebook, not both"),
        *((["single-letter", "--variant", variant, "--codebook", "1,7,13",
            f"--{flag}", value], f"--variant {variant} takes no --{flag}")
          for variant, flag, value in (
              ("Cor2", "delta1", "1/2"), ("Cor2", "delta-bar", "1/3"),
              ("Cor2", "delta-star", "1/5"), ("Cor2", "sequence", "s.json"),
              ("T14", "delta1", "1/2"), ("T14", "delta-bar", "1/3"),
              ("T14", "sequence", "s.json"), ("T12", "delta-star", "1/5"),
              ("T13", "delta-star", "1/5"))),
        (["single-letter", "--variant", "T14", "--delta-star", "1/5"],
         "--variant T14 without --codebook takes no --delta-star"),
        (["mi", "--pair", "p.json", "--delta1", "1/6", "--direction",
          "YgivenX", "--m-x", "card:4"], "--direction YgivenX takes no --m-x"),
        (["mi", "--pair", "p.json", "--delta1", "1/6", "--m-y", "card:4"],
         "--direction XgivenY takes no --m-y"),
    ], ids=["n-max-with-delta", "n-max-alone", "sequence-with-delta",
            "sequence-with-horizon", "matrix-and-confusion",
            "words-and-codebook", "Cor2-delta1", "Cor2-delta-bar",
            "Cor2-delta-star", "Cor2-sequence", "T14-delta1", "T14-delta-bar",
            "T14-sequence", "T12-delta-star", "T13-delta-star",
            "T14-delta-star-without-codebook", "mi-YgivenX-m-x",
            "mi-XgivenY-m-y"])
    def test_a_flag_the_mode_would_ignore_is_refused(self, argv, message,
                                                     capsys):
        # refused before any input is read: m.json, c.csv, w.txt, s.json,
        # ch.json and p.json exist nowhere
        if argv[0] == "rates":
            argv = [argv[0], "--channel", "fig5.json", "--m", "card:19",
                    *argv[1:]]
        if argv[0] == "single-letter":
            argv = [argv[0], "--channel", "ch.json", "--m", "card:19",
                    *argv[1:]]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (["analyze", "--pair", "walkers.json", "--m-x", ""], EMPTY_M),
        (["analyze", "--pair", "walkers.json", "--m-y", ""], EMPTY_M),
        (["analyze", "--pair", "walkers.json", "--delta1", "",
          "--delta2", "1/4"], EMPTY_RATIO),
        (["analyze", "--pair", "walkers.json", "--delta1", "1/6",
          "--delta2", ""], EMPTY_RATIO),
        (["mi", "--pair", "walkers.json", "--delta1", "1/6", "--m-x", ""],
         EMPTY_M),
        (["mi", "--pair", "walkers.json", "--delta1", "1/6", "--direction",
          "YgivenX", "--m-y", ""], EMPTY_M),
        (["rates", *FIG5, "--delta", ""], EMPTY_RATIO),
        (["rates", *FIG5, "--delta", "0", "--horizon", ""],
         "--horizon must be an integer, got ''"),
        (["rates", *FIG5, "--sequence", ""],
         "the path given to --sequence is empty"),
        (["rates", *FIG5, "--sequence", '{"kind": "zero"}', "--n-max", ""],
         "--n-max must be an integer, got ''"),
        (["single-letter", *FIG5, "--variant", "Cor2", "--codebook", ""],
         "'' is not an input symbol"),
        (["single-letter", *FIG5, "--variant", "T12", "--codebook", "1,7,13",
          "--delta1", "", "--sequence", '{"kind": "zero"}'], EMPTY_RATIO),
        (["single-letter", *FIG5, "--variant", "T12", "--codebook", "1,7,13",
          "--delta1", "2/9", "--delta-bar", "", "--sequence",
          '{"kind": "zero"}'], EMPTY_RATIO),
        (["single-letter", *FIG5, "--variant", "T14", "--codebook", "1,7,13",
          "--delta-star", ""], EMPTY_RATIO),
        (["single-letter", *FIG5, "--variant", "T12", "--codebook", "1,7,13",
          "--delta1", "2/9", "--sequence", ""],
         "the path given to --sequence is empty"),
        (["verify", *FIG5, "--deltas", ""], EMPTY_RATIO),
        (["hamming", "--codebook", "", "--tau", "1/7"],
         "the path given to --codebook is empty"),
        (["hamming", "--words", "", "--tau", "1/7"], "not a bit string: ''"),
        (["hamming", "--words", "01,10", "--tau", "0", "--delta", ""],
         EMPTY_RATIO),
        (["classify", "--confusion", "", "--delta", "0"],
         "the path given to --confusion is empty"),
        (["classify", "--matrix", "", "--delta", "0"],
         "the path given to --matrix is empty"),
    ], ids=["analyze-m-x", "analyze-m-y", "analyze-delta1", "analyze-delta2",
            "mi-m-x", "mi-m-y", "rates-delta", "rates-horizon",
            "rates-sequence", "rates-n-max", "single-letter-codebook",
            "single-letter-delta1", "single-letter-delta-bar",
            "single-letter-delta-star", "single-letter-sequence",
            "verify-deltas", "hamming-codebook", "hamming-words",
            "hamming-delta", "classify-confusion", "classify-matrix"])
    def test_an_empty_value_is_refused(self, argv, message, capsys):
        # an empty value reaches the flag's reader: it is never read as a
        # flag left out, which would run a default or name another flag
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

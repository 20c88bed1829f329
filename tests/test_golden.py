"""Golden outputs: the exit code, stdout and stderr of every README command
(in text and in ``--format json``), of a few more flag combinations, of the
inputs the CLI must refuse, and the stdout of the four demos, compared byte
for byte with ``tests/golden/outputs.json``.

Regenerate the file, only when an output change is intended, with:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import runpy
import sys

import pytest

from uvinfo.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "outputs.json"
DEMOS = pathlib.Path(__file__).parent.parent / "demos"

FIG5 = ["--channel", "fig5.json", "--m", "card:19"]
SEQUENCE = '{"kind": "geometric", "base": "7/342", "first": "2/9"}'

# files the commands read, written into the working directory first
FILES = {
    "records.csv": "true,predicted\ncat,cat\ncat,cat\ncat,dog\ndog,dog\n"
                   "dog,fox\nfox,fox\nfox,cat\nowl,owl\nowl,owl\n",
    "matrix.json": json.dumps({
        "labels": ["a", "b", "c", "d"],
        "entries": [["a", "b", "1/8"], ["a", "c", "1/2"], ["a", "d", "0"],
                    ["b", "c", "1/4"], ["b", "d", "3/4"], ["c", "d", "1/8"]],
        "v_min": "1/2"}),
    "words.txt": "0000000\n1110000\n1101001\n0011110\n",
    "malformed.json": '{"map": {"1": [1, 2], "2": [2',
}

README = {
    "analyze": ["analyze", "--pair", "walkers.json", "--delta1", "1/6",
                "--delta2", "1/4", "--taxicab"],
    "mi": ["mi", "--pair", "walkers.json", "--delta1", "1/6",
           "--direction", "XgivenY"],
    "capacity": ["capacity", *FIG5, "--delta", "2/9"],
    "rates-horizon": ["rates", *FIG5, "--delta", "2/9", "--horizon", "2"],
    "rates-sequence": ["rates", *FIG5, "--sequence", SEQUENCE, "--n-max", "2"],
    "single-letter": ["single-letter", "--channel", "fig5.json",
                      "--m", "card:19:3", "--variant", "T14"],
    "verify": ["verify", *FIG5, "--deltas", "0,2/9"],
    "hamming": ["hamming", "--words", "0000000,1110000,1101001",
                "--tau", "1/7", "--delta", "0"],
    "classify": ["classify", "--confusion", "records.csv", "--delta", "3/4"],
    "examples": ["examples"],
}

# more flag combinations, in text only
EXTRA = {
    "analyze-no-levels": ["analyze", "--pair", "walkers.json"],
    "analyze-flags-override": ["analyze", "--pair", "walkers.json",
                               "--m-x", "card:5", "--m-y", "leb+5",
                               "--delta1", "1/4", "--delta2", "1/4"],
    "mi-default-direction": ["mi", "--pair", "walkers.json", "--delta1", "1/4"],
    "mi-y-given-x": ["mi", "--pair", "walkers.json", "--delta1", "1/6",
                     "--direction", "YgivenX"],
    "capacity-format-after": ["capacity", *FIG5, "--delta", "4/9",
                              "--format", "json"],
    "rates-default-horizon": ["rates", *FIG5, "--delta", "0"],
    "single-letter-Cor2": ["single-letter", *FIG5, "--variant", "Cor2",
                           "--codebook", "1,7,13"],
    "single-letter-T12": ["single-letter", *FIG5, "--variant", "T12",
                          "--codebook", "1,7,13", "--delta1", "2/9",
                          "--sequence", SEQUENCE],
    "verify-default-grid": ["verify", "--channel", "walkers-free.json",
                            "--m", "card:3"],
    "hamming-codebook-file": ["hamming", "--codebook", "words.txt",
                              "--tau", "1/7"],
    "hamming-not-distinguishable": ["hamming", "--words", "0000000,0000001",
                                    "--tau", "1/7", "--delta", "0"],
    "classify-matrix": ["classify", "--matrix", "matrix.json",
                        "--delta", "1/4"],
}
FILES["walkers-free.json"] = json.dumps(
    {"map": {"a": ["x", "y"], "b": ["y", "z"], "c": ["z"]}})

# inputs that must be refused with exit 2
REFUSED = {
    "refuse-unnormalized-m": ["capacity", "--channel", "fig5.json",
                              "--m", "card:7", "--delta", "2/9"],
    "refuse-horizon-0": ["rates", *FIG5, "--delta", "2/9", "--horizon", "0"],
    "refuse-horizon-over-cap": ["rates", *FIG5, "--delta", "2/9",
                                "--horizon", "3"],
    "refuse-malformed-json": ["capacity", "--channel", "malformed.json",
                              "--m", "card:19", "--delta", "0"],
    "refuse-decimal-delta": ["capacity", *FIG5, "--delta", "0.5"],
    "refuse-horizon-1000000": ["rates", *FIG5, "--delta", "2/9",
                               "--horizon", "1000000"],
    "refuse-half-levels": ["analyze", "--pair", "walkers.json",
                           "--delta1", "1/6"],
    "refuse-taxicab-without-levels": ["analyze", "--pair", "walkers.json",
                                      "--taxicab"],
    "refuse-rates-without-delta": ["rates", *FIG5],
    "refuse-bad-n-max": ["rates", *FIG5, "--sequence", SEQUENCE,
                         "--n-max", "two"],
    "refuse-missing-file": ["capacity", "--channel", "no-such.json",
                            "--m", "card:19", "--delta", "0"],
    "refuse-hamming-without-words": ["hamming", "--tau", "1/7"],
    "refuse-classify-without-input": ["classify", "--delta", "1/4"],
    # flags the chosen mode would ignore
    "refuse-n-max-without-sequence": ["rates", *FIG5, "--delta", "2/9",
                                      "--n-max", "2"],
    "refuse-sequence-with-delta": ["rates", *FIG5, "--sequence", SEQUENCE,
                                   "--delta", "2/9"],
    "refuse-sequence-with-horizon": ["rates", *FIG5, "--sequence", SEQUENCE,
                                     "--horizon", "2"],
    "refuse-classify-matrix-and-confusion": [
        "classify", "--matrix", "matrix.json", "--confusion", "records.csv",
        "--delta", "1/4"],
    "refuse-hamming-words-and-codebook": [
        "hamming", "--words", "0000000,1110000", "--codebook", "words.txt",
        "--tau", "1/7"],
    "refuse-single-letter-cor2-delta1": [
        "single-letter", *FIG5, "--variant", "Cor2", "--codebook", "1,7,13",
        "--delta1", "1/2"],
    # an empty value is read, never taken for a flag left out
    "refuse-empty-deltas": ["verify", *FIG5, "--deltas", ""],
    "refuse-empty-horizon": ["rates", *FIG5, "--delta", "2/9",
                             "--horizon", ""],
    "refuse-empty-words": ["hamming", "--words", "", "--tau", "1/7"],
}


def cli_cases() -> dict:
    cases = {}
    for name, argv in README.items():
        cases[f"readme/{name}/text"] = argv
        cases[f"readme/{name}/json"] = ["--format", "json", *argv]
    cases.update({f"extra/{k}": v for k, v in EXTRA.items()})
    cases.update({f"refused/{k}": v for k, v in REFUSED.items()})
    return cases


def run_cli(argv, workdir) -> dict:
    """Run the entry point in ``workdir``; returns its exit code and the
    bytes it wrote."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(argv))
                code = 0
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_demo(name: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return {"stdout": out.getvalue()}


def write_files(workdir) -> None:
    for name, text in FILES.items():
        (pathlib.Path(workdir) / name).write_text(text, encoding="utf-8")


def collect(workdir) -> dict:
    write_files(workdir)
    outputs = {k: run_cli(v, workdir) for k, v in cli_cases().items()}
    for demo in sorted(p.name for p in DEMOS.glob("*.py")):
        outputs[f"demo/{demo}"] = run_demo(demo)
    return outputs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_files(path)
    return path


def test_golden_file_covers_every_case(golden):
    demos = {f"demo/{p.name}" for p in DEMOS.glob("*.py")}
    assert set(golden) == set(cli_cases()) | demos


@pytest.mark.parametrize("case", sorted(cli_cases()))
def test_cli_output_matches_golden(case, golden, workdir):
    assert run_cli(cli_cases()[case], workdir) == golden[case]


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_inputs_exit_two_without_traceback(case, golden):
    got = golden[f"refused/{case}"]
    assert got["exit"] == 2 and got["stdout"] == ""
    assert got["stderr"].startswith("error: ")
    assert "Traceback" not in got["stderr"]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_output_matches_golden(demo, golden):
    assert run_demo(demo) == golden[f"demo/{demo}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = collect(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"wrote {len(outputs)} cases to {GOLDEN}\n")

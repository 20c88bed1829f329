"""Start-up and teardown: the lazy public namespace of ``uvinfo``, the
modules each command loads, and the process entry that freezes the heap on
the way out."""

import ast
import gc
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import uvinfo
from uvinfo import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(uvinfo.__file__)))
TESTS = pathlib.Path(__file__).parent

# the public names; the lazy namespace must serve exactly these
PUBLIC_NAMES = [
    "AssociationSets", "BitString", "CapacityResult", "CardinalityPower",
    "Channel", "ConfidenceSequence", "DeltaOutOfRange", "DiameterPlusOne",
    "EmptyPair", "EquivocationMatrix", "ExplicitWeights", "HorizonTooLarge",
    "IncompatibleGround", "IntervalUnion", "LebesguePlusOffset",
    "LengthMismatch", "LevelStatus", "MIResult", "NonProductUncertainty",
    "NotCapacityAchieving",
    "NotDisassociated", "NotDistinguishable", "NotNormalized",
    "OverlapFamily", "PointOutsideRange", "ProductChannel", "Rate",
    "SingleLetterCertificate", "TaxicabFamily", "UncertainPair",
    "UncertaintyFunction", "UvinfoError", "association_sets", "capacity",
    "capacity_profile", "check_distinguishable", "classify_levels",
    "confusion_ingest", "delta_components", "format_ratio",
    "hamming_distance_bound", "hamming_equivocation", "induced_pair",
    "information_rate_at_horizon", "label_uncertainty", "matrix_capacity",
    "mi_sup_oracle", "mutual_information", "overlap_family",
    "parse_sequence_spec", "product_pair", "product_uncertainty",
    "rate_at_horizon", "ratio", "single_letter_check", "taxicab_family",
    "tensorization_check", "verify_coding_theorem",
]

SUBMODULES = ("uvcore", "infocalc", "chancap", "memoryless", "apps")


class TestNamespace:
    def test_all_is_unchanged(self):
        assert uvinfo.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_its_submodule_attribute(self, name):
        value = getattr(uvinfo, name)
        home = value.__module__
        assert home in {f"uvinfo.{m}" for m in SUBMODULES}
        assert getattr(importlib.import_module(home), name) is value
        assert vars(uvinfo)[name] is value  # cached after the first lookup

    def test_dir_lists_every_public_name_and_submodule(self):
        listed = set(dir(uvinfo))
        assert set(uvinfo.__all__) <= listed
        assert set(SUBMODULES) <= listed
        assert "__version__" in listed

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from uvinfo import *", scope)
        assert set(PUBLIC_NAMES) <= set(scope)
        assert scope["capacity"] is uvinfo.chancap.capacity

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError,
                           match=r"^module 'uvinfo' has no attribute 'nope'$"):
            uvinfo.nope
        assert getattr(uvinfo, "nope", None) is None

    def test_submodules_import_by_name(self):
        from uvinfo import chancap, memoryless
        assert chancap is sys.modules["uvinfo.chancap"]
        assert uvinfo.memoryless is memoryless

    def test_version_is_eager(self):
        assert vars(uvinfo)["__version__"] == "0.1.0"


def _loaded(code: str, cwd, tops=("uvinfo",), flags=()) -> list:
    """The modules under ``tops`` that a fresh interpreter, started with
    ``flags``, holds after running ``code`` and did not hold before it."""
    script = ("before = set(sys.modules)\n" + code +
              "\nprint(json.dumps(sorted(m for m in sys.modules"
              f" if m.split('.')[0] in {tuple(tops)!r} and m not in before)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import json, sys\n" + script],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _command_loads(argv: list, cwd, tops=("uvinfo",), flags=()) -> list:
    code = ("import contextlib, io, uvinfo.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        uvinfo.cli.main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code")
    return _loaded(code, cwd, tops, flags)


# one run of each command; classify reads matrix.json from its directory
COMMANDS = {
    "analyze": ["analyze", "--pair", "walkers.json"],
    "mi": ["mi", "--pair", "walkers.json", "--delta1", "1/6"],
    "capacity": ["capacity", "--channel", "fig5.json", "--m", "card:19",
                 "--delta", "2/9"],
    "rates-sequence": [
        "rates", "--channel", "fig5.json", "--m", "card:19", "--sequence",
        '{"kind": "geometric", "base": "7/342", "first": "2/9"}',
        "--n-max", "2"],
    "verify": ["verify", "--channel", "fig5.json", "--m", "card:19",
               "--deltas", "0,2/9"],
    "classify-matrix": ["classify", "--matrix", "matrix.json",
                        "--delta", "1/4"],
    "examples": ["examples"],
}


def _write_matrix(directory) -> None:
    (directory / "matrix.json").write_text(json.dumps(
        {"labels": ["a", "b", "c"], "entries": [["a", "b", "1/8"]],
         "v_min": "1/2"}))


# dataclasses and what it imports to generate the methods of its classes
CODE_GENERATION = ("ast", "dataclasses", "dis", "inspect", "tokenize")


class TestImportFootprint:
    """Each command loads only the modules it runs; a new top-level import
    in ``uvinfo`` or ``uvinfo.cli`` fails here."""

    def test_bare_import_loads_no_submodule(self, tmp_path):
        assert _loaded("import uvinfo", tmp_path) == ["uvinfo"]

    def test_one_name_loads_its_module_and_what_that_imports(self, tmp_path):
        assert _loaded("import uvinfo; uvinfo.ratio",
                       tmp_path) == ["uvinfo", "uvinfo.uvcore"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "--pair", "walkers.json"],
        ["mi", "--pair", "walkers.json", "--delta1", "1/6"],
    ])
    def test_pair_commands_load_no_channel_modules(self, argv, tmp_path):
        assert _command_loads(argv, tmp_path) == [
            "uvinfo", "uvinfo.cli", "uvinfo.infocalc", "uvinfo.uvcore"]

    def test_capacity_loads_no_memoryless_or_apps(self, tmp_path):
        argv = ["capacity", "--channel", "fig5.json", "--m", "card:19",
                "--delta", "2/9"]
        assert _command_loads(argv, tmp_path) == [
            "uvinfo", "uvinfo.chancap", "uvinfo.cli", "uvinfo.infocalc",
            "uvinfo.uvcore"]

    def test_verify_loads_no_apps(self, tmp_path):
        argv = ["verify", "--channel", "fig5.json", "--m", "card:19",
                "--deltas", "0"]
        assert "uvinfo.apps" not in _command_loads(argv, tmp_path)

    def test_cli_import_loads_no_code_generation(self, tmp_path):
        assert _loaded("import uvinfo.cli", tmp_path, CODE_GENERATION) == []

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
    def test_commands_load_no_code_generation(self, argv, tmp_path):
        # every value class is a frozen record built from closures, so no
        # command needs dataclasses, inspect or the compiler modules
        _write_matrix(tmp_path)
        assert _command_loads(argv, tmp_path, CODE_GENERATION) == []


# modules that no command needs: annotations are never evaluated, and the
# bundled fixtures are plain files beside the package
UNNEEDED = ("typing", "importlib.resources", "pathlib", "tempfile", "zipfile")
UNNEEDED_TOPS = tuple({name.partition(".")[0] for name in UNNEEDED})


def _unneeded(loaded: list) -> set:
    return {m for m in loaded for name in UNNEEDED
            if m == name or m.startswith(name + ".")}


class TestBareInterpreterFootprint:
    """The same footprint under ``python -S``: with no site module, no
    ``.pth`` hook can load a module before ``uvinfo`` does and hide it."""

    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        # what the standard modules the CLI always runs load by themselves
        return _unneeded(_loaded("import argparse, fractions",
                                 tmp_path_factory.mktemp("baseline"),
                                 UNNEEDED_TOPS, ("-S",)))

    def test_cli_import_loads_nothing_unneeded(self, baseline, tmp_path):
        loaded = _loaded("import uvinfo.cli", tmp_path, UNNEEDED_TOPS, ("-S",))
        assert _unneeded(loaded) <= baseline

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
    def test_commands_load_nothing_unneeded(self, argv, baseline, tmp_path):
        _write_matrix(tmp_path)
        loaded = _command_loads(argv, tmp_path, UNNEEDED_TOPS, ("-S",))
        assert _unneeded(loaded) <= baseline


def _tree(module: str) -> ast.Module:
    with open(os.path.join(SRC, "uvinfo", f"{module}.py"),
              encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _unused_imports(module: str) -> list:
    """The names a module imports and never reads: no ``Name`` node and no
    entry of its ``__all__`` refers to them."""
    tree = _tree(module)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], a.name)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, a.name) for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    return sorted(set(imported) - used)


@pytest.mark.parametrize("module", ("__init__",) + SUBMODULES + ("cli",))
def test_every_imported_name_is_used(module):
    # chancap keeps overlap_family: bench/test_bench.py checks that the
    # tracer patches that binding in chancap as in the modules that call it
    allowed = {"chancap": ["overlap_family"]}.get(module, [])
    assert _unused_imports(module) == allowed


@pytest.mark.parametrize("module", ("__init__",) + SUBMODULES + ("cli",))
def test_no_module_imports_typing_or_importlib_resources(module):
    named = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            named.add(node.module)
            named.update(f"{node.module}.{a.name}" for a in node.names)
    assert not {m for m in named if m == "typing" or m.startswith("typing.")
                or m.startswith("importlib.resources")}


# one way out of the command each: a success, an input error, a usage error
EXITS = {
    "success": (["capacity", "--channel", "fig5.json", "--m", "card:19",
                 "--delta", "2/9"], 0),
    "input-error": (["capacity", "--channel", "fig5.json", "--m", "card:19",
                     "--delta", "0.5"], 2),
    "usage-error": (["capacity", "--no-such-flag"], 2),
}


class TestProcessEntry:
    """``uvinfo`` and ``python -m uvinfo.cli`` run ``cli._process_main``,
    which freezes the heap once on every way out; ``main`` never freezes.
    Each in-process test replaces ``gc.freeze``, which would otherwise
    freeze the test run's own heap."""

    @pytest.fixture
    def freezes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
        return calls

    @pytest.mark.parametrize("argv,code", EXITS.values(), ids=EXITS)
    def test_the_entry_exits_as_main_and_freezes_once(
            self, argv, code, freezes, monkeypatch, capsys):
        with pytest.raises(SystemExit) as direct:
            cli.main(argv)
        printed = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["uvinfo", *argv])
        with pytest.raises(SystemExit) as entry:
            cli._process_main()
        assert (direct.value.code, entry.value.code) == (code, code)
        assert capsys.readouterr() == printed
        assert len(freezes) == 1

    @pytest.mark.parametrize("argv", [v[0] for v in EXITS.values()],
                             ids=EXITS)
    def test_main_never_freezes(self, argv, freezes, capsys):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert freezes == []

    def test_the_installed_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")  # 3.11 and later
        with open(TESTS.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"uvinfo": "uvinfo.cli:_process_main"}

    @pytest.mark.parametrize("way,case", [
        ("success", "readme/capacity/text"),
        ("input-error", "refused/refuse-decimal-delta")])
    def test_the_module_prints_the_golden_bytes(self, way, case, tmp_path):
        golden = json.loads((TESTS / "golden" / "outputs.json").read_text(
            encoding="utf-8"))[case]
        argv = EXITS[way][0]
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "uvinfo.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        assert {"exit": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr} == golden

    def test_atexit_handlers_run_after_the_freeze(self, tmp_path):
        # the handler runs at teardown, after the entry has frozen the heap
        code = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count()"
                " > 0, file=sys.stderr))\n"
                f"sys.argv = ['uvinfo', *{EXITS['success'][0]!r}]\n"
                "runpy.run_module('uvinfo.cli', run_name='__main__')")
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "frozen True\n")
        assert proc.stdout.startswith("command: capacity\n")

"""Start-up: the lazy public namespace of ``uvinfo`` and the modules each
command loads."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import uvinfo

SRC = os.path.dirname(os.path.dirname(os.path.abspath(uvinfo.__file__)))

# the public names; the lazy namespace must serve exactly these
PUBLIC_NAMES = [
    "AssociationSets", "BitString", "CapacityResult", "CardinalityPower",
    "Channel", "ConfidenceSequence", "DeltaOutOfRange", "DiameterPlusOne",
    "EmptyPair", "EquivocationMatrix", "ExplicitWeights", "FiniteGround",
    "HorizonTooLarge", "IncompatibleGround", "IntervalGround",
    "IntervalUnion", "LebesguePlusOffset", "LengthMismatch", "LevelStatus",
    "MIResult", "NonProductUncertainty", "NotCapacityAchieving",
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


def _loaded(code: str, cwd, tops=("uvinfo",)) -> list:
    """The modules under ``tops`` that a fresh interpreter holds after
    running ``code`` and did not hold before it."""
    script = ("before = set(sys.modules)\n" + code +
              "\nprint(json.dumps(sorted(m for m in sys.modules"
              f" if m.split('.')[0] in {tuple(tops)!r} and m not in before)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _command_loads(argv: list, cwd, tops=("uvinfo",)) -> list:
    code = ("import contextlib, io, uvinfo.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        uvinfo.cli.main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code")
    return _loaded(code, cwd, tops)


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

    @pytest.mark.parametrize("argv", [
        ["capacity", "--channel", "fig5.json", "--m", "card:19",
         "--delta", "2/9"],
        ["rates", "--channel", "fig5.json", "--m", "card:19", "--sequence",
         '{"kind": "geometric", "base": "7/342", "first": "2/9"}',
         "--n-max", "2"],
        ["verify", "--channel", "fig5.json", "--m", "card:19",
         "--deltas", "0,2/9"],
        ["classify", "--matrix", "matrix.json", "--delta", "1/4"],
        ["examples"],
    ], ids=["capacity", "rates-sequence", "verify", "classify-matrix",
            "examples"])
    def test_commands_load_no_code_generation(self, argv, tmp_path):
        # every value class is a frozen record built from closures, so no
        # command needs dataclasses, inspect or the compiler modules
        (tmp_path / "matrix.json").write_text(json.dumps(
            {"labels": ["a", "b", "c"], "entries": [["a", "b", "1/8"]],
             "v_min": "1/2"}))
        assert _command_loads(argv, tmp_path, CODE_GENERATION) == []


def _unused_imports(path: str) -> list:
    """The names a module imports and never reads: no ``Name`` node and no
    entry of its ``__all__`` refers to them."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
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
    path = os.path.join(SRC, "uvinfo", f"{module}.py")
    assert _unused_imports(path) == allowed

"""The package namespace: the p-value engine on import, every other name on first use."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import randpred

# Every public name, by the submodule that defines it.
PUBLIC = {
    "audits": [
        "DominanceResult", "DominanceWitness", "SummarySequence", "TableRow",
        "audit_pvariable", "check_dominance", "reproduce_table_k", "urp_binary_event",
    ],
    "core": [
        "ALL_LABELS", "EXACT_M_LIMIT", "FULL_LINE", "DataSplit", "HedgedPrediction",
        "Interval", "PredictionSet",
    ],
    "pipelines": [
        "ClassifierSpec", "FittedPipeline", "RegressorSpec", "fit_classification_pipeline",
        "fit_regression_pipeline", "prediction_set",
    ],
    "predictors": [
        "ConstantClassifier", "HingeLossLinearClassifier", "LeastSquaresRegressor",
        "MeanRegressor", "PointPredictor",
    ],
    "pvalues": [
        "AsymptoticConstant", "asymptotic_constant", "binary_irp_pvalue", "exact_pvalue_k0",
        "maximize_objective", "objective", "optimal_p_k1",
    ],
    "ranks": [
        "binary_irp_pvariable", "dominating_pvalue", "dominating_pvariable", "icp_pvalue",
        "icp_pvariable",
    ],
    "reports": ["ValidityCell", "ValidityReport"],
    "validity": ["BoundedNoiseLinearGenerator", "PipelineSpec", "monte_carlo_coverage"],
}
SRC = Path(__file__).resolve().parent.parent / "src"
NAMES = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_lists_the_public_names_once():
    assert len(NAMES) == 43
    assert sorted(randpred.__all__) == sorted(NAMES)


@pytest.mark.parametrize("name", sorted(NAMES))
def test_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"randpred.{NAMES[name]}")
    assert getattr(randpred, name) is getattr(module, name)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(randpred))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        randpred.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from randpred import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_names_and_submodules_load_on_first_access():
    # in a fresh interpreter, where nothing but the engine is loaded yet
    code = (
        "import sys, randpred; assert 'randpred.core' not in sys.modules; "
        "assert randpred.core is sys.modules['randpred.core']; "
        "assert randpred.pipelines is sys.modules['randpred.pipelines']; "
        "assert randpred.DataSplit is randpred.core.DataSplit; "
        "assert 'DataSplit' in vars(randpred)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_imports_are_exactly_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", requirement).group()
            for requirement in tomllib.load(f)["project"]["dependencies"]
        }
    imported = set()
    for path in (SRC / "randpred").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"randpred"}
    assert third_party == declared == {"numpy", "click"}


def test_predict_and_monte_carlo_load_no_exact_arithmetic(tmp_path):
    # predict and validate --mode mc take their values as floats from the
    # method table, so neither loads fractions (with decimal) or the
    # p-variables; each is checked after its own run, in a fresh interpreter
    rows = "x,y\n" + "".join(f"{i / 10},{i / 5 + (i % 3) / 10}\n" for i in range(20))
    (tmp_path / "data.csv").write_text(rows)
    code = (
        "import sys, randpred.cli\n"
        "unwanted = {'fractions', 'decimal', 'randpred.ranks'}\n"
        "for argv in (\n"
        "    ['predict', '--train', 'data.csv', '--split-at', '10', '--test', 'data.csv',\n"
        "     '--method', 'icp', '--json'],\n"
        "    ['validate', '--mode', 'mc', '--trials', '10'],\n"
        "):\n"
        "    randpred.cli.main(argv, standalone_mode=False)\n"
        "    loaded = sorted(unwanted & set(sys.modules))\n"
        "    assert not loaded, (argv[0], loaded)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert '"method": "icp"' in result.stdout and "mode=mc" in result.stdout


def test_code_lines_counts_neither_comments_nor_docstrings(tmp_path):
    # tools/code_lines.py gives the per-module code lines the change log cites
    spec = importlib.util.spec_from_file_location(
        "code_lines", SRC.parent / "tools" / "code_lines.py"
    )
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = (
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # counted: code with a trailing comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Method docstring.'''\n"
        "        text = '''a string that is\n"
        "        no docstring'''\n"
        '        "an expression, not first in the body"\n'
        "        return text\n"
    )
    # import, class, def, the two lines of text, the expression, return
    assert code_lines.code_lines(source) == 7
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    result = subprocess.run(
        [sys.executable, str(SRC.parent / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.split("\n") == ["     7  a.py", "     1  b.py", "     8  total", ""]

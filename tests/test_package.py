"""The package's import surface and the README's examples."""

import ast
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import intraday
from intraday import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(intraday.__file__).resolve().parents[1]


def imported_after(statement):
    """Whether ``scipy`` and ``scipy.stats`` are in ``sys.modules`` after
    ``statement`` runs in a fresh interpreter."""
    probe = (f"{statement}\nimport sys\n"
             "print('scipy' in sys.modules, 'scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    return tuple(word == "True" for word in result.stdout.split())


class TestImportSurface:
    def test_closed_forms_do_not_import_scipy(self):
        """The package re-exports nothing, so the closed forms and the
        simulator load without scipy."""
        assert imported_after("import intraday.model, intraday.closed_form, "
                              "intraday.simulate") == (False, False)

    def test_cli_imports_scipy_stats(self):
        """bench/run.py reports the import time of scipy.stats as a layer
        of ``import intraday.cli``."""
        assert imported_after("import intraday.cli") == (True, True)

    def test_only_scipy_import_is_the_timed_one(self):
        """The one scipy import under ``src/intraday`` is ``import
        scipy.stats`` in error_bounds.py, kept so that bench/run.py can time
        it: psi and the normal functions run on ``math``."""
        found = []
        for path in sorted((SRC / "intraday").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                found += [(path.name, module) for module in modules
                          if module.split(".")[0] == "scipy"]
        assert found == [("error_bounds.py", "scipy.stats")]


def test_readme_library_example_runs():
    """The README's python block runs as written, and each expression
    statement in it evaluates to a finite number."""
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    namespace, results = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            results.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    assert len(results) == 3
    assert all(isinstance(x, float) and math.isfinite(x) for x in results)


def test_readme_commands_run(tmp_path):
    """Each line of the README's command-line block exits 0 through
    ``cli.main``, with its ``--out`` directory moved into ``tmp_path``."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme,
                      re.DOTALL).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) == 5 and all(argv[0] == "intraday" for argv in lines)
    for argv in lines:
        argv = [str(tmp_path / word) if before == "--out" else word
                for before, word in zip(["", *argv], argv)]
        assert cli.main(argv[1:]) == 0, argv

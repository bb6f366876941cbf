"""The package's public surface and its numpy-only runtime."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tariff_complex


def test_public_names_resolve_unique_and_sorted():
    names = tariff_complex.__all__
    assert [n for n in names if not hasattr(tariff_complex, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


_CLI_IMPORTS = """
import sys
from tariff_complex.cli import main
rc = main(["generate", "--segments", "3", "--contracts", "2", "--seed", "0",
           "--out", sys.argv[1]])
test_only = ("scipy", "hypothesis", "mpmath", "pytest")
print(rc, sorted(m for m in sys.modules if m.split(".")[0] in test_only))
"""


def test_cli_runs_without_test_only_modules(tmp_path):
    # a fresh interpreter, so nothing the test session imported leaks in
    src = str(Path(tariff_complex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "inst.json"
    proc = subprocess.run([sys.executable, "-c", _CLI_IMPORTS, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]
    assert out.stat().st_size > 0


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never references."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_use_what_they_import():
    # an import kept only so that code outside the package finds a name here
    # hides which module really calls it
    package = Path(tariff_complex.__file__).resolve().parent
    unused = {path.stem: names for path in sorted(package.glob("*.py"))
              if path.stem != "__init__" and (names := _unused_imports(path))}
    assert unused == {}

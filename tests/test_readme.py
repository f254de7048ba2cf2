"""The README's library sketch and CLI examples run against the package as
it is, and every name the package exports is used outside the tests."""

import ast
import pathlib
import re
import shlex

from conftest import run_cli, write_matrix_file

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["entangled"] > 0


def test_readme_cli_examples_run(tmp_path, monkeypatch, bell_projector):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("su4euler ")]
    piped = [line for line in lines if "|" in line]
    assert piped == ['su4euler basis --structure | grep "f(1,2,3)"']
    monkeypatch.chdir(tmp_path)
    write_matrix_file("bell.mat", bell_projector)
    for line in lines:
        if line not in piped:
            proc = run_cli(*shlex.split(line)[1:])
            assert proc.returncode == 0 and proc.stderr == b"", line


def test_every_export_is_used_outside_the_tests():
    # An export that only tests call is a second code path to keep: each one
    # needs a caller in the library, the README, the benchmark harness or the
    # acceptance gate.  A module's own def, class or assignment line of the
    # name is not a use.
    package = ROOT / "src" / "su4euler"
    exported = []
    for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            exported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            exported += [target.id for target in node.targets]
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    sources += [README, ROOT / "tests" / "test_acceptance.py",
                *sorted((ROOT / "perfbench").rglob("*.py"))]
    texts = [path.read_text(encoding="utf-8") for path in sources]
    unused = []
    for name in exported:
        defined = re.compile(rf"^\s*(def|class) {name}\b|^{name}\s*[:=]")
        used = re.compile(rf"\b{name}\b")
        if not any(used.search(line) and not defined.match(line)
                   for text in texts for line in text.splitlines()):
            unused.append(name)
    assert len(exported) > 40
    assert not unused, f"exported, but used only in tests: {unused}"

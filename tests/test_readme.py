"""The README's library sketch and CLI examples run against the package as
it is."""

import pathlib
import re
import shlex

from su4euler import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["entangled"] > 0


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys, bell_projector):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("su4euler ")]
    piped = [line for line in lines if "|" in line]
    assert piped == ['su4euler basis --structure | grep "f(1,2,3)"']
    monkeypatch.chdir(tmp_path)
    with open("bell.mat", "w", encoding="utf-8") as fh:
        for row in bell_projector:
            fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n")
    for line in lines:
        if line not in piped:
            assert cli.main(shlex.split(line)[1:]) == 0, line
    assert capsys.readouterr().err == ""

"""The README's quick tour runs as printed and gives its commented values."""

import ast
import subprocess
import sys
from pathlib import Path

import dicke_trimer

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour():
    """The quick-tour block, each line whose comment is a Python literal
    turned into an assert of that value, and the values in order."""
    block = README.read_text().split("## Library quick tour", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines, values = [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            lines.append(line)
            continue
        lines.append(f"assert ({code.strip()}) == {value!r}, {code.strip()!r}")
        values.append(value)
    return "\n".join(lines), values


def test_quick_tour_runs_in_a_fresh_interpreter():
    script, values = _quick_tour()
    assert values == ["FSP", 6, 0.9]
    src = str(Path(dicke_trimer.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n" + script, src],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr

"""The package surface: what `import glauberlab` loads and the README example."""

import re
import subprocess
import sys
from pathlib import Path

from helpers import child_env

README = Path(__file__).resolve().parent.parent / "README.md"


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; the package must start on numpy alone
    code = "import sys, glauberlab; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    margin, restarts = printed[0].split()
    assert float(margin) <= 1.0 + 1e-3 and int(restarts) >= 1
    assert 0.0 <= float(printed[1]) < 0.1  # relaxing towards the fixed point

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library example", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    gain, inconsistency = map(float, printed)
    assert gain > 0 and math.isfinite(inconsistency) and inconsistency >= 0

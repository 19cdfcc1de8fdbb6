"""The README's library quick start runs and prints what its comments say."""
import re
import sys
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_the_quick_start_prints_its_commented_outputs():
    [block] = re.findall(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    printed: dict[int, list[str]] = {}

    def record(*args):
        printed.setdefault(sys._getframe(1).f_lineno, []).append(" ".join(map(str, args)))

    exec(compile(block, "README.md quick start", "exec"), {"print": record})
    lines = block.splitlines()
    assert sorted(printed) == [i for i, line in enumerate(lines, 1) if "print(" in line]
    commented = {i: line.split("#", 1)[1].strip() for i, line in enumerate(lines, 1)
                 if "print(" in line and "#" in line}
    assert len(commented) == 3
    for i, want in commented.items():
        assert printed[i] == [want], lines[i - 1]

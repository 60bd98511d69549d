import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from src_size import main, module_sizes  # noqa: E402


def test_sizes_are_printed_in_total_and_per_module(tmp_path, capsys):
    pkg = tmp_path / "src" / "pdesup"
    pkg.mkdir(parents=True)
    (pkg / "b.py").write_text("from dataclasses import dataclass, field\n\n\n@dataclass\n"
                              "class C:\n    r: int\n    p: int = 0\n"
                              "    q: list = field(default_factory=list)\n")
    (pkg / "a.py").write_text("def f(x, y=1, *, z=2):\n    return lambda w=3: x\n")
    assert module_sizes(tmp_path) == {"a.py": (2, 3), "b.py": (8, 2)}
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["src lines: 10", "settable values: 5"]
    assert [row.split() for row in out[2:]] == [["module", "lines", "settable"],
                                                ["a.py", "2", "3"], ["b.py", "8", "2"]]

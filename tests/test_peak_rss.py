"""``tools/peak_rss.py`` prints one line per command of a workload, each from
a process that ran the benchmark's warm-up and then that command alone."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

LINE = re.compile(r"(\S+): \+(\d+\.\d\d) MiB \(peak (\d+\.\d\d) MiB after warm-up (\d+\.\d\d), "
                  r"exit 0\)")


def test_peak_rss_prints_one_line_per_command(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "peak_rss.py"), "--size", "small"],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = [op.name for op in workloads.build("cli-configs", 1, "small", tmp_path / "in",
                                               ROOT / "configs")]
    lines = proc.stdout.splitlines()
    assert len(lines) == len(names) == 8
    for line, name in zip(lines, names):
        m = LINE.fullmatch(line)
        assert m and m[1] == name, line
        rise, peak, warm = map(float, m.groups()[1:])
        assert rise >= 0 and abs(peak - warm - rise) <= 0.011

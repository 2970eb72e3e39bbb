"""The repository's pytest settings report a failing property test as a
failure with its falsifying example, not as an internal error."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_prints_its_example(tmp_path):
    test_file = tmp_path / "test_falsified.py"
    test_file.write_text(
        "from hypothesis import given\n"
        "from hypothesis import strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "--hypothesis-seed=0", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output

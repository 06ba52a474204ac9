"""`tests/cli_outputs.py` writes the same files, byte for byte, when run twice."""
from pathlib import Path

import cli_outputs


def test_cli_outputs_repeat_byte_for_byte(tmp_path):
    """Two runs on deform-lift at one seed write every job's report (25)
    and every raised `lift` file (3), and the two trees are identical."""
    runs = []
    for name in ("a", "b"):
        argv = [str(tmp_path / name), "--seeds", "7", "--workloads", "deform-lift",
                "--inputs", str(tmp_path / "inputs")]
        assert cli_outputs.main(argv) == 0
        root = tmp_path / name
        runs.append({p.relative_to(root): p.read_bytes()
                     for p in sorted(root.rglob("*")) if p.is_file()})
    assert runs[0] == runs[1]
    assert len(runs[0]) == 28
    assert sum(p.parts[1] == "raised" for p in runs[0]) == 3
    assert runs[0][Path("deform-lift-7", "lift--one-block.json")].startswith(b"exit 0\n{")

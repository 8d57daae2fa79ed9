import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(ROOT, "tools", "compare_outputs.py")


def compare(old, new):
    return subprocess.run([sys.executable, COMPARE, old, new], capture_output=True, text=True, timeout=300)


def test_compare_outputs_of_one_tree_is_identical():
    proc = compare(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1].endswith(" 0 differ")


def test_compare_outputs_names_the_files_that_differ(tmp_path):
    # a tree whose summary.json is indented differently, and nothing else
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    cli = tmp_path / "src" / "qdecay" / "cli.py"
    text = cli.read_text()
    assert text.count("json.dumps(payload, indent=2, sort_keys=True)") == 1
    cli.write_text(text.replace("json.dumps(payload, indent=2, sort_keys=True)", "json.dumps(payload, indent=1, sort_keys=True)"))
    proc = compare(ROOT, str(tmp_path))
    assert proc.returncode == 1
    differ = proc.stdout.strip().splitlines()
    assert differ[-1].endswith(" in 62 run directories, 56 differ")
    assert all(line.startswith("differs: ") and line.endswith("/summary.json") for line in differ[:-1])
    assert "differs: decay-nsm-steps/json/summary.json" in differ

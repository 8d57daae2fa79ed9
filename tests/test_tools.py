import importlib.util
import os
import shutil
import subprocess
import sys

import numpy as np

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


def test_library_case_hashes_what_a_streamed_driven_run_hands_over(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "CONFIGS", {})  # the library case only
    tool.run_tree(ROOT, str(tmp_path))
    for model in ("qmop", "swf", "nsm"):
        run_dir = tmp_path / f"bins-rabi-{model}"
        # a full lock-step group of 2048 and a partial one of 52, handed over as the join has them
        assert np.load(run_dir / "streamed.ids.npy").tolist() == [[0, 2048], [2048, 2100]]
        for name in ("emission_times", "drop_emission"):
            handed, joined = np.load(run_dir / f"streamed.{name}.npy"), np.load(run_dir / f"{name}.npy")
            assert handed.dtype == np.float64 and handed.tobytes() == joined.tobytes()
        assert np.load(run_dir / "emission_times.npy").size > 0
        assert (np.load(run_dir / "drop_emission.npy").size > 0) == (model == "nsm")

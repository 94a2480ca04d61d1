"""Every report of the golden corpus (``tests/golden/``) is reproduced byte
for byte, with its exit code.

The reports are generated once per session in a fresh interpreter
(``corpus.py --out``), as ``diffgap`` would print them.  A report that moved
fails with its changed cells, old -> new, and any difference between the
numpy, scipy or Python versions the corpus was made with and these.  After a
change that moves digits on purpose, rewrite the corpus with
``PYTHONPATH=src python tests/golden/corpus.py``, which prints the same
lines for every report.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_corpus", GOLDEN / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

MANIFEST = json.loads(corpus.MANIFEST.read_text())


@pytest.fixture(scope="session")
def generated(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    proc = subprocess.run([sys.executable, str(GOLDEN / "corpus.py"), "--out", str(out)],
                          env=corpus.child_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return out


def _version_note() -> str:
    moved = corpus.version_changes(MANIFEST["versions"])
    return ("; versions differ: " + "; ".join(moved)) if moved else ""


def test_same_reports(generated):
    made = sorted(p.name for p in (generated / "reports").iterdir())
    assert made == sorted(MANIFEST["codes"])


@pytest.mark.parametrize("name", sorted(MANIFEST["codes"]))
def test_report_unchanged(generated, name):
    path = generated / "reports" / name
    assert path.exists(), f"{name} is no longer generated"
    codes = json.loads((generated / "manifest.json").read_text())["codes"]
    assert codes[name] == MANIFEST["codes"][name], (
        f"{name}: exit code {MANIFEST['codes'][name]} -> {codes[name]}{_version_note()}")
    old, new = (corpus.REPORTS / name).read_text(), path.read_text()
    if old != new:
        cells = corpus.cell_changes(name, old, new) or [f"{name}: changed bytes"]
        pytest.fail("\n".join(cells[:40]) + _version_note(), pytrace=False)

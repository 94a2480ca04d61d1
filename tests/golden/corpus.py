"""The golden report corpus: the reports diffgap prints for a fixed set of
inputs, checked in byte for byte, so that a change which moves a printed
digit shows as a diff of ``tests/golden/``.

    PYTHONPATH=src python tests/golden/corpus.py          # rewrite the corpus
    PYTHONPATH=src python tests/golden/corpus.py --out D  # write the reports to D

Without ``--out``, every changed report is printed with its changed cells:
where the cell is, its old value, its new value and, for numbers, the
relative change.  The lines are meant to be quoted as they are.

The corpus holds:

- ``reproduce``;
- ``bounds``, ``oracle`` and ``inspect`` on each model of the benchmark's
  gallery-session configs at seeds 0 and 3 (``configs/``; quartic and
  cauchy do not depend on the seed, so six models);
- ``check`` on the mc-check config at seed 0;
- the standard output of every script in ``demos/``.

Each command's report is kept in its table, json-like and csv forms; a
command without a csv form (``inspect``, ``check``) prints its table for csv,
so only the table is kept.  An ``oracle`` csv report (about 70 KB) is kept
as its SHA-256 and line count, its first two lines and every 64th line.
``manifest.json`` records each report's exit code and the versions the
corpus was made with: the reports depend on the last bits of numpy, scipy
and libm, so a test failure prints any version difference beside the cells.

Every command runs in this one process, as ``diffgap`` would run it: the
config is read, the command's report computed once and rendered in each
form.  Reports do not depend on what ran before them in a process.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONFIGS = HERE / "configs"
REPORTS = HERE / "reports"
MANIFEST = HERE / "manifest.json"

FORMATS = {"table": "txt", "json-like": "json", "csv": "csv"}
SAMPLED = ("oracle",)  # commands whose csv form is kept sampled
EVERY = 64  # a sampled report keeps every EVERY-th line


def invocations() -> list[tuple[str, str, Path | None]]:
    """(report stem, command, config) of every command in the corpus."""
    out = [("reproduce", "reproduce", None)]
    for cfg in sorted(CONFIGS.glob("gallery-*.yaml")):
        out += [(f"{cmd}.{cfg.stem}", cmd, cfg) for cmd in ("bounds", "oracle", "inspect")]
    out.append(("check.mc-check", "check", CONFIGS / "mc-check.yaml"))
    return out


def demos() -> list[Path]:
    return sorted((ROOT / "demos").glob("*.py"))


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def version_changes(recorded: dict) -> list[str]:
    """One line per version in ``recorded`` that differs from this one."""
    now = versions()
    return [f"{k}: corpus {v}, now {now.get(k)}" for k, v in recorded.items()
            if now.get(k) != v]


def child_env() -> dict:
    """The environment of a child interpreter that imports diffgap from
    this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _sampled(text: str) -> str:
    lines = text.splitlines()
    digest = hashlib.sha256(text.encode()).hexdigest()
    kept = [line for i, line in enumerate(lines) if i < 2 or i % EVERY == 0]
    return (f"# sha256={digest} lines={len(lines)} kept: lines 0, 1 and every "
            f"{EVERY}th\n" + "\n".join(kept) + "\n")


def generate() -> tuple[dict[str, str], dict[str, int]]:
    """Every report of the corpus as stored (file name -> text), and each
    report's exit code."""
    from diffgap import cli

    texts, codes = {}, {}
    for stem, cmd, cfg in invocations():
        report = cli._COMMANDS[cmd][0](cli.load_config(str(cfg)) if cfg else {})
        for fmt, ext in FORMATS.items():
            if fmt == "csv" and report.csv is None:
                continue
            text = cli.render(report, fmt)
            if fmt == "csv" and cmd in SAMPLED:
                text, ext = _sampled(text), "csv.sampled"
            texts[f"{stem}.{ext}"] = text
            codes[f"{stem}.{ext}"] = report.code
    for demo in demos():
        proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=300)
        name = f"demo.{demo.stem}.txt"
        texts[name], codes[name] = proc.stdout, proc.returncode
    return texts, codes


def write(directory: Path, texts: dict[str, str], codes: dict[str, int]) -> None:
    (directory / "reports").mkdir(parents=True, exist_ok=True)
    for old in (directory / "reports").iterdir():
        if old.name not in texts:
            old.unlink()
    for name, text in texts.items():
        (directory / "reports" / name).write_text(text)
    manifest = {"versions": versions(), "codes": dict(sorted(codes.items()))}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


# ---- cell diff --------------------------------------------------------------

_CELL = re.compile(r"[^\s,:=\[\](){}\"|]+")


def _cells(name: str, line: str) -> list[str]:
    if name.endswith((".csv", ".csv.sampled")) and not line.startswith("#"):
        return [c.strip() for c in line.split(",")]
    return _CELL.findall(line)


def _number(s: str) -> float | None:
    try:
        return float(s)
    except ValueError:
        return None


def _where(name: str, header: list[str], line: str, col: int) -> str:
    """The row and column of a cell: a csv row's first cell and its
    column's header, a json-like line's key, else the line's start."""
    cells = _cells(name, line)
    if name.endswith((".csv", ".csv.sampled")) and len(cells) == len(header) > 1:
        return f"{cells[0]} / {header[col]}"
    key = re.match(r'\s*"?([^":]+)"?\s*:', line)
    return key.group(1) if key else line.strip()[:40]


def cell_changes(name: str, old: str, new: str) -> list[str]:
    """One line per changed cell of report ``name``: where, old -> new and
    the relative change; a line whose cells do not pair up is shown whole."""
    a, b = old.splitlines(), new.splitlines()
    header = []
    for line in a:
        if not line.startswith("#"):
            header = [c.strip() for c in line.split(",")]
            break
    out = []
    ops = difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
    for tag, i1, i2, j1, j2 in ops:
        if tag == "equal":
            continue
        if tag == "replace" and i2 - i1 == j2 - j1:
            for i, (x, y) in enumerate(zip(a[i1:i2], b[j1:j2]), start=i1):
                cx, cy = _cells(name, x), _cells(name, y)
                if len(cx) != len(cy):
                    out.append(f"{name} line {i + 1}: {x!r} -> {y!r}")
                    continue
                for col, (u, v) in enumerate(zip(cx, cy)):
                    if u == v:
                        continue
                    fu, fv = _number(u), _number(v)
                    rel = (f" ({(fv - fu) / abs(fu):+.2e})" if fu not in (None, 0.0)
                           and fv is not None else "")
                    out.append(f"{name} line {i + 1} [{_where(name, header, x, col)}]: "
                               f"{u} -> {v}{rel}")
            continue
        out += [f"{name} line {i + 1} removed: {x!r}" for i, x in enumerate(a[i1:i2], i1)]
        out += [f"{name} line {j + 1} added: {y!r}" for j, y in enumerate(b[j1:j2], j1)]
    return out


def compare(directory: Path, texts: dict[str, str], codes: dict[str, int]) -> list[str]:
    """The changes of the generated reports against the corpus in
    ``directory``, one line each; empty when nothing moved."""
    path = directory / "manifest.json"
    manifest = (json.loads(path.read_text()) if path.exists()
                else {"versions": versions(), "codes": {}})
    lines = version_changes(manifest["versions"])
    for name in sorted(set(texts) | set(manifest["codes"])):
        path = directory / "reports" / name
        if name not in texts:
            lines.append(f"{name}: no longer generated")
            continue
        if not path.exists():
            lines.append(f"{name}: new report")
            continue
        if manifest["codes"].get(name) != codes[name]:
            lines.append(f"{name}: exit code {manifest['codes'].get(name)} -> {codes[name]}")
        old = path.read_text()
        if old != texts[name]:
            lines += cell_changes(name, old, texts[name]) or [f"{name}: changed bytes"]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, help="write the reports here, compare nothing")
    args = p.parse_args(argv)
    texts, codes = generate()
    if args.out:
        write(args.out, texts, codes)
        return 0
    changes = compare(HERE, texts, codes)
    print("\n".join(changes) if changes else "no report changed")
    write(HERE, texts, codes)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The golden record of every shipped run, and the script that rewrites it.

A shipped run is one of the six commands below on one of the configs in
`configs/`, through `cli.main` in this process.  Its record is the exit
status, the SHA-256 of stdout and stderr, and the SHA-256 of each file it
writes to --out.  A CSV also keeps an 8-hex digest of each line, so that a
mismatch can name the first line that differs.  The bits depend on the numpy
build, so the record keeps numpy's version.

Rewrite the record, after a change of output made by design, with

    PYTHONPATH=src python tests/golden.py

which first prints, one line each, the runs and files that differ from the
old record, so that the change can list them.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from glauberlab.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RECORD = Path(__file__).with_name("golden_outputs.json")
COMMANDS = (
    ["evolve"],
    ["evolve", "--mode", "global"],
    ["vlasov"],
    ["scaling-study"],
    ["chaos-check"],
    ["verify-bounds", "--cases", "40"],
)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _line_digests(data):
    return "".join(_sha(line)[:8] for line in data.splitlines())


def _out_dir(out_root, label):
    return Path(out_root, label.replace(" ", "_"))


def run_shipped(out_root):
    """Run every shipped config under every command; the record of each by label."""
    runs = {}
    for conf in sorted(CONFIG_DIR.glob("*.conf")):
        for command in COMMANDS:
            label = " ".join([conf.stem] + command)
            out = _out_dir(out_root, label)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(["--config", str(conf), "--out", str(out)] + command)
            files = {}
            for name in sorted(os.listdir(out)):
                data = (out / name).read_bytes()
                files[name] = {"sha256": _sha(data)}
                if name.endswith(".csv"):
                    files[name]["lines"] = _line_digests(data)
            runs[label] = {
                "status": status,
                "stdout": _sha(stdout.getvalue().encode()),
                "stderr": _sha(stderr.getvalue().encode()),
                "files": files,
            }
    return {"numpy": np.__version__, "runs": runs}


def _first_differing_line(want, out_path):
    lines = out_path.read_bytes().splitlines()
    for i in range(max(len(want) // 8, len(lines))):
        have = _sha(lines[i])[:8] if i < len(lines) else ""
        if have != want[8 * i:8 * i + 8]:
            text = lines[i].decode(errors="replace") if i < len(lines) else "<end of file>"
            return "line %d differs, now %r" % (i + 1, text)
    return "only the line ends differ"


def mismatches(record, actual, out_root):
    """One message per differing run or file; a numpy version mismatch comes first."""
    found = []
    for label in sorted(set(record["runs"]) | set(actual["runs"])):
        want, have = record["runs"].get(label), actual["runs"].get(label)
        if want is None or have is None:
            found.append("%s: %s" % (label, "not in the record" if want is None else "was not run"))
            continue
        for key in ("status", "stdout", "stderr"):
            if want[key] != have[key]:
                found.append("%s: %s differs" % (label, key))
        for name in sorted(set(want["files"]) | set(have["files"])):
            w, h = want["files"].get(name), have["files"].get(name)
            if w is None or h is None:
                found.append("%s: file %s %s" % (label, name, "is new" if w is None else "was not written"))
            elif w["sha256"] != h["sha256"]:
                where = ""
                if "lines" in w:
                    where = ", " + _first_differing_line(w["lines"], _out_dir(out_root, label) / name)
                found.append("%s: file %s differs%s" % (label, name, where))
    if found and record["numpy"] != actual["numpy"]:
        found.insert(0, "numpy is %s here but the record was made with numpy %s"
                     % (actual["numpy"], record["numpy"]))
    return found


if __name__ == "__main__":
    warnings.simplefilter("error")
    with tempfile.TemporaryDirectory() as out_root:
        record = run_shipped(out_root)
        for line in mismatches(json.loads(RECORD.read_text()), record, out_root):
            print(line)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote %d runs to %s" % (len(record["runs"]), RECORD), file=sys.stderr)

import argparse
import json

import golden

from glauberlab import cli


def test_shipped_runs_match_the_golden_record(tmp_path):
    # every shipped run keeps its exit status, stdout, stderr and output files
    # byte for byte; a change by design rewrites the record (tests/golden.py)
    record = json.loads(golden.RECORD.read_text())
    found = golden.mismatches(record, golden.run_shipped(tmp_path), tmp_path)
    assert not found, "\n".join(found)


def test_every_subcommand_has_shipped_runs():
    # a new subcommand cannot ship without its runs in the golden record
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {command[0] for command in golden.COMMANDS} == set(sub.choices)

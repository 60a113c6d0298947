import json

import golden


def test_shipped_runs_match_the_golden_record(tmp_path):
    # every shipped run keeps its exit status, stdout, stderr and output files
    # byte for byte; a change by design rewrites the record (tests/golden.py)
    record = json.loads(golden.RECORD.read_text())
    found = golden.mismatches(record, golden.run_shipped(tmp_path), tmp_path)
    assert not found, "\n".join(found)

"""The benchmark's own output check, run in-process on every workload.

Each workload of perfbench/workloads.py runs through cli.main at the
reference seed, and its report must pass perfbench/check.py against the
reference in perfbench/reference/, so a report that drifts past the
benchmark's tolerance fails here too.
"""

import json
import sys
from pathlib import Path

import pytest

from genkf import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_report_passes_the_benchmark_check(tmp_path, capsys, name):
    workload = WORKLOADS[name]
    doc, report = tmp_path / "document.json", tmp_path / "report.json"
    doc.write_text(json.dumps(workload.document))
    code = cli.main(workload.argv(doc, report, check.REFERENCE_SEED))
    reference = check.load_reference(name)
    assert check.check_output(workload.command, code, report, check.REFERENCE_SEED, reference) == []

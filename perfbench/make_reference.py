"""Regenerate the committed reference reports at the reference seed.

    python3 perfbench/make_reference.py

Runs each workload's genkf command once and stores its report gzipped in
perfbench/reference/.  Only a change that is meant to alter reports should
do this, and it should say so.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

from check import REFERENCE_SEED, reference_path
from run import SRC, WORK
from workloads import WORKLOADS


def main():
    env = {k: v for k, v in os.environ.items() if k != "GENKF_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    for name, workload in WORKLOADS.items():
        tmp = WORK / f"reference-{name}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        doc, report = tmp / "document.json", tmp / "report.json"
        doc.write_text(json.dumps(workload.document))
        argv = workload.argv(doc, report, REFERENCE_SEED)
        subprocess.run(
            [sys.executable, "-m", "genkf.cli", *argv],
            env=env, cwd=tmp, check=True, stdout=subprocess.DEVNULL,
        )
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(report.read_bytes())
        shutil.rmtree(tmp)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

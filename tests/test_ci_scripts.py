"""The workflow's shell checks, run from the source tree.

``ci/entry_point.sh`` and ``ci/identity_sweep.sh`` call the installed
``asymbpe`` command. Here an ``asymbpe`` shim that ``exec``s this
interpreter on ``asymbpe.cli`` stands in for it, so each peak-RSS bound the
scripts read through ``RUSAGE_CHILDREN`` measures the same process as under
the installed entry point.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["entry_point.sh", "identity_sweep.sh"])
def test_ci_script(script, tmp_path):
    shim_dir = tmp_path / "bin"
    shim_dir.mkdir()
    shim = shim_dir / "asymbpe"
    shim.write_text('#!/bin/sh\nexec "%s" -m asymbpe.cli "$@"\n' % sys.executable,
                    encoding="utf-8")
    shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ,
               PATH=os.pathsep.join([str(shim_dir), os.path.dirname(sys.executable),
                                     os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(["bash", str(REPO / "ci" / script), str(work)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout
    print(proc.stdout)

import os
import subprocess
import sys

import ladderkit


def test_every_export_resolves():
    missing = [name for name in ladderkit.__all__
               if not hasattr(ladderkit, name)]
    assert missing == []
    assert len(set(ladderkit.__all__)) == len(ladderkit.__all__)


def test_import_loads_no_test_dependency():
    # numpy is the only runtime dependency; mpmath, scipy and hypothesis
    # serve the tests alone
    code = ("import sys, ladderkit; print(' '.join(sorted("
            "{'mpmath', 'scipy', 'hypothesis'} & set(sys.modules))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == ""

"""Every layer perfbench's tracer rebinds by name still exists in ``repro``.

``perfbench/tracer.py`` looks each name of its ``LAYERS`` table up with
``owner.__dict__[attr]``, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1`` with a ``KeyError``.  This runs the tracer's
``install()`` in a fresh process (it rebinds module attributes, which must
not leak into this one) and only reads ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr

"""The interpreters that tests start import cycleval from this checkout too."""

import os
from pathlib import Path

os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])])

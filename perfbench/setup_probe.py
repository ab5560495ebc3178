"""Set-up probe: import the CLI and load the given scenario configs, then print 'ready'.

``run.py`` times this script from process start to the 'ready' line.
"""

import sys

from beamcap.cli import main  # noqa: F401  (the import is what is timed)
from beamcap.scenario import load_scenario

for path in sys.argv[1:]:
    load_scenario(path=path)
print("ready", flush=True)

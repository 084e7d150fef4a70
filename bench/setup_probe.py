"""Import copra_beam and build the validated config of a workload.

    python3 bench/setup_probe.py CONFIG

The benchmark times this whole process, interpreter start included, as setup_s.
"""

import sys

import program

program.load()
from copra_beam.config import load_config  # noqa: E402

load_config(sys.argv[1])

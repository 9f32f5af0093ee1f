"""``repro serve`` with the benchmark's layer spans installed (traced runs only).

Takes exactly the arguments of ``repro serve``.  Installs the wrappers
from :mod:`layers` in the server process, then hands over to the CLI, so
the extra spans reach the server's own span ring and ``/v1/trace``.
"""

import sys

import layers
from repro.cli import main

if __name__ == "__main__":
    layers.install()
    sys.exit(main(["serve", *sys.argv[1:]]))

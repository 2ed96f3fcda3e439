"""Put this checkout's ``src/`` on the path before the benchmark imports."""

from bench.run import import_program

import_program()

"""The runtime imports nothing outside the standard library and reads no
environment variable."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# -S keeps site hooks out: with them, third-party modules such as
# _distutils_hack load before idealkit does.
PROBE = """
import sys
import idealkit, idealkit.cli
loaded = {name.partition(".")[0] for name in sys.modules}
print(sorted(loaded - set(sys.stdlib_module_names) - {"idealkit", "__main__"}))
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_runtime_loads_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    # The second line: dataclasses and inspect cost start-up time in every
    # CLI process, and records are plain classes, so neither loads.
    assert out == "[]\n[]\n"


def test_runtime_reads_no_environment_variable():
    # Behaviour is set by arguments only; an environment option would be a
    # setting that no test or benchmark run sees.
    for path in sorted((SRC / "idealkit").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for needle in ("os.environ", "getenv"):
            assert needle not in text, f"{path.name} reads {needle}"

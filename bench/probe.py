"""One cold command in a fresh interpreter, for the benchmark's setup time.

Usage: python3 probe.py SRC_DIR ARG...

Imports drmfuse from SRC_DIR, runs ``drmfuse.cli.main(ARGS)`` with its output
captured, and prints one JSON object: the exit code, the captured stdout and
the file drmfuse was imported from. Only the standard library is imported
before drmfuse, so its import cost (numpy, scipy) stays in the measurement.
"""

import contextlib
import io
import json
import sys


def main() -> None:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        import drmfuse
        from drmfuse import cli
        code = cli.main(argv)
    json.dump({"code": code, "stdout": out.getvalue(), "module": drmfuse.__file__},
              sys.stdout)


if __name__ == "__main__":
    main()

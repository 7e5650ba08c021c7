"""Set-up probe: what every `sdom` call pays before it computes.

Run in a fresh interpreter as ``probe.py OUT_DIR COMMAND=CONFIG ...``.
It imports `sdom.cli` and hands it each config, every one of which has
a single field out of range.  The CLI parses every field (building the
grid, kernel, plan and bank inputs) before it refuses a config, so the
process's wall time is the import plus the validation of the real
configs.  Exits 0 only if every config was refused as a config error.
"""

import contextlib
import io
import sys


def main(argv) -> int:
    out_dir, pairs = argv[0], argv[1:]
    from sdom import cli

    for pair in pairs:
        command, path = pair.split("=", 1)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path, "--out", out_dir])
        if code != 1 or "config error" not in err.getvalue():
            print(f"probe: {path} was not refused (exit {code}): {err.getvalue()}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

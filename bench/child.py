"""One fresh interpreter that sets up mskglass and runs a workload's commands.

    python3 bench/child.py MODE COMMANDS_JSON

MODE is `setup` (import, parse the first command, report readiness, exit),
`run` (then execute every command through mskglass.cli.main, capturing its
output) or `trace` (run the commands once untraced and once with every
public function of every mskglass module wrapped, replaying pool work
serially).  The last stdout line is one JSON object; timestamps are
time.monotonic(), which the parent shares.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_commands(cli, commands):
    outputs = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:  # the CLI let an exception escape: a failed command
                traceback.print_exc()
                code = 1
        outputs.append(
            {
                "argv": argv,
                "exit": int(code),
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "seconds": time.perf_counter() - start,
            }
        )
    return outputs


def main() -> int:
    mode, commands = sys.argv[1], json.loads(sys.argv[2])
    import mskglass.cli as cli

    cli.build_parser().parse_args(commands[0])
    ready = time.monotonic()
    cpu_ready = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "ready": ready,
        "cpu_ready": cpu_ready.ru_utime + cpu_ready.ru_stime,
        "package": cli.__file__,
    }
    if mode == "run":
        record["outputs"] = run_commands(cli, commands)
        record["done"] = time.monotonic()
    elif mode == "trace":
        import spans

        record.update(spans.traced_replay(cli, commands, run_commands))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

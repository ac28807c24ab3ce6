"""Set-up probe: one fresh process imports mpjl, builds the parser and runs
one warm-up op, then prints its own breakdown as JSON.

Usage: python3 probe.py SRC_DIR ARGV_JSON

The caller times the whole process from spawn to exit; the breakdown
printed here only explains where that time went.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mpjl import cli  # noqa: E402

t_import = time.perf_counter()
cli.build_parser()
t_parser = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exit_code = cli.main(json.loads(sys.argv[2]))
t_op = time.perf_counter()
print(json.dumps({"import_s": t_import - t0, "parser_s": t_parser - t_import,
                  "op_s": t_op - t_parser, "exit_code": exit_code}))

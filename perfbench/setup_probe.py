"""What a one-shot user pays before the first answer.

Run in a fresh interpreter from the checkout root:
    python3 perfbench/setup_probe.py '<JSON list of argv lists>'
It imports bmt from src/ and makes each cli.main call once, discarding
the output.  The caller times the whole process.  Around that work it
runs the reference computation five times before and five times after,
and prints their median and their total seconds, so the caller can scale
the try to the reference speed and leave the reference runs out.
"""

import contextlib
import io
import json
import os
import statistics
import sys

from reference import reference


def main() -> int:
    times = [reference() for _ in range(5)]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import bmt.cli

    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            if bmt.cli.main(argv) not in (0, 1):
                return 1
    times += [reference() for _ in range(5)]
    print(json.dumps([statistics.median(times), sum(times)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

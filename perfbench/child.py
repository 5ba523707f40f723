"""Run one ``mlsbm`` CLI invocation and record when its first study unit starts.

Usage: python3 child.py MARKS_JSON MODE -- ARGV...

MODE is ``full`` (run the command to the end) or ``setup`` (exit as soon as
the first unit starts). A unit starts with its first call of
``mlsbm.model.sample_planted`` or ``sample_null``; every name an ``mlsbm``
module binds to either function is rebound to a wrapper that notes the
first call, so the study itself runs unchanged. Marks are
``time.monotonic()`` readings, which the parent can compare with its own
because CLOCK_MONOTONIC is system-wide.
"""

import functools
import json
import os
import sys
import time


def main() -> int:
    marks_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("full", "setup"):
        raise SystemExit("usage: child.py MARKS_JSON full|setup -- ARGV...")
    marks = {"first_unit": None, "end": None}

    def dump():
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)

    from mlsbm import cli, model

    def noting_first_call(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if marks["first_unit"] is None:
                marks["first_unit"] = time.monotonic()
                if mode == "setup":
                    dump()
                    os._exit(0)
            return fn(*args, **kwargs)

        return wrapper

    samplers = (model.sample_planted, model.sample_null)
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "mlsbm":
            continue
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in samplers):
                setattr(module, attr, noting_first_call(value))

    code = cli.main(argv)
    marks["end"] = time.monotonic()
    dump()
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one eubalance CLI command in this process with call spans recorded.

Usage: python perfbench/tracecli.py SPANS_JSON CLI_ARG...

The traced counterpart of ``python -m eubalance.cli CLI_ARG...`` used by
the cli-cold workload. At exit it writes the spans and the t_quantile
cache counters to SPANS_JSON and exits with the command's code.
"""
import json
import sys

import spans

from eubalance import cli, expfit


def main() -> int:
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
    finally:
        recorder.uninstall()
        info = expfit.t_quantile.cache_info()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.take(),
                       "t_quantile": [info.hits, info.misses]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one diskpack CLI command in-process under the benchmark's tracer.

    python3 perfbench/child.py OUT_JSON TRACE -- <diskpack arguments>

With TRACE 1 every layer function is wrapped; with TRACE 0 only
`run_pipeline` is, which gives the untraced in-process time that the traced
one is compared with. The spans and the process's peak resident memory are
written to OUT_JSON, and the process exits with the CLI's exit code.
`run.py` starts this script for every run operation; it is not meant to be
called by hand.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402  (the package path must be set first)
from diskpack import cli  # noqa: E402


def peak_rss_kb() -> int:
    """High-water resident memory of this program since it was exec'd.

    `getrusage` would also count the parent's pages that the child held
    between fork and exec, so read the kernel's per-image high-water mark.
    """
    with open("/proc/self/status", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    out_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py OUT_JSON 0|1 -- <diskpack arguments>")
    t = tracer.Tracer()
    t.install(None if trace == "1" else ("pipeline.run_pipeline",))
    try:
        code = cli.main(cli_args)
    finally:
        t.uninstall()
        t.dump(out_path, peak_rss_kb=peak_rss_kb())
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

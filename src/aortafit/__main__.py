"""The ``aortafit`` command, as installed and as ``python -m aortafit``.

``aortafit.cli`` imports numpy and scipy when it loads, and under a tight
memory limit that import fails: MemoryError, or an ImportError when a shared
library cannot be mapped. So the CLI is loaded inside ``main``'s error
handling, which turns that failure into one ``aortafit:`` line on stderr and
exit code 2, like any other out-of-memory failure of the CLI.
"""

import sys

__all__ = ["main"]


def main(argv=None):
    try:
        from . import cli
    except (ImportError, MemoryError) as exc:
        print(f"aortafit: cannot load: {' '.join(str(exc).split()) or 'out of memory'}", file=sys.stderr)
        return 2
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())

"""The output formats of tvtrend and its one writer, each defined once; the
module imports nothing from tvtrend."""

import json
import sys


class OutputError(OSError):
    """An output path that cannot be written."""


def json_text(obj):
    """``obj`` as JSON text: keys sorted, indented by two spaces, newline-terminated."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def csv_text(rows, header=None):
    """CSV lines, the ``header`` first if given: a float in 17 significant
    digits, which read back as the same float, any other value by ``str``."""
    lines = [] if header is None else [header]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "".join(line + "\n" for line in lines)


def write_text(text, path=None):
    """Write ``text`` to the file ``path``, raising ``OutputError`` where it
    cannot be written, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc

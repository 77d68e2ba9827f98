"""Line-oriented text format for amplitude vectors.

A document looks like::

    format: maxent-state/1
    n_qubits: 2
    label: optional free text
    amplitudes:
    0.7071067811865476 0.0
    0.0 0.0
    0.0 0.0
    0.7071067811865476 0.0

Amplitudes are "re im" decimal pairs in basis order, one per line, exponent
notation allowed. Floats are written with shortest round-trip precision and
normalization is skipped when the parsed vector is already unit norm to a
few ulps, so write -> read reproduces a canonical state bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import MAX_QUBITS
from .states import State, from_amplitudes

FORMAT_TAG = "maxent-state/1"


class StateFileError(ValueError):
    """Malformed or unreadable state document.

    line is the 1-based line a parse diagnostic points at, and prefixes the
    message; it is None when the file could not be read at all.
    """

    def __init__(self, line: int | None, message: str) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def format_state(state: State, label: str | None = None) -> str:
    """Render a state as a document string, ending in a newline."""
    lines = [f"format: {FORMAT_TAG}", f"n_qubits: {state.n_qubits}"]
    if label is not None:
        if label and label.splitlines() != [label]:
            raise ValueError("label must be a single line")
        if label.strip() != label or not label:
            raise ValueError("label must be nonempty without surrounding whitespace")
        lines.append(f"label: {label}")
    lines.append("amplitudes:")
    flat = state.amplitudes.view(np.float64).tolist()
    lines += [f"{re!r} {im!r}" for re, im in zip(flat[0::2], flat[1::2])]
    return "\n".join(lines) + "\n"


def _field(lines: list[tuple[int, str]], pos: int, key: str, required: bool):
    if pos >= len(lines):
        if required:
            raise StateFileError(lines[-1][0], f"missing '{key}:' field")
        return None, pos
    lineno, text = lines[pos]
    prefix = key + ":"
    if not text.startswith(prefix):
        if required:
            raise StateFileError(lineno, f"expected '{key}:', got {text!r}")
        return None, pos
    return text[len(prefix):].strip(), pos + 1


def parse_state(text: str) -> tuple[State, str | None]:
    """Parse a document string into a state and its optional label.

    Blank lines are ignored. Raises StateFileError with a 1-based line
    number on any malformed field.
    """
    lines = text.splitlines()
    # (line, text) of the first four non-blank lines: the header, and the
    # first amplitude row when there is no label
    head = []
    for i, raw in enumerate(lines, start=1):
        if line := raw.strip():
            head.append((i, line))
            if len(head) == 4:
                break
    if not head:
        raise StateFileError(1, "empty document")
    pos = 0
    tag, pos = _field(head, pos, "format", required=True)
    if tag != FORMAT_TAG:
        raise StateFileError(head[0][0], f"unsupported format {tag!r}, expected {FORMAT_TAG!r}")
    n_text, pos = _field(head, pos, "n_qubits", required=True)
    n_line = head[pos - 1][0]
    try:
        n = int(n_text)
    except ValueError:
        raise StateFileError(n_line, f"n_qubits must be an integer, got {n_text!r}") from None
    if not 1 <= n <= MAX_QUBITS:
        raise StateFileError(n_line, f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    label, pos = _field(head, pos, "label", required=False)
    header, pos = _field(head, pos, "amplitudes", required=True)
    header_line = head[pos - 1][0]
    if header:
        raise StateFileError(header_line, "amplitudes header takes no value")
    # One pass over the rows: two tokens per non-blank line, one float() per
    # token, and from_amplitudes' own finiteness check. Anything off is
    # diagnosed by _row_error, row by row.
    rows = lines[header_line:]
    tokens = []
    for raw in rows:
        parts = raw.split()
        if len(parts) == 2:
            tokens += parts
        elif parts:
            raise _row_error(rows, header_line, n)
    if len(tokens) != 2 << n:
        raise _row_error(rows, header_line, n)
    try:
        flat = np.array(list(map(float, tokens)))
    except ValueError:
        raise _row_error(rows, header_line, n) from None
    try:
        state = from_amplitudes(flat.view(np.complex128))
    except ValueError as exc:
        # from_amplitudes rejects non-finite entries too; those are row errors
        if not np.isfinite(flat).all():
            raise _row_error(rows, header_line, n) from None
        raise StateFileError(header_line, str(exc)) from None
    return state, label if label else None


def _row_error(raw_rows: list[str], header_line: int, n: int) -> StateFileError:
    """The diagnostic for the first thing wrong with the amplitude rows.

    Row count first, then row by row: token count, float() syntax, finiteness.
    Called only when the one-pass read in parse_state found something off.
    """
    rows = [
        (i, line)
        for i, raw in enumerate(raw_rows, start=header_line + 1)
        if (line := raw.strip())
    ]
    dim = 1 << n
    if len(rows) < dim:
        return StateFileError(
            rows[-1][0] if rows else header_line,
            f"expected {dim} amplitude lines, found {len(rows)}",
        )
    if len(rows) > dim:
        return StateFileError(rows[dim][0], f"unexpected content after {dim} amplitude lines")
    for lineno, text_row in rows:
        parts = text_row.split()
        if len(parts) != 2:
            return StateFileError(lineno, f"expected 're im' pair, got {text_row!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError:
            return StateFileError(lineno, f"unparseable number in {text_row!r}")
        if not (math.isfinite(re) and math.isfinite(im)):
            return StateFileError(lineno, f"non-finite amplitude in {text_row!r}")
    raise AssertionError("the amplitude rows have nothing wrong with them")


def write_state_file(path, state: State, label: str | None = None) -> str:
    """Write a state document and return it; a rejected label leaves ``path`` untouched."""
    text = format_state(state, label)
    data = text.encode()
    try:
        with open(path, "wb", buffering=0) as fh:
            done = 0
            while done < len(data):
                done += fh.write(data[done:])
    except OSError as exc:
        raise StateFileError(None, f"cannot write {path}: {exc.strerror or exc}") from None
    return text


def read_state_file(path) -> tuple[State, str | None]:
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode()
    except OSError as exc:
        raise StateFileError(None, f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise StateFileError(None, f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    return parse_state(text)

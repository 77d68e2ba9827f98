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
        if "\n" in label or "\r" in label:
            raise ValueError("label must be a single line")
        if label.strip() != label or not label:
            raise ValueError("label must be nonempty without surrounding whitespace")
        lines.append(f"label: {label}")
    lines.append("amplitudes:")
    for z in state.amplitudes:
        lines.append(f"{float(z.real)!r} {float(z.imag)!r}")
    return "\n".join(lines) + "\n"


def _field(lines: list[tuple[int, str]], pos: int, key: str, required: bool):
    if pos >= len(lines):
        if required:
            last = lines[-1][0] if lines else 1
            raise StateFileError(last, f"missing '{key}:' field")
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
    lines = [
        (i, raw.strip())
        for i, raw in enumerate(text.splitlines(), start=1)
        if raw.strip()
    ]
    if not lines:
        raise StateFileError(1, "empty document")
    pos = 0
    tag, pos = _field(lines, pos, "format", required=True)
    if tag != FORMAT_TAG:
        raise StateFileError(lines[0][0], f"unsupported format {tag!r}, expected {FORMAT_TAG!r}")
    n_text, pos = _field(lines, pos, "n_qubits", required=True)
    n_line = lines[pos - 1][0]
    try:
        n = int(n_text)
    except ValueError:
        raise StateFileError(n_line, f"n_qubits must be an integer, got {n_text!r}") from None
    if not 1 <= n <= MAX_QUBITS:
        raise StateFileError(n_line, f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    label, pos = _field(lines, pos, "label", required=False)
    header, pos = _field(lines, pos, "amplitudes", required=True)
    header_line = lines[pos - 1][0]
    if header:
        raise StateFileError(header_line, "amplitudes header takes no value")
    dim = 1 << n
    rows = lines[pos:]
    if len(rows) < dim:
        raise StateFileError(
            rows[-1][0] if rows else header_line,
            f"expected {dim} amplitude lines, found {len(rows)}",
        )
    if len(rows) > dim:
        raise StateFileError(rows[dim][0], f"unexpected content after {dim} amplitude lines")
    amplitudes = []
    for lineno, text_row in rows:
        parts = text_row.split()
        if len(parts) != 2:
            raise StateFileError(lineno, f"expected 're im' pair, got {text_row!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError:
            raise StateFileError(lineno, f"unparseable number in {text_row!r}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise StateFileError(lineno, f"non-finite amplitude in {text_row!r}")
        amplitudes.append(complex(re, im))
    try:
        state = from_amplitudes(amplitudes)
    except ValueError as exc:
        raise StateFileError(header_line, str(exc)) from None
    return state, label if label else None


def write_state_file(path, state: State, label: str | None = None) -> None:
    """Write a state document; a rejected label leaves ``path`` untouched."""
    text = format_state(state, label)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_state_file(path) -> tuple[State, str | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StateFileError(None, f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_state(text)

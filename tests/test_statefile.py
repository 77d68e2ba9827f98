import os

import numpy as np
import pytest

from maxent.search import generate_constrained, haar_random_state, random_constraint_params
from maxent.statefile import (
    StateFileError,
    format_state,
    parse_state,
    read_state_file,
    write_state_file,
)
from maxent.states import State, epr_family, from_amplitudes, ghz


def test_round_trip_is_bit_identical():
    for st in (
        epr_family("varphi", 0.0),
        epr_family("psi", 2.2),
        ghz("-"),
        generate_constrained(random_constraint_params(9)),
    ):
        back, label = parse_state(format_state(st))
        assert label is None
        assert back.n_qubits == st.n_qubits
        assert np.array_equal(back.amplitudes, st.amplitudes)


def test_label_round_trip():
    st = ghz("+")
    back, label = parse_state(format_state(st, "ghz plus run 3"))
    assert label == "ghz plus run 3"
    with pytest.raises(ValueError):
        format_state(st, "two\nlines")
    with pytest.raises(ValueError):
        format_state(st, " padded ")
    with pytest.raises(ValueError):
        format_state(st, "")


def test_bool_qubit_count_reads_back():
    # a bool is an integer; the state stores the int, so its document reads back
    for st in (State(True, [1.0, 0.0]), haar_random_state(True, 4)):
        assert type(st.n_qubits) is int and st.n_qubits == 1
        text = format_state(st, "one")
        assert "\nn_qubits: 1\n" in text
        back, label = parse_state(text)
        assert label == "one" and back.n_qubits == 1
        assert back.amplitudes.tobytes() == st.amplitudes.tobytes()


def test_parse_normalizes_loose_input():
    text = "format: maxent-state/1\nn_qubits: 1\namplitudes:\n3 0\n4 0\n"
    st, _ = parse_state(text)
    assert np.allclose(st.amplitudes, [0.6, 0.8], atol=1e-15)


def test_parse_normalizes_rows_whose_norm_overflows():
    text = "format: maxent-state/1\nn_qubits: 1\namplitudes:\n3e200 0\n0 -4e200\n"
    st, _ = parse_state(text)
    assert np.allclose(st.amplitudes, [0.6, -0.8j], atol=1e-15)


def test_parse_tolerates_blank_lines_and_exponents():
    text = (
        "format: maxent-state/1\n\nn_qubits: 1\n\namplitudes:\n"
        "7.071067811865476e-01 0\n\n0 -7.071067811865476E-01\n\n"
    )
    st, _ = parse_state(text)
    assert np.allclose(st.amplitudes, [0.7071067811865476, -0.7071067811865476j])


def test_parse_strips_each_line_and_counts_blank_ones():
    head = " format: maxent-state/1 \n\t\nn_qubits:  1\t\n  label:  a  b \namplitudes:\n 1 0 \n \n"
    st, label = parse_state(head + "\t0  -0.0 \n\n")
    assert label == "a  b"
    assert st.amplitudes.tolist() == [1, 0]
    with pytest.raises(StateFileError) as err:
        parse_state(head + "\t0  0 0 \n")
    assert err.value.line == 8
    assert str(err.value) == "line 8: expected 're im' pair, got '0  0 0'"


def _expect_error(text, fragment, line=None):
    with pytest.raises(StateFileError) as err:
        parse_state(text)
    assert fragment in str(err.value)
    if line is not None:
        assert err.value.line == line


def test_parse_diagnostics():
    _expect_error("", "empty", 1)
    _expect_error("n_qubits: 2\n", "expected 'format:'", 1)
    _expect_error("format: maxent-state/2\nn_qubits: 1\n", "unsupported format")
    _expect_error("format: maxent-state/1\nn_qubits: zero\n", "integer", 2)
    _expect_error("format: maxent-state/1\nn_qubits: 0\namplitudes:\n", "in [1, 8]", 2)
    _expect_error("format: maxent-state/1\nn_qubits: 9\namplitudes:\n", "in [1, 8]", 2)
    _expect_error("format: maxent-state/1\nn_qubits: 1\n", "missing 'amplitudes:'")
    _expect_error(
        "format: maxent-state/1\nn_qubits: 1\namplitudes:\n1 0\n", "found 1", 4
    )
    _expect_error(
        "format: maxent-state/1\nn_qubits: 1\namplitudes:\n1 0\n0 0\n0 0\n",
        "unexpected content",
        6,
    )
    _expect_error(
        "format: maxent-state/1\nn_qubits: 1\namplitudes:\n1 0\n0 0 0\n",
        "'re im' pair",
        5,
    )
    _expect_error(
        "format: maxent-state/1\nn_qubits: 1\namplitudes:\n1 0\nx 0\n",
        "unparseable",
        5,
    )
    _expect_error(
        "format: maxent-state/1\nn_qubits: 1\namplitudes:\n1 0\nnan 0\n",
        "non-finite",
        5,
    )
    _expect_error(
        "format: maxent-state/1\nn_qubits: 1\namplitudes:\n0 0\n0 0\n",
        "zero norm",
        3,
    )
    _expect_error(
        "format: maxent-state/1\nn_qubits: 1\namplitudes: 1 0\n", "takes no value", 3
    )


def _rows_document(*rows: str) -> str:
    """A 2-qubit document (header on lines 1-3) with the given amplitude rows."""
    return "format: maxent-state/1\nn_qubits: 2\namplitudes:\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "rows, line, message",
    [
        # the first bad row wins, whatever is wrong with a later one
        (("1 0", "nan 0", "x 0", "0 0"), 5, "non-finite amplitude in 'nan 0'"),
        (("1 0", "0 1e400", "0 0 0", "0 0"), 5, "non-finite amplitude in '0 1e400'"),
        (("1 0", "x 0", "0 0 0", "0 0"), 5, "unparseable number in 'x 0'"),
        (("1 0", "1_0 0x1", "0 inf", "0 0"), 5, "unparseable number in '1_0 0x1'"),
        (("1 0", "0 0 0", "nan 0", "0 0"), 5, "expected 're im' pair, got '0 0 0'"),
        (("1 0", "0", "x 0", "0 0"), 5, "expected 're im' pair, got '0'"),
        # within a row: the token count, then float() syntax, then finiteness
        (("1 0", "nan x", "0 0", "0 0"), 5, "unparseable number in 'nan x'"),
        (("1 0", "nan x 0", "0 0", "0 0"), 5, "expected 're im' pair, got 'nan x 0'"),
        # the row count comes before any row error
        (("nan 0", "x 0", "0 0 0"), 6, "expected 4 amplitude lines, found 3"),
        (("nan 0", "x 0", "0 0 0", "0 0", "0 0"), 8, "unexpected content after 4 amplitude lines"),
        (("1 0", "0 0", "0 0", "0 0", "x y z"), 8, "unexpected content after 4 amplitude lines"),
        ((), 3, "expected 4 amplitude lines, found 0"),
    ],
)
def test_row_errors_keep_their_order(rows, line, message):
    with pytest.raises(StateFileError) as err:
        parse_state(_rows_document(*rows))
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_blank_lines_among_the_rows_keep_line_numbers():
    rows = ("0.5 0", "", "0.5 0", " \t ", "", "0.5 0", "0.5 0", "")
    st, _ = parse_state(_rows_document(*rows))
    assert st.amplitudes.tolist() == [0.5, 0.5, 0.5, 0.5]
    for bad, line in ((("0.5 0", "", "x 0"), 6), (("0.5 0", "", "", "0 inf"), 7)):
        with pytest.raises(StateFileError) as err:
            parse_state(_rows_document(*bad, "0 0", "0 0"))
        assert err.value.line == line
    with pytest.raises(StateFileError) as err:
        parse_state(_rows_document(*rows, "", "0 0"))
    assert str(err.value) == "line 13: unexpected content after 4 amplitude lines"
    with pytest.raises(StateFileError) as err:
        parse_state(_rows_document("0.5 0", "", "0.5 0", "", ""))
    assert str(err.value) == "line 6: expected 4 amplitude lines, found 2"


def test_one_qubit_document():
    text = "format: maxent-state/1\nn_qubits: 1\nlabel: one\namplitudes:\n-0.0 0.6\n0.8 -0.0\n"
    st, label = parse_state(text)
    assert label == "one" and st.n_qubits == 1
    want = np.array([0.6j, 0.8], dtype=complex)
    want.real[0] = want.imag[1] = -0.0  # signed zeros survive
    assert st.amplitudes.tobytes() == want.tobytes()
    for rows, line, message in (
        ("1 0\n", 5, "expected 2 amplitude lines, found 1"),
        ("1 0\n0 0\n0 0\n", 7, "unexpected content after 2 amplitude lines"),
        ("inf 0\n0 0\n", 5, "non-finite amplitude in 'inf 0'"),
        ("0 0\n0 -0.0\n", 4, "amplitude vector has (near) zero norm"),
    ):
        with pytest.raises(StateFileError) as err:
            parse_state(text.split("-0.0 0.6")[0] + rows)
        assert str(err.value) == f"line {line}: {message}"


def test_file_io(tmp_path):
    path = tmp_path / "state.txt"
    st = epr_family("varphi", 1.25)
    write_state_file(path, st, "phase experiment")
    back, label = read_state_file(path)
    assert label == "phase experiment"
    assert np.array_equal(back.amplitudes, st.amplitudes)
    with pytest.raises(StateFileError):
        read_state_file(tmp_path / "missing.txt")


def test_bad_label_leaves_target_untouched(tmp_path):
    path = tmp_path / "state.txt"
    write_state_file(path, ghz("+"), "ghz")
    before = path.read_bytes()
    # "bad\udcff" is how a command line's lone 0xff byte arrives: it cannot be encoded
    for label in (" bad", "two\nlines", "", "bad\udcff"):
        with pytest.raises(ValueError):
            write_state_file(path, ghz("+"), label)
        assert path.read_bytes() == before
    missing = tmp_path / "missing.txt"
    for label in (" bad", "bad\udcff"):
        with pytest.raises(ValueError):
            write_state_file(missing, ghz("+"), label)
        assert not missing.exists()


def test_written_file_is_the_encoded_document(tmp_path):
    path = tmp_path / "state.txt"
    for st, label in ((ghz("+"), "ghz \u00e9\u2013"), (haar_random_state(8, 5), None)):
        text = write_state_file(path, st, label)
        assert text == format_state(st, label)
        assert path.read_bytes() == text.encode()


_LF_DOCUMENT = (
    "format: maxent-state/1\nn_qubits: 1\nlabel: crlf test\n\namplitudes:\n"
    "0.6 0.0\n0.0 0.8\n"
)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_files_read_like_lf(tmp_path, newline):
    lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
    lf.write_bytes(_LF_DOCUMENT.encode())
    other.write_bytes(_LF_DOCUMENT.replace("\n", newline).encode())
    (want, want_label), (got, got_label) = read_state_file(lf), read_state_file(other)
    assert want_label == got_label == "crlf test"
    assert np.array_equal(got.amplitudes.view(np.uint64), want.amplitudes.view(np.uint64))
    # the same diagnostics, on the same lines, the blank line 4 counted
    for bad, line in ((_LF_DOCUMENT.replace("0.0 0.8", "0.0 0.8 1"), 7),
                      (_LF_DOCUMENT.replace("n_qubits: 1", "n_qubits: one"), 2),
                      (_LF_DOCUMENT + "0 0\n", 8)):
        lf.write_bytes(bad.encode())
        other.write_bytes(bad.replace("\n", newline).encode())
        with pytest.raises(StateFileError) as want_err:
            read_state_file(lf)
        with pytest.raises(StateFileError) as got_err:
            read_state_file(other)
        assert want_err.value.line == got_err.value.line == line
        assert str(got_err.value) == str(want_err.value)


def test_written_document_is_stable():
    st = from_amplitudes([1.0, 0, 0, 1.0])
    text = format_state(st)
    assert text == format_state(st)
    assert text.startswith("format: maxent-state/1\nn_qubits: 2\namplitudes:\n")
    assert text.endswith("\n")


def test_unreadable_file_error_has_no_line(tmp_path):
    with pytest.raises(StateFileError) as exc:
        read_state_file(tmp_path / "missing.txt")
    assert exc.value.line is None
    assert str(exc.value).startswith("cannot read ")


def test_unwritable_file_error_has_no_line(tmp_path):
    cases = [(tmp_path / "no-such-dir" / "x.txt", "No such file or directory"),
             (tmp_path, "Is a directory")]
    if os.path.exists("/dev/full"):  # a write that fails after the open succeeded
        cases.append(("/dev/full", "No space left on device"))
    for path, reason in cases:
        with pytest.raises(StateFileError) as exc:
            write_state_file(path, ghz("+"))
        assert exc.value.line is None
        assert str(exc.value) == f"cannot write {path}: {reason}"
        # the label is checked before the file is opened
        with pytest.raises(ValueError, match="^label must be nonempty"):
            write_state_file(path, ghz("+"), " bad")

import numpy as np
import pytest

from maxent.search import generate_constrained, random_constraint_params
from maxent.statefile import (
    StateFileError,
    format_state,
    parse_state,
    read_state_file,
    write_state_file,
)
from maxent.states import epr_family, from_amplitudes, ghz


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
    for label in (" bad", "two\nlines", ""):
        with pytest.raises(ValueError):
            write_state_file(path, ghz("+"), label)
        assert path.read_bytes() == before
    missing = tmp_path / "missing.txt"
    with pytest.raises(ValueError):
        write_state_file(missing, ghz("+"), " bad")
    assert not missing.exists()


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

"""Property tests of the state-file parser, the expectation kernel and the
reduced entropies."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxent.entanglement import LN2, apply_local_unitaries, reduced_entropy
from maxent.measurement import local_expectations
from maxent.search import haar_random_su2
from maxent.statefile import StateFileError, format_state, parse_state
from maxent.states import from_amplitudes

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)

_component = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def states(draw, max_qubits: int = 4):
    """A normalized state of 1..max_qubits qubits from bounded components."""
    n = draw(st.integers(1, max_qubits))
    parts = draw(st.lists(_component, min_size=2 << n, max_size=2 << n))
    psi = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    assume(np.linalg.norm(psi) >= 1e-3)
    return from_amplitudes(psi)


# Lines a document is made of, valid and broken, plus arbitrary text.
_LINES = st.one_of(
    st.sampled_from(
        [
            "format: maxent-state/1",
            "format: maxent-state/2",
            "n_qubits: 1",
            "n_qubits: 2",
            "n_qubits: 0",
            "n_qubits: 9",
            "n_qubits: two",
            "n_qubits: " + "9" * 5000,
            "label: x",
            "label:",
            "amplitudes:",
            "amplitudes: 4",
            "1 0",
            "0.5 -0.5",
            "0 0",
            "1e200 1e200",
            "1e308 -1e308",
            "1e400 0",
            "nan 0",
            "inf -inf",
            "1e-320 0",
            "1 2 3",
            "1",
            "0x1p0 0",
        ]
    ),
    st.text(max_size=20),
)


@PROPERTY
@given(st.lists(_LINES, max_size=10))
def test_parse_raises_nothing_but_state_file_error(lines):
    try:
        state, _label = parse_state("\n".join(lines))
    except StateFileError:
        return
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9


@PROPERTY
@given(states(), st.one_of(st.none(), st.sampled_from(["run 3", "ghz", "a b  c"])))
def test_format_then_parse_is_bit_identical(state, label):
    back, back_label = parse_state(format_state(state, label))
    assert back.n_qubits == state.n_qubits
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert back_label == label


@PROPERTY
@given(states(), st.integers(-6, 200))
def test_parse_returns_the_unit_state_at_any_scale(state, k):
    scale = 10.0**k
    rows = [
        f"{float(z.real) * scale!r} {float(z.imag) * scale!r}" for z in state.amplitudes
    ]
    text = f"format: maxent-state/1\nn_qubits: {state.n_qubits}\namplitudes:\n"
    back, _ = parse_state(text + "\n".join(rows) + "\n")
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12


@PROPERTY
@given(states())
def test_entropy_deficit_bounds_the_bloch_length(state):
    for site, b in enumerate(local_expectations(state), start=1):
        slack = LN2 - reduced_entropy(state, site).entropy_nats - (b @ b) / 2
        assert slack >= -1e-12


@PROPERTY
@given(states(), st.integers(0, 2**32 - 1))
def test_entropies_invariant_under_local_unitaries(state, seed):
    rng = np.random.default_rng(seed)
    unitaries = [haar_random_su2(rng) for _ in range(state.n_qubits)]
    moved = apply_local_unitaries(state, unitaries)
    for site in range(1, state.n_qubits + 1):
        before = reduced_entropy(state, site).entropy_nats
        after = reduced_entropy(moved, site).entropy_nats
        assert abs(before - after) <= 1e-9

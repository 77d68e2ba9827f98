import ast
import math

import numpy as np
import pytest

from maxent.states import (
    EXAMPLE_STATE_NAMES,
    State,
    _ket_labels,
    as_coefficient_matrix,
    epr_family,
    example_state,
    from_amplitudes,
    ghz,
    schmidt_state,
)

import oracles

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_basis_order_first_symbol_most_significant():
    assert _ket_labels(2)[2] == "-+"
    assert _ket_labels(3)[0] == "+++"
    for n in range(1, 9):
        labels = _ket_labels(n)
        assert len(labels) == 1 << n and _ket_labels(n) is labels
        for i, label in enumerate(labels):
            assert label == "".join("+" if v > 0 else "-" for v in oracles.outcome_tuple(i, n))


def test_state_is_immutable_copy():
    raw = np.array([1.0, 0, 0, 0], dtype=complex)
    st = State(2, raw)
    raw[0] = 5.0
    assert st.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        st.amplitudes[0] = 2.0


def test_state_repr_shows_every_amplitude_exactly():
    rng = np.random.default_rng(4)
    st = from_amplitudes(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    amps = st.amplitudes.tolist()
    assert repr(st) == f"State(n_qubits=3, amplitudes=[{', '.join(map(repr, amps))}])"
    rebuilt = ast.literal_eval(repr(st).removeprefix("State(n_qubits=3, amplitudes=")[:-1])
    assert np.array(rebuilt).tobytes() == st.amplitudes.tobytes()
    assert repr(amps[0]) not in repr(st.amplitudes)  # numpy's array repr rounds


def test_state_rejects_norm_beyond_tolerance():
    with pytest.raises(ValueError):
        State(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        State(2, np.array([1.0, 0, 0]))


def test_from_amplitudes_normalizes():
    st = from_amplitudes([2.0, 0, 0, 2.0])
    assert st.n_qubits == 2
    assert np.allclose(st.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2])
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-15


def test_from_amplitudes_survives_norm_overflow():
    # finite entries whose squared sum overflows a double
    st = from_amplitudes([1e200, 1e200])
    assert np.allclose(st.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)
    huge = np.finfo(float).max
    st = from_amplitudes([complex(huge, -huge), 0, 0, complex(huge, huge)])
    assert np.allclose(st.amplitudes, np.array([1 - 1j, 0, 0, 1 + 1j]) / 2, atol=1e-15)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-15


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(math.inf, -math.inf)])
def test_from_amplitudes_leaves_non_finite_entries_to_state(bad):
    # Beside an entry whose square overflows, only finite vectors are
    # rescaled, so State reports the bad entry without an inf/inf warning.
    with pytest.raises(ValueError, match="^amplitudes contain non-finite entries$"):
        from_amplitudes([bad, 1e308])


def test_from_amplitudes_rejects_bad_input():
    with pytest.raises(ValueError):
        from_amplitudes([1.0, 0, 0])  # not a power of two
    with pytest.raises(ValueError):
        from_amplitudes([1.0])  # single amplitude, no qubits
    with pytest.raises(ValueError):
        from_amplitudes([0.0] * 4)  # zero norm
    # the norm comes before the qubit count, which State checks
    with pytest.raises(ValueError, match=r"^amplitude vector has \(near\) zero norm$"):
        from_amplitudes([0.0] * 512)
    with pytest.raises(ValueError, match=r"^n must be in \[1, 8\], got 9$"):
        from_amplitudes([1.0] + [0.0] * 511)
    with pytest.raises(ValueError, match="^amplitudes contain non-finite entries$"):
        from_amplitudes([np.nan, 0.0])
    with pytest.raises(ValueError, match="^amplitude count 3 "):  # the length is checked first
        from_amplitudes([np.nan, 0.0, 0.0])


def test_epr_families():
    psi = epr_family("psi", 0.0)
    assert np.allclose(psi.amplitudes, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-15)
    varphi = epr_family("varphi", math.pi / 2)
    assert np.allclose(varphi.amplitudes, [INV_SQRT2, 0, 0, 1j * INV_SQRT2], atol=1e-15)
    with pytest.raises(ValueError):
        epr_family("chi", 0.0)


def test_schmidt_state():
    st = schmidt_state(0.6, 0.8)
    assert np.allclose(st.amplitudes, [0.6, 0, 0, 0.8], atol=1e-15)
    with pytest.raises(ValueError):
        schmidt_state(-0.6, 0.8)
    with pytest.raises(ValueError):
        schmidt_state(0.6, 0.9)


def test_ghz():
    plus = ghz("+")
    assert np.allclose(plus.amplitudes, [INV_SQRT2, 0, 0, 0, 0, 0, 0, INV_SQRT2])
    minus = ghz("-")
    assert np.allclose(minus.amplitudes, [INV_SQRT2, 0, 0, 0, 0, 0, 0, -INV_SQRT2])
    with pytest.raises(ValueError):
        ghz("x")


def test_example_states_exact_amplitudes():
    bal = example_state("two_qubit_balanced")
    assert np.allclose(bal.amplitudes, np.array([1j, 1, 1, 1j]) / 2, atol=1e-16)
    partner = example_state("two_qubit_balanced_partner")
    assert np.allclose(partner.amplitudes, np.array([1, 1j, 1j, 1]) / 2, atol=1e-16)
    three = example_state("three_qubit_balanced")
    want = np.array([1, -1j, 1, 1j, 1j, 1, -1j, 1]) / math.sqrt(8.0)
    assert np.allclose(three.amplitudes, want, atol=1e-16)
    with pytest.raises(ValueError):
        example_state("nonsense")
    assert set(EXAMPLE_STATE_NAMES) == {
        "two_qubit_balanced",
        "two_qubit_balanced_partner",
        "three_qubit_balanced",
    }


def test_two_qubit_examples_are_orthogonal():
    a = example_state("two_qubit_balanced").amplitudes
    b = example_state("two_qubit_balanced_partner").amplitudes
    assert abs(np.vdot(a, b)) < 1e-16


def test_as_coefficient_matrix_is_row_major():
    st = from_amplitudes([1.0, 2.0, 3.0, 4.0])
    m = as_coefficient_matrix(st)
    assert m.shape == (2, 2)
    assert np.allclose(m.reshape(-1), st.amplitudes)
    assert m[1, 0] == st.amplitudes[2]
    with pytest.raises(ValueError):
        as_coefficient_matrix(ghz("+"))

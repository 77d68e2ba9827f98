import math

import numpy as np
import pytest

from maxent.states import (
    EXAMPLE_STATE_NAMES,
    State,
    as_coefficient_matrix,
    basis_index,
    basis_label,
    epr_family,
    example_state,
    from_amplitudes,
    ghz,
    schmidt_state,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_basis_order_first_symbol_most_significant():
    assert [basis_index(s) for s in ("++", "+-", "-+", "--")] == [0, 1, 2, 3]
    assert basis_index("+-+") == 2
    assert basis_label(2, 2) == "-+"
    assert basis_label(0, 3) == "+++"
    for i in range(8):
        assert basis_index(basis_label(i, 3)) == i


def test_basis_label_rejects_junk():
    with pytest.raises(ValueError):
        basis_index("+0")
    with pytest.raises(ValueError):
        basis_index("")
    with pytest.raises(ValueError):
        basis_label(4, 2)


def test_state_is_immutable_copy():
    raw = np.array([1.0, 0, 0, 0], dtype=complex)
    st = State(2, raw)
    raw[0] = 5.0
    assert st.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        st.amplitudes[0] = 2.0


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


def test_from_amplitudes_rejects_bad_input():
    with pytest.raises(ValueError):
        from_amplitudes([1.0, 0, 0])  # not a power of two
    with pytest.raises(ValueError):
        from_amplitudes([1.0])  # single amplitude, no qubits
    with pytest.raises(ValueError):
        from_amplitudes([0.0] * 4)  # zero norm
    with pytest.raises(ValueError):
        from_amplitudes([1.0] + [0.0] * 511)  # 9 qubits
    with pytest.raises(ValueError):
        from_amplitudes([np.nan, 0.0])


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

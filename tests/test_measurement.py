import math

import numpy as np
import pytest

from maxent.linalg import partial_trace_single_site
from maxent.measurement import (
    AXES,
    CorrelationMatrix,
    ShotRecord,
    axes_from_chars,
    bloch_vector,
    born_probabilities,
    chars_from_axes,
    correlation,
    correlation_matrix,
    empirical_correlation,
    empirical_expectation,
    empirical_moments,
    local_expectation,
    local_expectations,
    local_variance,
    mutual_information,
    outcome_symbols,
    pauli,
    sample_outcomes,
)
from maxent.states import epr_family, example_state, from_amplitudes, ghz

import oracles

LN2 = math.log(2.0)


def _random_state(rng, n):
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return from_amplitudes(z)


def test_pauli_matrices():
    for axis in AXES:
        assert np.array_equal(pauli(axis), oracles.SIGMA[axis])
    m = pauli(1)
    m[0, 0] = 9.0  # must be a copy
    assert pauli(1)[0, 0] == 0.0
    with pytest.raises(ValueError):
        pauli(4)


def test_local_expectation_matches_dense_oracle():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        st = _random_state(rng, n)
        for site in range(1, n + 1):
            for axis in AXES:
                got = local_expectation(st, site, axis)
                want = oracles.expectation(st.amplitudes, n, site, axis)
                assert got == pytest.approx(want, abs=1e-13)
                assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12


def test_local_expectations_kernel_matches_dense_oracle():
    rng = np.random.default_rng(16)
    for n in range(1, 9):
        st = _random_state(rng, n)
        got = local_expectations(st)
        assert got.shape == (n, 3)
        want = [
            [oracles.expectation(st.amplitudes, n, site, axis) for axis in AXES]
            for site in range(1, n + 1)
        ]
        assert np.allclose(got, want, rtol=0, atol=1e-13)
        assert np.array_equal(bloch_vector(st, n), got[n - 1])


def test_local_expectation_agrees_with_density_route():
    # binding test for the density-matrix convention
    rng = np.random.default_rng(11)
    for n in (2, 3):
        st = _random_state(rng, n)
        for site in range(1, n + 1):
            rho = partial_trace_single_site(st.amplitudes, n, site)
            for axis in AXES:
                via_rho = float(np.trace(rho @ oracles.SIGMA[axis]).real)
                assert local_expectation(st, site, axis) == pytest.approx(
                    via_rho, abs=1e-12
                )


def test_local_variance_identity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        st = _random_state(rng, 2)
        for site in (1, 2):
            for axis in AXES:
                e = local_expectation(st, site, axis)
                assert local_variance(st, site, axis) == pytest.approx(
                    1.0 - e * e, abs=1e-12
                )


def test_bloch_vector_stacks_expectations():
    st = from_amplitudes([1.0, 0, 0, 0])
    assert np.allclose(bloch_vector(st, 1), [0.0, 0.0, 1.0], atol=1e-15)


def test_correlation_matches_oracle():
    rng = np.random.default_rng(13)
    st = _random_state(rng, 3)
    for (sa, sb) in ((1, 2), (1, 3), (2, 3), (3, 1)):
        for aa in AXES:
            for ab in AXES:
                got = correlation(st, sa, aa, sb, ab)
                want = oracles.covariance(st.amplitudes, 3, sa, aa, sb, ab)
                assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        correlation(st, 2, 1, 2, 3)


def test_correlation_matrix_examples():
    bell = epr_family("varphi", 0.0)
    t = correlation_matrix(bell, 1, 2).t
    want = np.array([oracles.covariance(bell.amplitudes, 2, 1, i, 2, j) for i in AXES for j in AXES]).reshape(3, 3)
    assert np.allclose(t, want, atol=1e-12)
    assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    product = from_amplitudes([0.0, 1.0, 0.0, 0.0])  # |+->
    assert np.allclose(correlation_matrix(product, 1, 2).t, 0.0, atol=1e-12)

    bal = example_state("two_qubit_balanced")
    tb = correlation_matrix(bal, 1, 2).t
    assert np.allclose(tb @ tb.T, np.eye(3), atol=1e-12)

    with pytest.raises(ValueError):
        correlation_matrix(bell, 1, 1)


def test_correlation_matrix_equality():
    cm = correlation_matrix(ghz("+"), 1, 2)
    assert cm == correlation_matrix(ghz("+"), 1, 2)
    assert not cm != correlation_matrix(ghz("+"), 1, 2)
    assert cm != CorrelationMatrix(t=cm.t, site_pair=(1, 3))
    assert cm != CorrelationMatrix(t=cm.t + np.eye(3) * 1e-15, site_pair=(1, 2))
    assert cm != "t"
    assert cm.__eq__(cm.t) is NotImplemented


def test_correlation_matrix_matches_oracle_on_all_ordered_pairs():
    rng = np.random.default_rng(17)
    for n in (3, 5, 8):
        st = _random_state(rng, n)
        for sa in range(1, n + 1):
            for sb in range(1, n + 1):
                if sa == sb:
                    continue
                cm = correlation_matrix(st, sa, sb)
                assert cm.site_pair == (sa, sb)
                want = [
                    [oracles.covariance(st.amplitudes, n, sa, i, sb, j) for j in AXES]
                    for i in AXES
                ]
                assert np.allclose(cm.t, want, rtol=0, atol=1e-13)


def test_born_probabilities_match_projector_oracle():
    rng = np.random.default_rng(14)
    cases = [
        (epr_family("varphi", 0.3), (3, 3)),
        (epr_family("psi", 1.1), (1, 2)),
        (ghz("+"), (3, 3, 3)),
        (ghz("-"), (1, 1, 1)),
        (_random_state(rng, 3), (2, 3, 1)),
    ]
    for st, bases in cases:
        got = born_probabilities(st, bases)
        want = oracles.born_probabilities_projectors(st.amplitudes, st.n_qubits, bases)
        assert np.allclose(got, want, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        born_probabilities(ghz("+"), (3, 3))
    with pytest.raises(ValueError):
        born_probabilities(ghz("+"), (3, 3, 4))


def test_sample_outcomes_deterministic_and_consistent():
    bell = epr_family("varphi", 0.0)
    a = sample_outcomes(bell, (3, 3), 5000, seed=9)
    b = sample_outcomes(bell, (3, 3), 5000, seed=9)
    assert a.counts == b.counts
    assert a == b and a.binned is not b.binned
    assert sum(a.counts.values()) == 5000
    # zero-probability outcomes never occur for the zz Bell measurement
    assert set(a.counts) <= {(1, 1), (-1, -1)}
    c = sample_outcomes(bell, (3, 3), 5000, seed=10)
    assert c.counts != a.counts  # different stream
    assert c != a and a != a.counts


def test_sample_outcomes_deterministic_state():
    plus = from_amplitudes([1.0, 0, 0, 0])
    rec = sample_outcomes(plus, (3, 3), 1000, seed=0)
    assert rec.counts == {(1, 1): 1000}
    with pytest.raises(ValueError):
        sample_outcomes(plus, (3, 3), 0, seed=0)


def test_sample_outcomes_ghz_only_aligned():
    rec = sample_outcomes(ghz("+"), (3, 3, 3), 20000, seed=4)
    assert set(rec.counts) <= {(1, 1, 1), (-1, -1, -1)}


def test_sampling_frequencies_near_born():
    rng = np.random.default_rng(15)
    st = _random_state(rng, 2)
    shots = 100_000
    rec = sample_outcomes(st, (1, 3), shots, seed=77)
    probs = born_probabilities(st, (1, 3))
    for index in range(4):
        outcome = tuple(1 if (index >> k) & 1 == 0 else -1 for k in (1, 0))
        freq = rec.counts.get(outcome, 0) / shots
        assert abs(freq - probs[index]) < 5.0 / math.sqrt(shots)


def test_shot_record_table_format():
    rec = ShotRecord(bases=(3, 3), shots=10, binned=[6, 0, 0, 4], seed=3)
    assert rec.counts == {(1, 1): 6, (-1, -1): 4}
    assert rec == ShotRecord(bases=(3, 3), shots=10, binned=np.array([6, 0, 0, 4]), seed=3)
    assert rec != ShotRecord(bases=(3, 3), shots=10, binned=[4, 0, 0, 6], seed=3)
    assert rec.to_table() == "bases=zz seed=3 shots=10\n++ 6\n-- 4\n"
    assert outcome_symbols((1, -1, 1)) == "+-+"
    with pytest.raises(ValueError):
        ShotRecord(bases=(3, 3), shots=10, binned=[6, 4], seed=3)


def test_axes_char_round_trip():
    assert axes_from_chars("xyz") == (1, 2, 3)
    assert chars_from_axes((3, 1)) == "zx"
    with pytest.raises(ValueError):
        axes_from_chars("xq")


def test_empirical_statistics():
    rec = ShotRecord(bases=(3, 3), shots=8, binned=[3, 1, 1, 3], seed=0)
    assert empirical_expectation(rec, 1) == pytest.approx(0.0)
    assert empirical_expectation(rec, 2) == pytest.approx(0.0)
    # mean of products is (3 + 3 - 1 - 1)/8 = 0.5; means are zero
    assert empirical_correlation(rec, 1, 2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        empirical_expectation(rec, 3)


def test_mutual_information_exact_tables():
    perfectly_correlated = ShotRecord(bases=(3, 3), shots=1000, binned=[500, 0, 0, 500], seed=0)
    assert mutual_information(perfectly_correlated, 1, 2) == pytest.approx(
        LN2, abs=1e-12
    )
    deterministic = ShotRecord(bases=(3, 3), shots=100, binned=[100, 0, 0, 0], seed=0)
    assert mutual_information(deterministic, 1, 2) == 0.0


def test_mutual_information_product_state_is_small():
    plus = from_amplitudes([1.0, 0, 0, 0])
    shots = 10_000
    rec = sample_outcomes(plus, (1, 1), shots, seed=21)  # xx bases: coin flips
    assert mutual_information(rec, 1, 2) <= 3.0 / shots


def _check_record_against_oracles(rec):
    n = len(rec.bases)
    counts, shots = rec.counts, rec.shots
    means, products = empirical_moments(rec)
    assert means.shape == (n,) and products.shape == (n, n)
    for a in range(1, n + 1):
        want = oracles.empirical_expectation(counts, shots, a)
        assert means[a - 1] == want
        assert empirical_expectation(rec, a) == want
        for b in range(1, n + 1):
            assert products[a - 1, b - 1] == oracles.empirical_product_mean(counts, shots, a, b)
            assert empirical_correlation(rec, a, b) == oracles.empirical_covariance(
                counts, shots, a, b
            )
            mi = mutual_information(rec, a, b)
            assert abs(mi - oracles.mutual_information(counts, shots, a, b)) <= 1e-15


def test_shot_kernel_matches_dict_oracles_on_sampled_records():
    rng = np.random.default_rng(18)
    for n in range(1, 9):
        for k, shots in enumerate((100, 10_000, 1_000_000)):
            # The basis state |+...+> gives zero-probability outcomes on every
            # z site; 100 shots leave most of 2^n outcomes unseen for n >= 7.
            st = from_amplitudes(np.eye(1 << n)[0]) if k == 1 else _random_state(rng, n)
            bases = tuple(int(a) for a in rng.integers(1, 4, size=n))
            seed = int(rng.integers(1 << 32))
            rec = sample_outcomes(st, bases, shots, seed)
            assert rec.counts == oracles.sampled_counts(
                born_probabilities(st, bases), shots, seed
            )
            assert int(rec.binned.sum()) == shots
            _check_record_against_oracles(rec)


def test_shot_kernel_matches_dict_oracles_on_sparse_records():
    rng = np.random.default_rng(19)
    for n in range(1, 9):
        binned = rng.integers(0, 1000, size=1 << n)
        binned[rng.random(1 << n) < 0.6] = 0
        binned[rng.integers(1 << n)] += 1
        rec = ShotRecord(bases=(3,) * n, shots=int(binned.sum()), binned=binned, seed=0)
        assert rec.counts == {
            oracles.outcome_tuple(k, n): int(c) for k, c in enumerate(binned) if c > 0
        }
        assert not rec.binned.flags.writeable
        _check_record_against_oracles(rec)

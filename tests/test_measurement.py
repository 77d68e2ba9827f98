import itertools
import json
import math

import numpy as np
import pytest

from maxent.cli import main
from maxent.entanglement import commutator_defect, reduced_entropy
from maxent.linalg import _apply_site, apply_single_site, partial_trace_single_site
from maxent.measurement import (
    AXES,
    _bits,
    _image_tables,
    _images,
    CorrelationMatrix,
    ShotRecord,
    axes_from_chars,
    bloch_vector,
    born_probabilities,
    correlation_matrices,
    correlation_matrix,
    empirical_correlation,
    empirical_expectation,
    empirical_moments,
    local_expectation,
    local_expectations,
    mutual_information,
    mutual_information_matrix,
    sample_outcomes,
)
from maxent.search import haar_random_state
from maxent.statefile import read_state_file, write_state_file
from maxent.states import epr_family, example_state, from_amplitudes, ghz

import oracles

LN2 = math.log(2.0)


def _random_state(rng, n):
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return from_amplitudes(z)


def test_pauli_matrices():
    # The one-qubit images of |+> and |-> are the columns of each Pauli matrix.
    for axis in AXES:
        columns = [_images(ket, 1)[1][axis - 1] for ket in np.eye(2, dtype=complex)]
        assert np.array_equal(np.transpose(columns), oracles.SIGMA[axis])
    with pytest.raises(ValueError, match="axis must be 1, 2 or 3, got 4"):
        local_expectation(ghz("+"), 1, 4)


def test_axes_must_be_integers():
    # refused up front, not later as a bare numpy IndexError
    not_int = "cannot be interpreted as an integer"
    st = ghz("+")
    for bad in (2.0, np.float64(2)):
        with pytest.raises(TypeError, match=not_int):
            local_expectation(st, 1, bad)
        with pytest.raises(TypeError, match=not_int):
            born_probabilities(st, (3, bad, 3))
        with pytest.raises(TypeError, match=not_int):
            sample_outcomes(st, (3, bad, 3), 10, 0)
        with pytest.raises(TypeError, match=not_int):
            ShotRecord(bases=(3, bad), shots=1, binned=[1, 0, 0, 0])
    # a bool is an int, as a site is: True is axis 1, x
    plus_plus = from_amplitudes([1.0, 1.0, 0.0, 0.0])
    assert local_expectation(plus_plus, 2, True) == local_expectation(plus_plus, 2, 1) == 1.0
    probs = born_probabilities(plus_plus, (3, True))
    assert np.array_equal(probs, born_probabilities(plus_plus, (3, 1)))
    assert np.allclose(probs, [1.0, 0.0, 0.0, 0.0])
    rec = ShotRecord(bases=(np.int64(3), True), shots=1, binned=[1, 0, 0, 0])
    assert rec.bases == (3, 1) and all(type(axis) is int for axis in rec.bases)


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


def test_pauli_images_match_dense_oracle():
    # unnormalized vectors: the images are linear in psi
    rng = np.random.default_rng(20)
    for n in range(1, 9):
        psi = rng.uniform(0.2, 3.0) * (rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
        images = _images(psi, n)[1]
        assert images.shape == (3 * n, 1 << n)
        for site in range(1, n + 1):
            for axis in AXES:
                want = oracles.site_operator(n, site, oracles.SIGMA[axis]) @ psi
                assert np.allclose(images[3 * (site - 1) + axis - 1], want, rtol=0, atol=1e-14)
        assert not any(table.flags.writeable for table in _image_tables(n))


def test_images_of_a_stack_equal_each_row_alone_to_the_bit():
    # The lockstep search relies on this: each start's slice of the stacked
    # norms, images and expectations has the bits of that start alone, also
    # off the unit sphere.
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        for k in range(1, 6):
            z = rng.standard_normal((k, 1 << n)) + 1j * rng.standard_normal((k, 1 << n))
            scales = np.resize([1.0, 0.3, 2.5], k)[:, None]
            stack = scales * z / np.linalg.norm(z, axis=1, keepdims=True)
            stacked = _images(stack, n)
            assert stacked[1].shape == (k, 3 * n, 1 << n)
            for j in range(k):
                for got, want in zip(stacked, _images(stack[j], n)):
                    assert got[j].tobytes() == np.asarray(want).tobytes()


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


def test_local_variance_identity(capsys, tmp_path):
    # analyze reports each site's Pauli variance as 1 - e^2; check that against
    # the dense <sigma^2> - <sigma>^2 of the same measurement.
    rng = np.random.default_rng(12)
    path = tmp_path / "state.txt"
    for _ in range(20):
        write_state_file(path, _random_state(rng, 2))
        st = read_state_file(path)[0]
        assert main(["analyze", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["sites"]
        for site in (1, 2):
            variances = rows[site - 1]["variances"]
            for axis, c in zip(AXES, "xyz"):
                square = oracles.site_operator(2, site, oracles.SIGMA[axis] @ oracles.SIGMA[axis])
                second = float(np.vdot(st.amplitudes, square @ st.amplitudes).real)
                e = oracles.expectation(st.amplitudes, 2, site, axis)
                assert variances[c] == pytest.approx(second - e * e, abs=1e-12)
                assert variances[c] == 1.0 - local_expectation(st, site, axis) ** 2


def test_bloch_vector_stacks_expectations():
    st = from_amplitudes([1.0, 0, 0, 0])
    assert np.allclose(bloch_vector(st, 1), [0.0, 0.0, 1.0], atol=1e-15)


def test_correlation_matches_oracle():
    rng = np.random.default_rng(13)
    st = _random_state(rng, 3)
    for (sa, sb) in ((1, 2), (1, 3), (2, 3), (3, 1)):
        for aa in AXES:
            for ab in AXES:
                got = correlation_matrix(st, sa, sb).t[aa - 1, ab - 1]
                want = oracles.covariance(st.amplitudes, 3, sa, aa, sb, ab)
                assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        correlation_matrix(st, 2, 2)


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


def test_correlation_matrix_on_one_qubit_is_a_site_error():
    one = from_amplitudes([1.0, 0.0])
    with pytest.raises(ValueError, match="distinct sites"):
        correlation_matrix(one, 1, 1)
    with pytest.raises(ValueError, match=r"^site must be in \[1, 1\], got 2$"):
        correlation_matrix(one, 1, 2)


def test_correlation_matrix_equality():
    cm = correlation_matrix(ghz("+"), 1, 2)
    assert cm == correlation_matrix(ghz("+"), 1, 2)
    assert not cm != correlation_matrix(ghz("+"), 1, 2)
    assert cm != CorrelationMatrix(t=cm.t, site_pair=(1, 3))
    assert cm != CorrelationMatrix(t=cm.t + np.eye(3) * 1e-15, site_pair=(1, 2))
    with pytest.raises(ValueError, match=r"^correlation matrix must be 3x3, got \(2, 2\)$"):
        CorrelationMatrix(t=np.eye(2), site_pair=(1, 2))
    assert cm != "t"
    assert cm.__eq__(cm.t) is NotImplemented


def test_correlation_matrix_matches_oracle_on_all_ordered_pairs():
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        st = _random_state(rng, n)
        every = correlation_matrices(st)
        assert every.shape == (n, n, 3, 3)
        for sa in range(1, n + 1):
            bloch = local_expectations(st)[sa - 1]
            assert np.allclose(every[sa - 1, sa - 1], np.eye(3) - np.outer(bloch, bloch), atol=1e-13)
            for sb in range(1, n + 1):
                if sa == sb:
                    continue
                cm = correlation_matrix(st, sa, sb)
                assert cm.site_pair == (sa, sb)
                assert np.array_equal(cm.t, every[sa - 1, sb - 1])
                assert np.array_equal(every[sa - 1, sb - 1], every[sb - 1, sa - 1].T)
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


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Columns are the +1 and -1 eigenvectors of each Pauli, sigma z included.
_EIGENBASIS = {
    1: np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=np.complex128),
    2: np.array([[_INV_SQRT2, _INV_SQRT2], [1.0j * _INV_SQRT2, -1.0j * _INV_SQRT2]], dtype=np.complex128),
    3: np.eye(2, dtype=np.complex128),
}


def _born_rotating_every_site(state, bases):
    rotated = state.amplitudes
    for site, axis in enumerate(bases, start=1):
        rotated = _apply_site(rotated, site, _EIGENBASIS[axis].conj().T)
    return np.abs(rotated) ** 2


def test_born_probabilities_equal_rotating_every_site_to_the_bit():
    # Leaving z sites unrotated may flip the sign of an exact zero amplitude
    # only, so the probabilities keep their bits; exact zeros come from GHZ
    # and |0...0>.
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        ghz_n = np.zeros(1 << n)
        ghz_n[[0, -1]] = 1.0
        states = [
            haar_random_state(n, seed=n),
            haar_random_state(n, seed=100 + n),
            from_amplitudes(ghz_n),
            from_amplitudes(np.eye(1 << n)[0]),
        ]
        if n <= 3:
            all_bases = list(itertools.product(AXES, repeat=n))
        else:
            all_bases = [(3,) * n] + [tuple(int(a) for a in rng.integers(1, 4, size=n)) for _ in range(12)]
        for st in states:
            for bases in all_bases:
                got = born_probabilities(st, bases)
                assert got.tobytes() == _born_rotating_every_site(st, bases).tobytes(), (n, bases)


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
    with pytest.raises(ValueError):
        sample_outcomes(plus, (3, 3), 2**63, seed=0)


def test_sample_outcomes_takes_an_integer_seed_only():
    bell = epr_family("varphi", 0.0)
    for seed in (np.random.default_rng(1), 1.0):
        with pytest.raises(TypeError):
            sample_outcomes(bell, (3, 3), 10, seed)
    rec = sample_outcomes(bell, (3, 3), 10, np.int64(1))
    assert rec == sample_outcomes(bell, (3, 3), 10, 1)
    assert type(rec.seed) is int and rec.seed == 1


def test_sites_must_be_integers():
    s = ghz("+")
    record = sample_outcomes(s, (3, 3, 3), 10, 1)
    for call in (
        lambda: local_expectation(s, 2.0, 1),
        lambda: bloch_vector(s, 1.0),
        lambda: correlation_matrix(s, 1.0, 2),
        lambda: reduced_entropy(s, 1.0),
        lambda: commutator_defect(s, np.float64(1)),
        lambda: empirical_expectation(record, 1.5),
        lambda: empirical_correlation(record, 1, 2.0),
        lambda: mutual_information(record, 1.0, 2),
        lambda: apply_single_site(s.amplitudes, 3, 1.0, np.eye(2)),
        lambda: partial_trace_single_site(s.amplitudes, 3, 1.0),
    ):
        with pytest.raises(TypeError):
            call()
    # integer-like sites are taken and reported as plain ints
    report = reduced_entropy(s, True)
    assert type(report.site) is int and report == reduced_entropy(s, 1)
    assert correlation_matrix(s, np.int64(1), np.uint8(2)).site_pair == (1, 2)


def test_sample_outcomes_takes_an_integer_shot_count():
    for shots in (10.5, np.float64(10)):
        with pytest.raises(TypeError):
            sample_outcomes(ghz("+"), (3, 3, 3), shots, 1)
    rec = sample_outcomes(ghz("+"), (3, 3, 3), np.int64(5), 1)
    assert rec == sample_outcomes(ghz("+"), (3, 3, 3), 5, 1)
    assert type(rec.shots) is int and sum(rec.counts.values()) == 5


def test_sample_outcomes_checks_the_bases_before_shots_and_seed():
    # born_probabilities is the one bases check, and sample_outcomes calls it
    # before it reads shots or seed
    st = ghz("+")
    for bases, message in (
        ((3, 3), "^got 2 measurement axes for 3 qubits$"),
        ((3, 7, 3), "^axis must be 1, 2 or 3, got 7$"),
    ):
        for shots, seed in ((0, 1), (2**63, 1), (5, -1)):
            with pytest.raises(ValueError, match=message):
                sample_outcomes(st, bases, shots, seed)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sample_outcomes(st, (3, 2.0, 3), 0, 1)


def test_sample_outcomes_takes_any_iterable_of_axes():
    st = ghz("+")
    want = sample_outcomes(st, (1, 2, 3), 1000, 5)
    for bases in ((axis for axis in (1, 2, 3)), np.array([1, 2, 3]), (True, 2, 3)):
        rec = sample_outcomes(st, bases, 1000, 5)
        assert rec == want and rec.bases == (1, 2, 3)
        assert all(type(axis) is int for axis in rec.bases)


def test_sample_outcomes_never_draws_a_zero_probability_last_outcome():
    # The last outcome, --, has probability exactly 0 in zz.
    st = from_amplitudes([1.0, 1.0, 1.0, 0.0])
    assert born_probabilities(st, (3, 3))[-1] == 0.0
    for seed in range(300):
        rec = sample_outcomes(st, (3, 3), 100_000, seed)
        assert rec.binned[-1] == 0 and int(rec.binned.sum()) == 100_000


def test_sample_outcomes_at_the_largest_shot_count():
    rec = sample_outcomes(ghz("+"), (3, 3, 3), 2**63 - 1, seed=2)
    assert set(rec.counts) == {(1, 1, 1), (-1, -1, -1)}
    assert sum(rec.counts.values()) == 2**63 - 1


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


def test_shot_record_counts_and_equality():
    rec = ShotRecord(bases=(3, 3), shots=10, binned=[6, 0, 0, 4], seed=3)
    assert rec.counts == {(1, 1): 6, (-1, -1): 4}
    assert rec == ShotRecord(bases=(3, 3), shots=10, binned=np.array([6, 0, 0, 4]), seed=3)
    assert rec != ShotRecord(bases=(3, 3), shots=10, binned=[4, 0, 0, 6], seed=3)
    with pytest.raises(ValueError):
        ShotRecord(bases=(3, 3), shots=10, binned=[6, 4], seed=3)


def test_shot_record_rejects_a_base_that_is_not_an_axis():
    with pytest.raises(ValueError, match="axis must be 1, 2 or 3, got 7"):
        ShotRecord(bases=(7, 3), shots=10, binned=[6, 0, 0, 4], seed=0)


def test_shot_record_rejects_a_negative_count():
    # The counts still add up to shots.
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        ShotRecord(bases=(3, 3), shots=10, binned=[12, 0, -2, 0], seed=0)


def test_shot_record_rejects_counts_that_do_not_sum_to_shots():
    with pytest.raises(ValueError, match="sum to shots=10"):
        ShotRecord(bases=(3, 3), shots=10, binned=[5, 0, 0, 50], seed=0)
    # These counts add up to 2**64 + 10, which an int64 sum wraps to 10.
    big = 2**63 - 1
    with pytest.raises(ValueError, match="sum to shots=10"):
        ShotRecord(bases=(3, 3), shots=10, binned=[big, big, 2, 10], seed=0)
    # Zero counts do sum to zero shots, but every estimator would divide 0 by 0.
    with pytest.raises(ValueError, match="shots must be >= 1, got 0"):
        ShotRecord(bases=(3,), shots=0, binned=[0, 0])


def test_axes_char_round_trip():
    assert axes_from_chars("xyz") == (1, 2, 3)
    for text in ("zx", "XyZ", "yyY"):
        assert "".join("xyz"[a - 1] for a in axes_from_chars(text)) == text.lower()
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


def test_estimators_hold_counts_near_the_int64_limit():
    # The +- cell holds 2**62 shots, so four times it, the form
    # shots + S_a + S_b + S_ab of a joint count in +-1 sums, leaves int64.
    half = 2**62
    rec = ShotRecord(bases=(3, 3), shots=2 * half - 1, binned=[1, half, half - 2, 0], seed=0)
    means, products = empirical_moments(rec)
    assert np.array_equal(means, [3 / rec.shots, -1 / rec.shots])
    assert np.array_equal(products, [[1.0, (3 - 2 * half) / rec.shots], [(3 - 2 * half) / rec.shots, 1.0]])
    counts = {(1, 1): 1, (1, -1): half, (-1, 1): half - 2}
    for a, b in ((1, 2), (1, 1), (2, 2)):
        want = oracles.mutual_information(counts, rec.shots, a, b)
        assert mutual_information(rec, a, b) == pytest.approx(want, abs=1e-15)


def _estimates(rec):
    """Every estimator's output on a record: arrays as bytes, then the per-site floats."""
    n = len(rec.bases)
    out = [a.tobytes() for a in (*empirical_moments(rec), mutual_information_matrix(rec))]
    for a, b in itertools.product(range(1, n + 1), repeat=2):
        out.append(
            (empirical_expectation(rec, a), empirical_correlation(rec, a, b), mutual_information(rec, a, b))
        )
    return out


def _check_record_against_oracles(rec):
    n = len(rec.bases)
    counts, shots = rec.counts, rec.shots
    # The record's one joint table and the shared bit table are read-only;
    # a used record estimates what a fresh, equal record does, to the bit.
    with pytest.raises(ValueError, match="read-only"):
        rec._joint_counts[1, 1, 0, 0] += 1
    with pytest.raises(ValueError, match="read-only"):
        _bits(n)[0, 0] = 1
    fresh = ShotRecord(bases=rec.bases, shots=shots, binned=rec.binned.copy(), seed=rec.seed)
    assert _estimates(rec) == _estimates(fresh)
    means, products = empirical_moments(rec)
    assert means.shape == (n,) and products.shape == (n, n)
    assert mutual_information_matrix(rec).shape == (n, n)
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
            assert rec.counts == oracles.multinomial_counts(
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


def _spy_on_joint_table(monkeypatch):
    """A list that gets each record whose joint-count table is built."""
    table = ShotRecord.__dict__["_joint_counts"]
    build, built = table.func, []

    def spy(record):
        built.append(record)
        return build(record)

    monkeypatch.setattr(table, "func", spy)
    return built


def test_joint_table_is_built_once_per_record(monkeypatch):
    built = _spy_on_joint_table(monkeypatch)
    rec = sample_outcomes(ghz("+"), (1, 2, 3), 1000, seed=5)
    for _ in range(2):
        empirical_moments(rec)
        mutual_information_matrix(rec)
        empirical_expectation(rec, 1)
        empirical_correlation(rec, 1, 2)
        mutual_information(rec, 2, 3)
    assert built == [rec] and built[0] is rec
    assert not rec._joint_counts.flags.writeable
    # An equal record is a new record, with its own table.
    fresh = ShotRecord(bases=rec.bases, shots=rec.shots, binned=rec.binned, seed=rec.seed)
    assert _estimates(fresh) == _estimates(rec)
    assert len(built) == 2 and built[1] is fresh
    assert _bits(3) is _bits(3)


def test_sample_command_builds_one_joint_table_per_op(monkeypatch, tmp_path):
    built = _spy_on_joint_table(monkeypatch)
    for n in (1, 2, 5, 8):
        path = str(tmp_path / f"n{n}.state")
        write_state_file(path, haar_random_state(n, seed=n))
        for json_flag in (["--json"], []):
            before = len(built)
            argv = ["sample", path, "--bases", "xyzxyzxy"[:n], "--shots", "1000", "--seed", "4"]
            assert main(argv + json_flag) == 0
            assert len(built) == before + 1

"""Property tests of the state-file parser, the expectation kernel, the
reduced entropies and the spliced JSON blocks of the command line."""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxent import cli
from maxent.entanglement import LN2, apply_local_unitaries, reduced_entropy
from maxent.measurement import local_expectations
from maxent.search import haar_random_su2
from maxent.statefile import StateFileError, format_state, parse_state
from maxent.states import from_amplitudes

import oracles

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


# What a mutated document may hold: tokens float() reads as non-finite, or
# rejects, or accepts where numpy's own string parser would not ("1_0", a
# fullwidth digit); CRLF, CR and the rarer breaks str.splitlines knows; padding.
_TOKENS = st.sampled_from(
    ["0", "-0.0", "0.5", "1e-400", "1e200", "nan", "-inf", "Infinity", "1e400", "-1e400",
     "1_0", "0x1p0", "\uff11", "1e", "--1", "x", ".5", "+.5E-3"]
)
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"])
_SPACES = st.sampled_from([" ", "  ", "\t", "\xa0", "\u3000"])


@st.composite
def mutated_documents(draw):
    """A state document with up to two lines dropped, repeated, blanked or
    padded, then up to three tokens of its amplitude rows added, removed or
    replaced, its lines joined by mixed breaks."""
    state = draw(states(max_qubits=3))
    label = draw(st.sampled_from([None, "run 3"]))
    lines = format_state(state, label).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "blank", "pad"]))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "blank":
            lines[i] = draw(st.sampled_from(["", " ", "\t"]))
        else:
            lines[i] = draw(_SPACES) + lines[i] + draw(_SPACES)
    first_row = 3 if label is None else 4
    for _ in range(draw(st.integers(0, 3)) if len(lines) > first_row else 0):
        i = draw(st.integers(first_row, len(lines) - 1))
        tokens = lines[i].split()
        kind = draw(st.sampled_from(["add", "remove", "swap", "swap"]))
        if kind == "add":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(_TOKENS))
        elif tokens:
            k = draw(st.integers(0, len(tokens) - 1))
            if kind == "remove":
                del tokens[k]
            else:
                tokens[k] = draw(_TOKENS)
        lines[i] = draw(_SPACES).join(tokens)
    breaks = draw(st.lists(_BREAKS, min_size=len(lines), max_size=len(lines)))
    return "".join(line + brk for line, brk in zip(lines, breaks))


def _parse_outcome(parse, text):
    try:
        state, label = parse(text)
    except StateFileError as exc:
        return exc.line, str(exc)
    return state.n_qubits, state.amplitudes.tobytes(), label


@settings(PROPERTY, max_examples=400)
@given(mutated_documents())
def test_parse_agrees_with_the_row_by_row_parser(text):
    """The one-pass parser accepts what the row-by-row reference accepts, with
    the same bits and label, and rejects the rest on the same line with the
    same message."""
    assert _parse_outcome(parse_state, text) == _parse_outcome(oracles.parse_state_rows, text)


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


def _splices_as(block: str, value) -> bool:
    """Whether ``block``, spliced in at depth 1, reads as json.dumps of ``value``."""
    return '{\n  "a": ' + block + "\n}" == json.dumps({"a": value}, indent=2, sort_keys=True)


@settings(PROPERTY, max_examples=40)
@given(
    st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=11, max_size=11),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 2**64 - 1),
)
def test_spliced_blocks_match_json_dumps_for_any_finite_float(rows, seed):
    """Each splice template assumes a finite float's repr is its JSON token."""
    pairs = [x[k:k + 2] for x in rows for k in range(0, 10, 2)]
    reprs = [(repr(re), repr(im)) for re, im in pairs]  # as format_state writes them
    assert _splices_as(cli._json_block(cli._AMPLITUDE_JSON, reprs), pairs)
    entries = {  # every other splice template of the CLI, with entries of these floats
        cli._PAIR_JSON: [
            {"sites": [k + 1, 8], "t": [x[0:3], x[3:6], x[6:9]]} for k, x in enumerate(rows)
        ],
        cli._SITE_JSON: [
            {
                "site": k + 1,
                "commutator_defect": x[0],
                "eigenvalues": x[1:3],
                "entropy_bits": x[3],
                "entropy_nats": x[4],
                "expectations": dict(zip("xyz", x[5:8])),
                "variances": dict(zip("xyz", x[8:11])),
            }
            for k, x in enumerate(rows)
        ],
        cli._EXPECTATION_JSON: [
            {"site": k + 1, "value": x[0], "std_err": x[1]} for k, x in enumerate(rows)
        ],
        cli._CORRELATION_JSON: [
            {"sites": [k + 1, 8], "product_mean": x[2], "covariance": x[3], "std_err": x[4]}
            for k, x in enumerate(rows)
        ],
        cli._INFORMATION_JSON: [
            {"sites": [k + 1, 8], "nats": x[5], "bits": x[6]} for k, x in enumerate(rows)
        ],
        cli._RESULT_JSON: [
            {
                "rank": k + 1,
                "seed": seed >> k,
                "iterations": k,
                "final_cost": x[0],
                "converged": x[1] < 0.0,
                "stop_reason": ("converged", "max_iter", "stuck")[k],
                "cost_evals": 2 * k + 1,
                "escapes": k,
            }
            for k, x in enumerate(rows)
        ],
    }
    templates = {t for name, t in vars(cli).items() if name.endswith("_JSON")}
    assert templates == {cli._AMPLITUDE_JSON, *entries}
    for template, some in entries.items():
        assert _splices_as(cli._json_block(template, map(oracles.json_leaves, some)), some)

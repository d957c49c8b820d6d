from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from steercert import linalg
from steercert.boxworld import GptAssemblage, prbox_assemblage
from steercert.errors import InputError
from steercert.scenario import (
    Assemblage,
    Povm,
    assemblage_from_povms,
    load_scenario,
    matrix_from_json,
    matrix_to_json,
    noisy_pauli_povm,
    pauli_observable,
    pauli_povm,
    povm_from_kraus,
    scan_predictability,
    singlet,
    werner_state,
)
from helpers import random_kraus_split, random_povm_pair, random_state

RNG = np.random.default_rng(91217)


def manual_assemblage_block(rho, effect, dim_a, dim_b):
    big = np.kron(effect, np.eye(dim_b))
    out = np.zeros((dim_b, dim_b), dtype=complex)
    d = dim_a * dim_b
    prod = big @ rho
    for j in range(dim_b):
        for l in range(dim_b):
            for i in range(dim_a):
                out[j, l] += prod[i * dim_b + j, i * dim_b + l]
    return out


def test_povm_validation():
    good = pauli_povm("z")
    assert good.num_outcomes == 2 and good.dim == 2
    assert Povm(label="trivial", effects=(np.eye(3),)).dim == 3
    with pytest.raises(InputError):
        Povm(label="broken", effects=(linalg.I2, linalg.I2))
    with pytest.raises(InputError):
        Povm(label="negative", effects=(np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
    with pytest.raises(InputError, match=r"^POVM 'dim' effect 1 has shape \(3, 3\), expected \(2, 2\)"):
        Povm(label="dim", effects=(np.eye(2), np.zeros((3, 3))))
    with pytest.raises(InputError, match=r"^POVM 'vectors' effect 0 has shape \(2,\), expected a matrix"):
        Povm(label="vectors", effects=(np.array([1.0, 0.0]), np.array([0.0, 1.0])))


def test_non_finite_matrices_are_rejected_up_front():
    for bad in (np.nan, np.inf):
        effect = np.array([[bad, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any eigenvalue work
            with pytest.raises(InputError, match="non-finite"):
                Povm(label="bad", effects=(effect, np.eye(2) - effect))
            with pytest.raises(InputError, match="non-finite"):
                assemblage_from_povms(np.full((4, 4), bad), [pauli_povm("z")])
            with pytest.raises(InputError, match="non-finite"):
                Assemblage([[effect / 2, np.eye(2) / 2]])
        with pytest.raises(ValueError, match="non-finite"):
            linalg.require_hermitian(effect)
    doc = {"dimA": 2, "dimB": 2, "state": {"kind": "explicit", "matrix": [[[float("nan"), 0.0]] * 4] * 4},
           "alice_povms": [[matrix_to_json(e) for e in pauli_povm("z").effects]]}
    with pytest.raises(InputError, match="non-finite"):
        load_scenario(doc)


_SKEW = np.array([[0.5, 0.1], [-0.1, 0.5]])  # 0.2 from its adjoint


@pytest.mark.parametrize(
    "build, label",
    [
        (lambda: Povm(label="skew", effects=(_SKEW, np.eye(2) - _SKEW)), "POVM 'skew' effect 0"),
        (lambda: Assemblage([[_SKEW / 2, np.eye(2) / 2]]), r"assemblage block \(x=0, a=0\)"),
        (lambda: assemblage_from_povms(np.kron(_SKEW, np.eye(2)) / 2, [pauli_povm("z")]), "shared state"),
    ],
    ids=["povm-effect", "assemblage-block", "shared-state"],
)
def test_non_hermitian_matrices_are_named_in_the_error(build, label):
    with pytest.raises(InputError, match=f"^{label} is not Hermitian"):
        build()


def test_pauli_povm_projects_onto_axis():
    for axis in ("x", "y", "z", (0.6, 0.0, 0.8)):
        povm = pauli_povm(axis)
        obs = pauli_observable(axis)
        # outcome a carries eigenvalue (-1)^a
        np.testing.assert_allclose(povm.effects[0] - povm.effects[1], obs, atol=1e-12)
        np.testing.assert_allclose(povm.effects[0] @ povm.effects[0], povm.effects[0], atol=1e-12)


def test_noisy_pauli_povm():
    povm = noisy_pauli_povm("z", 0.7)
    expected = 0.7 * pauli_povm("z").effects[0] + 0.3 * linalg.I2 / 2
    np.testing.assert_allclose(povm.effects[0], expected, atol=1e-12)
    with pytest.raises(InputError):
        noisy_pauli_povm("z", 1.2)


def test_werner_state_family():
    np.testing.assert_allclose(werner_state(1.0), singlet(), atol=1e-12)
    np.testing.assert_allclose(werner_state(0.0), np.eye(4) / 4, atol=1e-12)
    rho = werner_state(0.3)
    assert abs(rho.trace() - 1.0) < 1e-12
    linalg.require_psd(rho)
    with pytest.raises(InputError):
        werner_state(1.5)


def test_assemblage_from_povms_matches_index_oracle():
    for dim_a, dim_b in [(2, 2), (2, 3), (3, 2), (2, 4)] * 3:
        rho = random_state(RNG, dim_a * dim_b)
        povms = [
            Povm(label="r0", effects=random_povm_pair(RNG, dim_a)),
            Povm(label="r1", effects=random_povm_pair(RNG, dim_a)),
        ]
        asm = assemblage_from_povms(rho, povms)
        assert asm.blocks.shape == (2, 2, dim_b, dim_b)
        assert (asm.settings, asm.outcomes, asm.dim_b) == (2, 2, dim_b)
        for x in range(2):
            for a in range(2):
                expected = manual_assemblage_block(rho, povms[x].effects[a], dim_a, dim_b)
                np.testing.assert_allclose(asm.block(x, a), expected, atol=1e-11)
        assert asm.no_signalling.passed
        rho_b = manual_assemblage_block(rho, np.eye(dim_a), dim_a, dim_b)
        np.testing.assert_allclose(asm.marginal(0), rho_b, atol=1e-11)


def test_singlet_assemblage_blocks():
    asm = assemblage_from_povms(singlet(), [pauli_povm("z")])
    for a in range(2):
        sign = -((-1) ** a)
        expected = 0.5 * linalg.bloch_state((0.0, 0.0, sign))
        np.testing.assert_allclose(asm.block(0, a), expected, atol=1e-12)
        assert abs(asm.prob(0, a) - 0.5) < 1e-12


def test_assemblage_accessors_and_zero_probability():
    up = np.zeros((4, 4), dtype=complex)
    up[0, 0] = 1.0  # |0><0| (x) |0><0|
    asm = assemblage_from_povms(up, [pauli_povm("z")])
    assert abs(asm.prob(0, 0) - 1.0) < 1e-12
    assert asm.conditional_state(0, 1) is None
    omega = asm.conditional_state(0, 0)
    assert abs(omega.trace() - 1.0) < 1e-12


def test_assemblage_validation_rejects_signalling():
    z = pauli_povm("z")
    asm = assemblage_from_povms(werner_state(0.5), [z, pauli_povm("x")])
    blocks = np.array(asm.blocks)
    blocks[1, 0] = blocks[1, 0] * 0.7  # break the marginal for setting 1
    with pytest.raises(InputError):
        Assemblage(blocks)


def test_instrument_validation():
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    k1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    povm = povm_from_kraus("z", ((k0,), (k1,)))
    np.testing.assert_allclose(povm.effects[0], k0, atol=1e-12)
    assert povm.dim == 2
    with pytest.raises(InputError, match="^POVM 'bad' effects do not sum to the identity"):
        povm_from_kraus("bad", ((k0,), (0.5 * k1,)))
    with pytest.raises(InputError, match="^POVM 'mixed' outcome 0 needs at least one Kraus operator, all of one shape"):
        povm_from_kraus("mixed", ((k0, np.zeros((3, 3))), (k1,)))
    with pytest.raises(InputError, match="^POVM 'wide' outcome 1 Kraus operator must be square"):
        povm_from_kraus("wide", ((k0,), (np.ones((2, 3)),)))


def test_instrument_and_povm_assemblages_agree():
    # update maps cancel under the trace over Alice, for any Kraus split
    for _ in range(10):
        rho = random_state(RNG, 4)
        effects = random_povm_pair(RNG)
        povm = Povm(label="m", effects=effects)
        kraus = tuple(
            random_kraus_split(RNG, e, pieces=int(RNG.integers(1, 4))) for e in effects
        )
        a1 = assemblage_from_povms(rho, [povm])
        a2 = assemblage_from_povms(rho, [povm_from_kraus("m", kraus)])
        for a in range(2):
            np.testing.assert_allclose(a1.block(0, a), a2.block(0, a), atol=1e-10)


def test_scan_predictability_singlet():
    bob = [pauli_povm("x"), pauli_povm("z")]
    asm = assemblage_from_povms(singlet(), [pauli_povm("x"), pauli_povm("z")])
    records = scan_predictability(asm, bob)
    assert len(records) == 4
    for rec in records:
        x, a = rec.context
        y, b = rec.test
        assert y == x and b == 1 - a  # anti-correlated along the matched axis
        assert rec.probability >= 1.0 - 1e-9


def test_scan_predictability_werner_below_one_is_empty():
    bob = [pauli_povm("x"), pauli_povm("z")]
    asm = assemblage_from_povms(werner_state(0.9), [pauli_povm("x"), pauli_povm("z")])
    assert scan_predictability(asm, bob) == []


def test_matrix_json_round_trip():
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m, atol=0)


def test_load_scenario_kinds_and_errors():
    z = pauli_povm("z")
    povm_json = [matrix_to_json(e) for e in z.effects]
    doc = {"dimA": 2, "dimB": 2, "state": {"kind": "werner", "p": 0.5}, "alice_povms": [povm_json]}
    sc = load_scenario(doc)
    np.testing.assert_allclose(sc["rho"], werner_state(0.5), atol=1e-12)
    assert len(sc["alice"]) == 1 and sc["bob"] == []

    sc = load_scenario({**doc, "state": {"kind": "singlet"}})
    np.testing.assert_allclose(sc["rho"], singlet(), atol=1e-12)

    explicit = {**doc, "state": {"kind": "explicit", "matrix": matrix_to_json(werner_state(0.3))}}
    np.testing.assert_allclose(load_scenario(explicit)["rho"], werner_state(0.3), atol=1e-12)

    with pytest.raises(InputError):
        load_scenario({"dimA": 2, "dimB": 2, "state": {"kind": "werner", "p": 0.5}})
    with pytest.raises(InputError):
        load_scenario({**doc, "state": {"kind": "ghz"}})
    with pytest.raises(InputError):
        load_scenario({**doc, "dimA": 3})
    trit = [matrix_to_json(np.diag(row)) for row in np.eye(3)]
    with pytest.raises(InputError, match=r"^POVM 'bob\[0\]' acts on dimension 3, expected dimB = 2"):
        load_scenario({**doc, "bob_povms": [trit]})
    with pytest.raises(InputError, match=r"^state has shape \(5, 5\), expected \(4, 4\)"):
        load_scenario({**doc, "state": {"kind": "explicit", "matrix": matrix_to_json(np.eye(5) / 5)}})


_QUBITS = {"dimA": 2, "dimB": 2, "state": {"kind": "singlet"},
           "alice_povms": [[matrix_to_json(e) for e in pauli_povm("z").effects]]}


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: GptAssemblage(0, 2, {}), "x_settings"),
        (lambda: GptAssemblage(1.5, 2, {}), "x_settings"),
        (lambda: GptAssemblage(1, 0, {}), "a_outcomes"),
        (lambda: load_scenario({**_QUBITS, "dimB": True}), "scenario field 'dimB'"),
        (lambda: load_scenario({**_QUBITS, "dimB": -2}), "scenario field 'dimB'"),
        (lambda: load_scenario({**_QUBITS, "dimA": 2.0}), "scenario field 'dimA'"),
        (lambda: load_scenario({**_QUBITS, "dimA": 0}), "scenario field 'dimA'"),
        (lambda: load_scenario({**_QUBITS, "dimA": "2"}), "scenario field 'dimA'"),
    ],
    ids=["no-settings", "float-settings", "no-outcomes", "bool-dim", "negative-dim",
         "float-povm-dim", "zero-povm-dim", "str-dim"],
)
def test_counts_must_be_positive_integers(build, what):
    with pytest.raises(InputError, match=f"^{what} must be a positive integer"):
        build()


def test_numpy_integer_counts_are_accepted():
    sc = load_scenario({**_QUBITS, "dimA": np.int64(2), "dimB": np.int64(2)})
    assert assemblage_from_povms(sc["rho"], sc["alice"]).blocks.shape == (1, 2, 2, 2)
    box = GptAssemblage(np.int64(2), np.int64(2), prbox_assemblage().entries)
    assert box.no_signalling.passed


def test_assemblage_shape_is_settings_outcomes_and_square_blocks():
    for shape in [(2, 2), (0, 2, 2, 2), (1, 0, 2, 2), (1, 2, 0, 0), (1, 2, 2, 3)]:
        with pytest.raises(InputError, match="^assemblage blocks have shape " + re.escape(str(shape))):
            Assemblage(np.zeros(shape))
    with pytest.raises(InputError, match="^assemblage blocks must be one numeric array"):
        Assemblage([[np.eye(2) / 2, np.zeros((3, 3))]])


@pytest.mark.parametrize(
    "effects, problem",
    [
        ((np.eye(2) / 2, _SKEW), "is not Hermitian"),
        ((np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])), "is not positive semidefinite"),
    ],
    ids=["not-hermitian", "not-psd"],
)
def test_povm_errors_name_a_later_effect(effects, problem):
    with pytest.raises(InputError, match=f"^POVM 'm' effect 1 {problem}"):
        Povm(label="m", effects=effects)


def _two_setting_blocks():
    """Settings x = 0, 1; x = 1 has block (1, 0) = diag(0.6, -0.1), not PSD."""
    return np.array([
        [np.eye(2) / 4, np.eye(2) / 4],
        [np.diag([0.6, -0.1]), np.diag([-0.1, 0.6])],
    ], dtype=complex)


def test_assemblage_error_names_the_first_block_that_is_not_psd():
    with pytest.raises(InputError, match=r"^assemblage block \(x=1, a=0\) is not positive semidefinite$"):
        Assemblage(_two_setting_blocks())


def test_stacked_checks_run_in_order_over_every_block():
    # a later non-finite block is reported before an earlier non-PSD one,
    # and a later non-Hermitian block before it too
    blocks = _two_setting_blocks()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks[1, 1] = np.diag([np.nan, 0.6])
        with pytest.raises(InputError, match=r"^assemblage block \(x=1, a=1\) has non-finite entries"):
            Assemblage(blocks)
    blocks[1, 1] = _SKEW
    with pytest.raises(InputError, match=r"^assemblage block \(x=1, a=1\) is not Hermitian"):
        Assemblage(blocks)


def test_blocks_and_effects_are_read_only():
    povm = pauli_povm("z")
    asm = assemblage_from_povms(singlet(), [povm, pauli_povm("x")])
    assert asm.blocks.shape == (2, 2, 2, 2)
    for arr in (asm.blocks, asm.block(0, 0), asm.block(1, 1), povm.effects[0]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0
    with pytest.raises(AttributeError):
        asm.blocks = np.zeros((2, 2, 2, 2))


def test_assemblage_copies_its_input():
    blocks = np.array([[np.eye(2) / 2, np.zeros((2, 2))]])
    effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    asm = Assemblage(blocks)
    povm = Povm(label="z", effects=effects)
    blocks[0, 0, 0, 0] = 7.0  # the caller's arrays stay writeable
    effects[0][0, 0] = 7.0
    assert asm.prob(0, 0) == 1.0 and povm.effects[0][0, 0] == 1.0


def test_instrument_assemblage_is_the_povm_assemblage_on_induced_effects():
    for _ in range(5):
        rho = random_state(RNG, 4)
        kraus = tuple(random_kraus_split(RNG, e, pieces=int(RNG.integers(1, 4))) for e in random_povm_pair(RNG))
        induced = tuple(sum(linalg.dag(k) @ k for k in ks) for ks in kraus)
        a1 = assemblage_from_povms(rho, [povm_from_kraus("m", kraus)])
        a2 = assemblage_from_povms(rho, [Povm(label="m", effects=induced)])
        assert np.array_equal(a1.blocks, a2.blocks)


def test_state_of_the_wrong_dimension_is_rejected():
    # a qubit Alice makes a 6x6 state qubit-qutrit, so only the file's
    # declared dimB = 2 rules it out
    doc = {**_QUBITS, "state": {"kind": "explicit", "matrix": matrix_to_json(np.eye(6) / 6)}}
    with pytest.raises(InputError, match=r"^state has shape \(6, 6\), expected \(4, 4\)"):
        load_scenario(doc)
    with pytest.raises(InputError, match=r"^state has shape \(5, 5\), expected \(4, 4\)"):
        assemblage_from_povms(np.eye(5) / 5, [pauli_povm("z")])
    asm = assemblage_from_povms(np.eye(6) / 6, [pauli_povm("z")])
    assert asm.dim_b == 3

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson_kit import (
    StateVector,
    SuiteConfig,
    TruncationAccuracyError,
    asymptotics_csv,
    basis_state,
    coherent_density,
    coherent_state,
    expectation,
    identity_operator,
    ladder,
    make_space,
    mixture_density,
    phase_asymptotics,
    phase_pair,
    pure_density,
    shift_expectation_matrix,
    shift_expectation_series,
    thermal_density,
)
from qboson_kit.densities import poisson_probability


# -- mixtures -----------------------------------------------------------------

def test_pure_density_is_idempotent():
    space = make_space([5])
    rho = pure_density(basis_state(space, [2]))
    m = rho.op.toarray()
    assert np.max(np.abs(m @ m - m)) <= 1e-12


def test_equal_mixture_eigenvalues():
    space = make_space([3])
    rho = mixture_density([basis_state(space, [0]), basis_state(space, [1])],
                          [0.5, 0.5])
    assert abs(rho.op.trace() - 1.0) < 1e-12
    eigs = np.linalg.eigvalsh(rho.op.toarray())
    np.testing.assert_allclose(sorted(eigs)[-2:], [0.5, 0.5], atol=1e-12)


def test_mixture_probability_validation():
    space = make_space([3])
    states = [basis_state(space, [0]), basis_state(space, [1])]
    with pytest.raises(ValueError):
        mixture_density(states, [0.6, 0.6])
    with pytest.raises(ValueError):
        mixture_density(states, [1.0])
    with pytest.raises(ValueError):
        mixture_density(states, [-0.5, 1.5])


def test_mixture_rejects_a_nan_probability():
    """nan fails every comparison, so a guard written as p < 0 lets it through."""
    space = make_space([3])
    states = [basis_state(space, [0]), basis_state(space, [1])]
    with pytest.raises(ValueError, match="nonnegative"):
        mixture_density(states, [0.5, float("nan")])


@pytest.mark.parametrize("build,message", [
    (lambda: mixture_density([], []), "at least one state is required"),
    (lambda: mixture_density([basis_state(make_space([2]), [0]),
                              basis_state(make_space([3]), [0])], [0.5, 0.5]),
     "all states must live on the same space"),
    (lambda: thermal_density(make_space([4, 2, 2]), 1, 0.5, other_levels=[1]),
     "expected 2 other-mode levels, got 1"),
], ids=["no-state", "two-spaces", "other-levels"])
def test_density_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_mixture_rejects_unnormalized_state():
    space = make_space([3])
    bad = basis_state(space, [1])
    bad = type(bad)(space, 2.0 * bad.amplitudes)
    with pytest.raises(ValueError):
        mixture_density([bad], [1.0])


def _dense_mixture(states, probs):
    """Reference: sum_R P_R |R><R| accumulated as a dense dim^2 array."""
    dim = states[0].space.dimension
    dense = np.zeros((dim, dim), dtype=complex)
    for state, weight in zip(states, probs):
        dense += weight * np.outer(state.amplitudes, state.amplitudes.conjugate())
    return dense


def _normalized(space, amplitudes):
    amps = np.asarray(amplitudes, dtype=complex)
    return StateVector(space, amps / np.linalg.norm(amps))


def test_sparse_density_matches_dense_reference():
    space = make_space([5])
    pure = [basis_state(space, [3])]
    # Overlapping supports {0, 1, 2}, {1, 2, 4} and {2, 3, 4}.
    mixed = [_normalized(space, [1, 2j, -1, 0, 0, 0]),
             _normalized(space, [0, 1, 0.5, 0, 1 - 1j, 0]),
             _normalized(space, [0, 0, 3, 1j, -2, 0])]
    probs = [0.2, 0.5, 0.3]
    for states, p in ((pure, [1.0]), (mixed, probs)):
        np.testing.assert_array_equal(mixture_density(states, p).op.toarray(),
                                      _dense_mixture(states, p))
    rho = coherent_density(space, 1, 0.8 + 0.3j)
    np.testing.assert_array_equal(
        rho.op.toarray(), _dense_mixture([coherent_state(space, 1, 0.8 + 0.3j)], [1.0]))


def test_pure_number_state_density_stores_one_entry():
    space = make_space([400, 8])
    state = basis_state(space, [250, 3])
    tracemalloc.start()
    try:
        rho = pure_density(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < space.dimension ** 2 * 16 // 100
    assert len(rho.op.entries()[2]) == 1
    k = space.flat_index([250, 3])
    assert rho.op.diagonal()[k] == 1.0



def test_mixture_density_stores_one_diagonal_per_support_offset():
    space = make_space([12, 3])
    assert list(pure_density(basis_state(space, [5, 2])).op.diagonals) == [0]
    one_mode = make_space([12])
    rho = coherent_density(one_mode, 1, 1.1 - 0.4j)
    assert sorted(rho.op.diagonals) == list(range(-12, 13))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=4))
def test_mixture_trace_one_property(raw):
    probs = [w / sum(raw) for w in raw]
    space = make_space([4])
    states = [basis_state(space, [k % 5]) for k in range(len(probs))]
    rho = mixture_density(states, probs)
    assert abs(rho.op.trace() - 1.0) < 1e-10
    eigs = np.linalg.eigvalsh(rho.op.toarray())
    assert eigs.min() >= -1e-12


# -- thermal ------------------------------------------------------------------

def _q_squared_at(epsilon0, kT):
    return SuiteConfig(suite="thermal", epsilon0=epsilon0, kT=kT).resolved_q_squared()


def test_thermal_params_consistency():
    assert _q_squared_at(1.0, 1.4426950408889634) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError, match=r"q_squared must lie in \(0, 1\), got 1.5"):
        thermal_density(make_space([4]), 1, 1.5)


def test_temperature_map_monotonic():
    qs = [_q_squared_at(1.0, kt) for kt in (0.5, 1.0, 2.0, 5.0)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_thermal_closed_forms_q_half():
    space = make_space([80])
    rho = thermal_density(space, 1, 0.5)
    t = ladder(space, 1)
    assert expectation(rho, t.raise_ @ t.lower).real == pytest.approx(1.0, abs=1e-10)
    assert expectation(rho, t.lower @ t.raise_).real == pytest.approx(2.0, abs=1e-10)
    pair = phase_pair(space, 1)
    assert expectation(rho, pair.raise_ @ pair.lower).real == pytest.approx(0.5, abs=1e-10)
    assert expectation(rho, pair.lower @ pair.raise_).real == pytest.approx(1.0, abs=1e-10)


def test_thermal_tail_mass_recorded():
    space = make_space([10])
    rho = thermal_density(space, 1, 0.5)
    assert rho.tail_mass == pytest.approx(0.5 ** 11, rel=1e-12)
    assert abs(rho.op.trace() - 1.0) < 1e-12


def test_thermal_rejects_bad_q():
    with pytest.raises(ValueError, match=r"q_squared must lie in \(0, 1\), got 0.0"):
        thermal_density(make_space([4]), 1, 0.0)


def test_thermal_on_two_mode_space_pins_other_mode():
    space = make_space([30, 3])
    rho = thermal_density(space, 1, 0.5, other_levels=[2])
    # expectation of the mode-2 occupation projector at level 2 is 1
    from qboson_kit import number_state_projector

    assert expectation(rho, number_state_projector(space, 2, 2)).real == pytest.approx(1.0)
    assert expectation(rho, number_state_projector(space, 2, 0)).real == pytest.approx(0.0)
    with pytest.raises(ValueError, match=r"level 4 outside \[0, 3\] for mode 2"):
        thermal_density(space, 1, 0.5, other_levels=[4])


@pytest.mark.parametrize("cutoffs,mode,levels", [([30], 1, []), ([30, 3], 1, [2]),
                                                  ([2, 12, 3], 2, [1, 0]), ([3, 2, 8], 3, [0, 2])])
def test_thermal_weights_match_the_occupation_table_gather_bit_for_bit(cutoffs, mode, levels):
    space = make_space(cutoffs)
    q2, k = 0.3, mode - 1
    occ = np.indices(space.shape).reshape(space.mode_count, -1).T
    weights = (1.0 - q2) * q2 ** np.arange(cutoffs[k] + 1) / (1.0 - q2 ** (cutoffs[k] + 1))
    reference = weights[occ[:, k]].astype(complex)
    for j, lvl in zip([j for j in range(space.mode_count) if j != k], levels):
        reference = reference * (occ[:, j] == lvl)
    rho = thermal_density(space, mode, q2, other_levels=levels)
    assert rho.op.diagonal().tobytes() == reference.tobytes()


# -- coherent -----------------------------------------------------------------

def test_coherent_zero_is_vacuum():
    space = make_space([10])
    state = coherent_state(space, 1, 0.0)
    np.testing.assert_array_equal(state.amplitudes, basis_state(space, [0]).amplitudes)


def test_coherent_poisson_weight_n2():
    # |<2|z>|^2 at |z|^2 = 1 equals exp(-1)/2, from the Poisson law directly
    space = make_space([40])
    state = coherent_state(space, 1, 1.0)
    got = abs(state.amplitudes[space.flat_index([2])]) ** 2
    assert got == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)
    assert got == pytest.approx(poisson_probability(1.0, 2), abs=1e-12)


def test_coherent_eigenvector_residual():
    space = make_space([60])
    t = ladder(space, 1)
    z = 2.0
    state = coherent_state(space, 1, z)
    residual = np.linalg.norm(t.lower.apply(state).amplitudes - z * state.amplitudes)
    assert residual < 1e-8
    mean_n = state.inner(t.number.apply(state)).real
    assert mean_n == pytest.approx(4.0, abs=1e-8)


def test_coherent_density_expectation():
    space = make_space([60])
    rho = __import__("qboson_kit").coherent_density(space, 1, 2.0)
    t = ladder(space, 1)
    assert expectation(rho, t.number).real == pytest.approx(4.0, abs=1e-8)
    assert rho.tail_mass < 1e-8


@pytest.mark.parametrize("cutoff,z", [(10, 0.1), (10, 3.0j), (60, 4 * np.exp(1j)),
                                      (100, 12.0), (600, -7.5), (25, 0.5 - 2j),
                                      (10, 100.0)])
def test_coherent_tail_mass_is_the_poisson_survival_function(cutoff, z):
    """The in-package tail sum against a 50-digit reference, the regularized lower
    incomplete gamma P(cutoff + 1, |z|^2), to 1e-12 relative (0 absolute)."""
    import mpmath

    rho = coherent_density(make_space([cutoff]), 1, z, intensity_limit=math.inf)
    with mpmath.workdps(50):
        reference = mpmath.gammainc(cutoff + 1, 0, abs(z) ** 2, regularized=True)
    assert rho.tail_mass == pytest.approx(float(reference), rel=1e-12, abs=0.0)


def test_thermal_product_density_with_pure_pin():
    space = make_space([40, 4])
    rho = thermal_density(space, 1, 0.5, other_levels=[2])
    from qboson_kit import number_state_projector

    assert expectation(rho, number_state_projector(space, 2, 2)).real == pytest.approx(1.0)
    t1 = ladder(space, 1)
    # occupation-weighted truncation error is ~(cutoff+1) * tail
    assert expectation(rho, t1.raise_ @ t1.lower).real == pytest.approx(
        1.0, abs=41 * 2 * rho.tail_mass)


def test_coherent_guard():
    space = make_space([16])
    with pytest.raises(TruncationAccuracyError):
        coherent_state(space, 1, 3.0)  # |z|^2 = 9 > 16/4
    coherent_state(space, 1, 3.0, intensity_limit=math.inf)  # override allowed


def _coherent_amplitudes_elementwise(space, mode, z):
    """The recurrence on array elements and the embedding by occupation lookup, as
    coherent_state computed them before it ran on scalars: the reference for its bits."""
    k, cutoff = mode - 1, space.cutoffs[mode - 1]
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    for n in range(cutoff):
        amps[n + 1] = amps[n] * z / math.sqrt(n + 1)
    amps /= np.linalg.norm(amps)
    full = np.zeros(space.dimension, dtype=complex)
    occ = np.indices(space.shape).reshape(space.mode_count, -1).T
    rest = np.all(np.delete(occ, k, axis=1) == 0, axis=1)
    full[rest] = amps[occ[rest, k]]
    return full


@pytest.mark.parametrize("z", [1, 2, 2j, -2.2, 3 + 4j, 0.7 - 1.3j, 12,
                               complex(-0.0, -0.0), complex(4, -0.0), 5e-324, 1e-3, -4.0])
@pytest.mark.parametrize("cutoffs,mode", [([16], 1), ([60], 1), ([600], 1), ([2000], 1),
                                          ([40, 3], 1), ([2, 40], 2), ([2, 24, 3], 2)])
def test_coherent_amplitudes_match_the_elementwise_recurrence_bit_for_bit(z, cutoffs, mode):
    space = make_space(cutoffs)
    got = coherent_state(space, mode, complex(z), intensity_limit=math.inf).amplitudes
    want = _coherent_amplitudes_elementwise(space, mode, complex(z))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# -- shift-expectation asymptotics ---------------------------------------------

def test_series_matches_matrix_expectation():
    space = make_space([200])
    for z in (2.0, 4.0, 1.5 + 1.0j):
        series = shift_expectation_series(z)
        matrix = shift_expectation_matrix(space, 1, z)
        assert abs(series - matrix) < 1e-12


def test_asymptotics_rows():
    rows = phase_asymptotics([4.0, 6.0], cutoff=600)
    for row in rows:
        assert abs(row.leading) == pytest.approx(1.0, abs=1e-14)
        assert row.abs_error < abs(row.exact - row.leading)
    assert rows[1].abs_error < rows[0].abs_error


def test_asymptotics_real_z_gives_real_exact():
    row = phase_asymptotics([5.0], cutoff=600)[0]
    assert row.exact.imag == 0.0


def test_asymptotics_validation():
    with pytest.raises(ValueError):
        phase_asymptotics([0.5], cutoff=600)
    with pytest.raises(TruncationAccuracyError):
        phase_asymptotics([10.0], cutoff=100)


def test_asymptotics_csv_format():
    rows = phase_asymptotics([4.0], cutoff=600)
    text = asymptotics_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ("z_re,z_im,exact_re,exact_im,leading_re,leading_im,"
                        "corr_re,corr_im,abs_err")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 9
    assert float(fields[0]) == 4.0


def test_large_amplitude_modulus_approaches_one():
    rows = phase_asymptotics([20.0], cutoff=1600)
    assert abs(rows[0].exact) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [50.0, 30.0j])
def test_coherent_state_refuses_overflowing_amplitudes(z):
    """At |z| = 50, z^n / sqrt(n!) passes 1e308 near n = 2500; at |z| = 30 the
    amplitudes stay finite but their squared norm does not.  Both are refused,
    with no RuntimeWarning."""
    intensity = f"{abs(z) ** 2:g}"
    with pytest.raises(TruncationAccuracyError, match=rf"\|z\|\^2 = {intensity} for cutoff 5000"):
        coherent_state(make_space([5000]), 1, z, intensity_limit=math.inf)

"""Projector arithmetic: construction, partial operations, Born rule."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcert.errors import (
    BackendMismatch,
    DimensionMismatch,
    Incompatible,
    NotADensityMatrix,
    NotAProjector,
    ZeroVector,
)
from ctxcert.linalg import (
    DensityMatrix,
    ExactMatrix,
    FloatMatrix,
    Projector,
    _psd_within,
    commutes,
    complement,
    identity_projector,
    join,
    leq,
    meet,
    orthogonal,
    projector_from_vector,
    quantum_state_eval,
    zero_projector,
)


def basis_vec(i, d):
    return [1 if j == i else 0 for j in range(d)]


def test_projector_from_standard_basis_vector():
    p = projector_from_vector([1, 0, 0, 0])
    assert p.rank == 1
    assert p.mat.entry(0, 0) == (Fraction(1), Fraction(0))
    for i in range(4):
        for j in range(4):
            if (i, j) != (0, 0):
                assert p.mat.entry(i, j) == (Fraction(0), Fraction(0))


def test_projector_from_unnormalized_vector():
    # (0,0,1,1): entries 1/2 on the lower-right block, computed by hand.
    p = projector_from_vector([0, 0, 1, 1])
    half = Fraction(1, 2)
    for i, j in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert p.mat.entry(i, j) == (half, Fraction(0))
    assert p.mat.entry(0, 0) == (Fraction(0), Fraction(0))
    assert p.rank == 1


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        projector_from_vector([0, 0, 0, 0])
    with pytest.raises(ZeroVector):
        projector_from_vector([0.0, 0.0], backend="float")


def test_short_float_ray_is_the_same_ray():
    """Only the zero vector is refused: a ray of length 1e-5 gives the
    projector of its unit vector."""
    short = projector_from_vector([1e-5, 0, 0], backend="float")
    unit = projector_from_vector([1, 0, 0], backend="float")
    assert short.mat.entries == unit.mat.entries and short.rank == 1
    with pytest.raises(ZeroVector):
        projector_from_vector([0.0, 0.0, 0.0], backend="float")


@pytest.mark.parametrize("scale", [1e-200, 1e200, -1e-200, 1e-200j])
def test_float_ray_whose_squared_norm_under_or_overflows_is_its_unit_ray(scale):
    """The squared norm of (1e-200, 0) underflows to 0 and that of (1e200, 0)
    overflows; both are rescaled by their largest entry first."""
    for entries, unit in (([scale, 0], [1, 0]), ([0, scale, 0], [0, 1, 0])):
        p = projector_from_vector(entries, backend="float")
        want = projector_from_vector(unit, backend="float")
        assert p.mat.entries == want.mat.entries and p.rank == 1
    with pytest.raises(ZeroVector):
        projector_from_vector([0.0, 0.0], backend="float")


def test_float_projector_bits_are_kept_when_the_norm_is_representable():
    """No rescale where the squared norm neither underflows nor overflows, so
    a projector keeps the bits of v v* / <v, v>."""
    for vec in ([3.0, 4.0], [0.1, 0.2j, 0.3], [1e-150, 2e-150], [1e150, 3e150]):
        norm = sum(abs(x) ** 2 for x in vec)
        want = tuple(complex(x) * complex(y).conjugate() / norm for x in vec for y in vec)
        assert projector_from_vector(vec, backend="float").mat.entries == want


_tol_offsets = st.sampled_from([0.0, 0.0, 1e-10, 5e-10, 2e-9, 1e-6])
_float_entries = st.builds(
    complex, st.sampled_from([0.0, 1.0, -0.5, 0.25, 3.0]), st.sampled_from([0.0, 0.0, 1.0, -2.0])
)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(_float_entries, min_size=d * d, max_size=d * d),
        st.lists(st.tuples(_tol_offsets, _tol_offsets), min_size=d * d, max_size=d * d),
        st.booleans(),
    )
))
@settings(max_examples=300, deadline=None)
def test_float_is_hermitian_matches_explicit_conjugate_transpose(case):
    """``is_hermitian`` against ``approx_equal`` with A^dagger built here,
    on matrices that are Hermitian up to offsets around tol = 1e-9."""
    d, entries, offsets, hermitize = case
    if hermitize:
        entries = [
            entries[i * d + j] if i <= j else entries[j * d + i].conjugate()
            for i in range(d)
            for j in range(d)
        ]
    entries = tuple(z + complex(*off) for z, off in zip(entries, offsets))
    a = FloatMatrix(d, entries, 1e-9)
    dagger = FloatMatrix(
        d, tuple(entries[j * d + i].conjugate() for i in range(d) for j in range(d)), 1e-9
    )
    assert a.is_hermitian() == a.approx_equal(dagger)


def test_float_relations_fail_on_nan():
    """An entrywise comparison within tol is false on NaN, wherever the NaN
    stands (a max over the differences would skip a trailing one)."""
    nan = FloatMatrix(2, (0j, 0j, 0j, complex(float("nan"), 0)))
    assert not nan.is_hermitian()
    assert not nan.approx_equal(nan)
    with pytest.raises(NotAProjector):
        projector_from_vector([float("nan"), 1.0], backend="float")


def test_complex_rational_vector_stays_rational():
    p = projector_from_vector([(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(0))])
    # norm is 1 + 1 + 1/4 = 9/4; all entries rational.
    assert p.rank == 1
    re, im = p.mat.entry(0, 0)
    assert re == Fraction(8, 9) and im == 0


def test_commutes_orthogonal_pair():
    p = projector_from_vector(basis_vec(0, 4))
    q = projector_from_vector(basis_vec(1, 4))
    assert commutes(p, q)
    assert orthogonal(p, q)


def test_commutes_skew_pair_false():
    p = projector_from_vector([1, 0, 0])
    q = projector_from_vector([1, 1, 0])
    assert not commutes(p, q)


def test_commutes_with_own_complement():
    p = projector_from_vector([1, 2, 2])
    assert commutes(p, complement(p))


def test_dimension_and_backend_mismatch():
    p = projector_from_vector([1, 0])
    q = projector_from_vector([1, 0, 0])
    with pytest.raises(DimensionMismatch):
        commutes(p, q)
    r = projector_from_vector([1.0, 0.0], backend="float")
    with pytest.raises(BackendMismatch):
        commutes(p, r)


def test_meet_join_orthogonal_sum():
    p = projector_from_vector(basis_vec(0, 4))
    q = projector_from_vector(basis_vec(1, 4))
    j = join(p, q)
    assert j.rank == 2
    assert j.mat.entry(0, 0)[0] == 1 and j.mat.entry(1, 1)[0] == 1
    assert meet(p, q).is_zero()


def test_meet_incompatible_raises():
    p = projector_from_vector([1, 0, 0])
    q = projector_from_vector([1, 1, 0])
    with pytest.raises(Incompatible):
        meet(p, q)
    with pytest.raises(Incompatible):
        join(p, q)


def test_lattice_identities():
    p = projector_from_vector([1, 2, 0, -1])
    assert complement(complement(p)) == p
    assert meet(p, p) == p
    assert join(p, complement(p)).is_identity()


def _random_exact_context(rng, d=4):
    """A commuting family: diagonal projectors over a random 0/1 pattern."""
    rows_p = [[1 if (i == j and rng.random() < 0.5) else 0 for j in range(d)] for i in range(d)]
    rows_q = [[1 if (i == j and rng.random() < 0.5) else 0 for j in range(d)] for i in range(d)]
    return Projector(ExactMatrix.from_entries(rows_p)), Projector(ExactMatrix.from_entries(rows_q))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_de_morgan_on_commuting_pairs(seed):
    rng = random.Random(seed)
    p, q = _random_exact_context(rng)
    assert join(p, q) == complement(meet(complement(p), complement(q)))


def test_projector_validation_rejects_non_idempotent():
    bad = ExactMatrix.from_entries([[Fraction(1, 2), 0], [0, 0]])
    with pytest.raises(NotAProjector):
        Projector(bad)


def test_leq_on_nested_projectors():
    p = projector_from_vector(basis_vec(0, 4))
    q = join(p, projector_from_vector(basis_vec(1, 4)))
    assert leq(p, q)
    assert not leq(q, p)


# -- density matrices and the Born rule --------------------------------------


def test_density_validation():
    with pytest.raises(NotADensityMatrix):
        DensityMatrix(ExactMatrix.from_entries([[1, 0], [0, 1]]))  # trace 2
    with pytest.raises(NotADensityMatrix):
        DensityMatrix(ExactMatrix.from_entries([[2, 0], [0, -1]]))  # not PSD
    DensityMatrix(ExactMatrix.from_entries([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))


def test_quantum_state_eval_pure_state():
    rho = DensityMatrix.from_pure_vector([0, 0, 1])
    p = projector_from_vector([0, 0, 1])
    assert quantum_state_eval(rho, p) == 1


def test_quantum_state_eval_maximally_mixed():
    rho = DensityMatrix.maximally_mixed(3)
    p = projector_from_vector([2, -1, 1])
    assert quantum_state_eval(rho, p) == Fraction(1, 3)


def test_quantum_state_eval_kcbs_single_ray():
    # One pentagon ray against the apex state gives 1/sqrt(5).
    t = math.sqrt(math.cos(math.pi / 5))
    p = projector_from_vector([1.0, 0.0, t], backend="float")
    rho = DensityMatrix.from_pure_vector([0.0, 0.0, 1.0], backend="float")
    value = quantum_state_eval(rho, p)
    assert abs(value - 1 / math.sqrt(5)) < 1e-9


def _ref_born(rho, p) -> Fraction:
    """tr(rho P) as a double loop over the entries; its imaginary part is 0."""
    d = p.dim
    re = im = Fraction(0)
    for i in range(d):
        for j in range(d):
            ar, ai = rho.mat.entry(i, j)
            br, bi = p.mat.entry(j, i)
            re += ar * br - ai * bi
            im += ar * bi + ai * br
    assert im == 0
    return re


def test_exact_born_rule_matches_double_loop_on_complex_states():
    rng = random.Random(11)
    d = 3

    def gaussian_vector():
        while True:
            v = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
            if any(x != (0, 0) for x in v):
                return v

    complex_pairs = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        weights = [rng.randint(1, 5) for _ in range(k)]
        rho = DensityMatrix.mixture(
            [Fraction(w, sum(weights)) for w in weights],
            [DensityMatrix.from_pure_vector(gaussian_vector()) for _ in range(k)],
        )
        u = projector_from_vector(gaussian_vector())
        real = projector_from_vector([rng.randint(-3, 3) for _ in range(d - 1)] + [1])
        for p in (u, complement(u), real, zero_projector(d), identity_projector(d)):
            assert quantum_state_eval(rho, p) == _ref_born(rho, p)
        complex_pairs += rho.mat.im is not None and u.mat.im is not None
        real_rho = DensityMatrix.maximally_mixed(d)
        assert quantum_state_eval(real_rho, u) == _ref_born(real_rho, u) == Fraction(1, d)
    assert complex_pairs >= 30


def _random_density(rng, d, backend):
    vecs = []
    for _ in range(d):
        if backend == "exact":
            vecs.append([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)])
        else:
            vecs.append([rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(d)])
    weights = [rng.randint(1, 5) for _ in range(d)]
    total = sum(weights)
    pures = []
    final_weights = []
    for w, v in zip(weights, vecs):
        try:
            pures.append(DensityMatrix.from_pure_vector(v, backend=backend))
        except ZeroVector:
            continue
        final_weights.append(w)
    total = sum(final_weights)
    if backend == "exact":
        ws = [Fraction(w, total) for w in final_weights]
    else:
        ws = [w / total for w in final_weights]
    return DensityMatrix.mixture(ws, pures)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_born_rule_satisfies_state_axioms(backend):
    # p(0) = 0, p(not P) = 1 - p(P), and inclusion-exclusion on commuting
    # pairs, across random densities and a commuting family.
    rng = random.Random(7)
    d = 4
    tol = 0.0 if backend == "exact" else 1e-8
    for _ in range(25):
        rho = _random_density(rng, d, backend)
        zero = zero_projector(d, backend)
        one = identity_projector(d, backend)
        assert abs(quantum_state_eval(rho, zero)) <= tol
        assert abs(quantum_state_eval(rho, one) - 1) <= tol
        if backend == "exact":
            p = projector_from_vector(basis_vec(rng.randrange(d), d))
            q_raw = [[1 if (i == j and i >= 2) else 0 for j in range(d)] for i in range(d)]
            q = Projector(ExactMatrix.from_entries(q_raw))
        else:
            p = projector_from_vector([float(x) for x in basis_vec(rng.randrange(d), d)], backend="float")
            q = complement(p)
        if commutes(p, q):
            lhs = quantum_state_eval(rho, join(p, q)) + quantum_state_eval(rho, meet(p, q))
            rhs = quantum_state_eval(rho, p) + quantum_state_eval(rho, q)
            assert abs(lhs - rhs) <= 10 * tol if backend == "float" else lhs == rhs
        assert (
            abs(quantum_state_eval(rho, complement(p)) - (1 - quantum_state_eval(rho, p)))
            <= tol
        )


def test_exact_matrix_normalization_and_hash():
    a = ExactMatrix.from_entries([[Fraction(2, 4), 0], [0, Fraction(1, 2)]])
    b = ExactMatrix.from_entries([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert a == b and hash(a) == hash(b)


def _fraction_projector(entries) -> ExactMatrix:
    """v v† / <v, v> formed entry by entry in Fraction arithmetic: the formula
    ``projector_from_vector`` used before it scaled to Gaussian integers."""
    pairs = [e if isinstance(e, tuple) else (e, 0) for e in entries]
    pairs = [(Fraction(a), Fraction(b)) for a, b in pairs]
    norm = sum(a * a + b * b for a, b in pairs)
    return ExactMatrix.from_entries(
        [[((a * c + b * e) / norm, (b * c - a * e) / norm) for c, e in pairs] for a, b in pairs]
    )


_small_fractions = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=9)
)
_gaussian_entries = st.one_of(
    st.integers(min_value=-5, max_value=5),
    _small_fractions,
    st.tuples(_small_fractions, _small_fractions),
)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.lists(_gaussian_entries, min_size=d, max_size=d)
))
@settings(max_examples=200, deadline=None)
def test_integer_projector_matches_fraction_formula(entries):
    pairs = [e if isinstance(e, tuple) else (e, 0) for e in entries]
    if all(a == 0 and b == 0 for a, b in pairs):
        with pytest.raises(ZeroVector):
            projector_from_vector(entries)
        return
    got = projector_from_vector(entries).mat
    want = _fraction_projector(entries)
    assert (got.den, got.re, got.im) == (want.den, want.re, want.im)


# -- the PSD test against numpy's eigenvalues -----------------------------------


def test_float_psd_test_agrees_with_eigvalsh():
    """Random Hermitian matrices whose smallest eigenvalues lie near -tol:
    accepted when lambda_min >= -tol/2, rejected when lambda_min <= -2*tol."""
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(11)
    tol = 1e-9
    verdicts = set()
    for _ in range(400):
        d = int(rng.integers(1, 7))
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        lam = rng.uniform(0, 1, size=d)
        low = int(rng.integers(1, d + 1))
        lam[:low] = tol * rng.uniform(-4, 2, size=low)
        h = (u * lam) @ u.conj().T
        h = (h + h.conj().T) / 2
        lam_min = np.linalg.eigvalsh(h)[0]
        accepted = _psd_within(FloatMatrix.from_entries(h.tolist(), tol), tol)
        if lam_min >= -tol / 2:
            assert accepted, lam_min
            verdicts.add(True)
        elif lam_min <= -2 * tol:
            assert not accepted, lam_min
            verdicts.add(False)
    assert verdicts == {True, False}


def test_exact_psd_test_agrees_with_eigvalsh():
    """Gaussian-integer Gram matrices, often singular, are PSD; shifted by
    -1/k they are PSD exactly when eigvalsh says so (away from zero)."""
    np = pytest.importorskip("numpy")
    rng = random.Random(3)
    for _ in range(300):
        d = rng.randint(1, 5)
        vecs = [
            [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
            for _ in range(rng.randint(1, d))
        ]
        gram = [[sum(v[i] * v[j].conjugate() for v in vecs) for j in range(d)] for i in range(d)]
        shift = rng.choice([0, Fraction(-1, rng.randint(1, 60))])
        rows = [
            [(int(z.real) + (shift if i == j else 0), int(z.imag)) for j, z in enumerate(row)]
            for i, row in enumerate(gram)
        ]
        accepted = _psd_within(ExactMatrix.from_entries(rows), 0)
        lam_min = np.linalg.eigvalsh(np.array(gram) + float(shift) * np.eye(d))[0]
        if shift == 0:
            assert accepted
        elif abs(lam_min) > 1e-9:
            assert accepted == (lam_min > 0), lam_min

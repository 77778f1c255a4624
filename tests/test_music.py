"""Root-MUSIC against hand linear algebra, a dense grid-search oracle, the
companion-matrix path it replaced and the Horner-rule Newton loop."""
import csv
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsense import clutter as cl
from mtsense import echo as ec
from mtsense import experiments as ex
from mtsense import music as mu
from mtsense.scene import Scene, Target, frequencies_target


def tone_snapshots(psi, m, n_snap, sign=+1, noise=0.0, seed=0, amp=1.0):
    """(1, M, I) snapshot stack of a single complex tone with random
    per-snapshot phases."""
    rng = np.random.default_rng(seed)
    k = np.arange(m)[:, None]
    phases = np.exp(2j * np.pi * rng.random(n_snap))[None, :]
    data = amp * np.exp(sign * 2j * np.pi * psi * k) * phases
    if noise > 0.0:
        data = data + np.sqrt(noise / 2) * (
            rng.standard_normal((m, n_snap)) + 1j * rng.standard_normal((m, n_snap)))
    return data[None]


def tones_in_noise(rng, n, m, i, db):
    """(n, M, I) snapshot stack: per row, a tone of random frequency at an
    amplitude 10^(x/20), x uniform in db = (low, high), with random snapshot
    phases, in noise of unit variance per real and imaginary part."""
    data = rng.standard_normal((n, m, i)) + 1j * rng.standard_normal((n, m, i))
    tones = np.exp(2j * np.pi * rng.uniform(-0.5, 0.5, (n, 1, 1)) * np.arange(m)[:, None])
    return data + 10.0 ** rng.uniform(db[0] / 20, db[1] / 20, (n, 1, 1)) * tones * np.exp(
        2j * np.pi * rng.random((n, 1, i)))


def sample_cov(data):
    """(n, M, M) sample covariances S S^H / I of an (n, M, I) snapshot stack;
    non-finite data warns nothing."""
    with np.errstate(invalid="ignore", over="ignore"):
        return data @ data.conj().swapaxes(-1, -2) / data.shape[-1]


def noise_subspace(data):
    """(n, M, M-1) eigenvectors of the M-1 smallest eigenvalues of each sample
    covariance of an (n, M, I) snapshot stack: the noise subspace of one
    source, whose projector the library forms from the signal eigenvector."""
    return np.linalg.eigh(sample_cov(data))[1][..., : data.shape[-2] - 1]


# ---------------------------------------------------------------------------
# oracle 1: hand eigendecomposition. C = I + ones(3,3) has eigenvalues
# (1, 1, 4), top eigenvector (1,1,1)/sqrt(3), so the noise-subspace projector
# is exactly I - ones/3: its diagonals sum to -1/3, -2/3, 2, -2/3, -1/3.

def test_noise_subspace_hand_oracle():
    cov = (np.eye(3) + np.ones((3, 3))).astype(complex)[None]
    coeffs, _ = mu._null_polynomial(cov)
    assert np.allclose(coeffs[0], [-1 / 3, -2 / 3, 2, -2 / 3, -1 / 3], rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("error")      # the ValueError, and no RuntimeWarning before it
def test_noise_subspace_rejects_nonfinite():
    for bad in (np.inf, np.nan, 1e200):     # 1e200 overflows in the covariance
        cubes = np.ones((1, 3, 4, 2), dtype=complex)
        cubes[0, 1, 2, 1] = bad
        for cov, sign in zip(mu.covariances(cubes), mu._SIGNS):
            with pytest.raises(ValueError, match="non-finite"):
                mu.root_music_frequency(cov, sign)


def test_snapshot_matrix_validation():
    # a cube stack with an axis of one entry, and a sign that is neither +1
    # nor -1
    for shape in ((2, 1, 5, 3), (2, 5, 1, 3), (2, 5, 3, 1)):
        with pytest.raises(ValueError, match=">= 2 entries"):
            mu.covariances(np.ones(shape, dtype=complex))
    with pytest.raises(ValueError):
        mu.root_music_frequency(np.ones((1, 3, 3), dtype=complex), 2)


# ---------------------------------------------------------------------------
# oracle 2: dense grid search of the MUSIC pseudospectrum. Independent of the
# polynomial rooting path; shares only the covariance/eigh step.

def grid_music(f, step=1e-4):
    vn = noise_subspace(f)[0]
    proj = vn @ vn.conj().T
    m = proj.shape[0]
    grid = np.arange(-0.5 + step, 0.5 + step / 2, step)
    k = np.arange(m)[:, None]
    steer = np.exp(2j * np.pi * k * grid[None, :])
    null = np.einsum("ki,kl,li->i", steer.conj(), proj, steer).real
    return float(grid[np.argmin(null)])


def test_root_matches_grid_search():
    for trial in range(10):
        rng = np.random.default_rng(100 + trial)
        psi = float(rng.uniform(-0.45, 0.45))
        f = tone_snapshots(psi, m=8, n_snap=64, noise=0.01, seed=200 + trial)
        (psi_root,) = mu.root_music_frequency(sample_cov(f), +1)
        psi_grid = grid_music(f, step=1e-4)
        assert abs(psi_root - psi_grid) < 1e-3
        assert abs(psi_root - psi) < 1e-3


def test_exact_tone_recovery_both_signs():
    psi = 0.2173
    f_pos = tone_snapshots(psi, m=6, n_snap=32, sign=+1, seed=5)
    assert mu.root_music_frequency(sample_cov(f_pos), +1) == pytest.approx([psi], abs=1e-8)
    # range-style data e^{-j2pi l psi} with sign=-1 must recover +psi
    f_neg = tone_snapshots(psi, m=6, n_snap=32, sign=-1, seed=6)
    assert mu.root_music_frequency(sample_cov(f_neg), -1) == pytest.approx([psi], abs=1e-8)
    f_negpsi = tone_snapshots(-0.31, m=6, n_snap=32, sign=+1, seed=7)
    assert mu.root_music_frequency(sample_cov(f_negpsi), +1) == pytest.approx([-0.31], abs=1e-8)


def test_half_cycle_stays_in_range():
    # a tone at the Nyquist edge alternates sign; +0.5 and -0.5 are the same
    # frequency, so check closeness on the circle and the documented interval
    f = tone_snapshots(0.5, m=6, n_snap=32, seed=8)
    (psi,) = mu.root_music_frequency(sample_cov(f), +1)
    assert -0.5 < psi <= 0.5
    circ = min(abs(psi - 0.5), abs(psi + 0.5))
    assert circ < 1e-8


# ---------------------------------------------------------------------------
# oracle 3: the companion-matrix path, one covariance matrix at a time, as the
# library ran it before it searched for the one root it uses: all 2(M-1)
# roots by np.roots, their reciprocal pairs restored, and the root inside the
# circle with the largest modulus selected.

def _reciprocal_symmetrize_loop(roots):
    """Rebuild each matched pair (u, v ~ 1/conj(u)) of a root set around its
    mean so the pair is reciprocal exactly; np.roots splits (near-)double
    roots on the circle by ~sqrt(eps) in arbitrary directions. The root
    farthest off the circle takes first; unmatched roots stay as they are."""
    n = len(roots)
    if n % 2:
        return roots
    order = np.argsort(-np.abs(np.abs(roots) - 1.0))  # most off-circle first
    used = np.zeros(n, dtype=bool)
    out = []
    for i in order:
        if used[i]:
            continue
        used[i] = True
        u = roots[i]
        if u == 0 or not np.isfinite(u):
            out.append(u)
            continue
        target = 1.0 / np.conj(u)
        free = np.flatnonzero(~used)
        if free.size == 0:
            out.append(u)
            continue
        j = free[np.argmin(np.abs(roots[free] - target))]
        v = roots[j]
        if abs(v - target) > 1e-3 * (1.0 + abs(target)):
            out.append(u)
            continue
        used[j] = True
        r = math.sqrt(abs(u) / abs(v))
        phi = np.angle(u) + 0.5 * np.angle(v / u)
        zeta = r * np.exp(1j * phi)
        out.extend((zeta, 1.0 / np.conj(zeta)))
    return np.array(out)


def companion_roots(r_hat):
    """All roots of the null polynomial of one (M, M) covariance matrix."""
    m = len(r_hat)
    if not np.all(np.isfinite(r_hat)):
        raise ValueError("sample covariance has non-finite entries")
    vn = np.linalg.eigh(r_hat)[1][:, : m - 1]
    proj = vn @ vn.conj().T
    coeffs = np.array([proj.trace(k) for k in range(m - 1, -m, -1)])
    return _reciprocal_symmetrize_loop(np.roots(coeffs))


def companion_frequency(r_hat, sign):
    roots = companion_roots(r_hat)
    inside = roots[np.abs(roots) < 1.0]
    if inside.size == 0:
        raise RuntimeError("no polynomial root strictly inside the unit circle")
    mags = np.abs(inside)
    tied = inside[mags > mags.max() - 1e-12]
    psi = sign * float(np.angle(tied[np.argmax(tied.real)])) / (2.0 * math.pi)
    return psi + 1.0 if psi <= -0.5 else psi


def companion_root_music_frequency(cov, sign):
    """The oracle with the library's stacked signature."""
    return [companion_frequency(row, sign) for row in cov]


def test_roots_pair_conjugate_reciprocal():
    # the null polynomial is conjugate symmetric, so the oracle's roots off
    # the unit circle come in (z, 1/conj(z)) pairs; the library's root and
    # its image are both among them
    cov = sample_cov(tone_snapshots(0.11, m=6, n_snap=40, noise=0.05, seed=9))
    roots = companion_roots(cov[0])
    inside = roots[np.abs(roots) < 1.0 - 1e-9]
    for z in inside:
        partner = 1.0 / np.conj(z)
        assert np.min(np.abs(roots - partner)) < 1e-8
    (z,) = mu._null_root(cov)
    for w in (z, 1.0 / np.conj(z)):
        assert np.min(np.abs(roots - w)) < 1e-12


@st.composite
def _split_reciprocal_roots(draw):
    """A root multiset closed under z -> 1/conj(z), split the way np.roots
    splits it: 1 to 6 off-circle pairs and double roots on the circle, every
    root then moved by up to 1e-7 in any direction, in shuffled order."""
    roots = []
    for _ in range(draw(st.integers(1, 6))):
        u = draw(st.floats(0.2, 1.0)) * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
        roots += [u, 1.0 / np.conj(u)]          # |u| = 1: a double circle root
    jitter = draw(st.lists(st.complex_numbers(max_magnitude=1e-7),
                           min_size=len(roots), max_size=len(roots)))
    order = draw(st.permutations(range(len(roots))))
    return (np.array(roots) + np.array(jitter))[order]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_split_reciprocal_roots())
def test_reciprocal_symmetrize_closes_the_multiset(roots):
    # the oracle's pairing step
    out = _reciprocal_symmetrize_loop(roots)
    assert len(out) == len(roots)
    # each output root stays within the jitter of an input root ...
    assert max(np.min(np.abs(roots - z)) / abs(z) for z in out) <= 1e-5
    # ... and the images 1/conj(z) are the same multiset, matched one to one
    images = list(1.0 / np.conj(out))
    for z in out:
        j = int(np.argmin([abs(z - w) for w in images]))
        assert abs(z - images.pop(j)) <= 1e-12 * (1.0 + abs(z))


def test_coefficients_match_np_trace(rng):
    # noise alone: the root the library finds is a root of the polynomial
    # whose coefficients np.trace sums
    for m in (2, 5, 9, 16, 21):
        data = rng.standard_normal((m, 40)) + 1j * rng.standard_normal((m, 40))
        vn = noise_subspace(data[None])[0]
        proj = vn @ vn.conj().T
        roots = np.roots(np.array([np.trace(proj, offset=k) for k in range(m - 1, -m, -1)]))
        (z,) = mu._null_root(sample_cov(data[None]))
        assert np.min(np.abs(roots - z)) <= 1e-12 * abs(z)


@st.composite
def _snapshot_stacks(draw):
    """(n, M, I) stacks, M from 2 to 64, and which rows hold a tone in noise
    at 0 dB or more per element with I >= 8: noise, or a tone in noise, and
    rows with a zeroed first or last snapshot row, whose null polynomial then
    has zero end coefficients."""
    n, m, i = draw(st.integers(1, 5)), draw(st.integers(2, 64)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((n, m, i)) + 1j * rng.standard_normal((n, m, i))
    strong = []
    for j in range(n):
        amp = 0.0
        if draw(st.booleans()):
            tone = np.exp(2j * np.pi * rng.uniform(-0.5, 0.5) * np.arange(m))
            amp = rng.uniform(0.1, 30.0)
            data[j] += amp * np.outer(tone, np.exp(2j * np.pi * rng.random(i)))
        zeroed = draw(st.sampled_from((None, 0, -1)))
        if zeroed is not None:
            data[j, zeroed] = 0
        strong.append(amp >= 1.0 and i >= 8 and zeroed is None)
    return data, strong


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


@pytest.mark.filterwarnings("error")      # a poisoned row warns nothing
@settings(derandomize=True, deadline=None, max_examples=150)
@given(_snapshot_stacks(), st.sampled_from((-1, 1)), st.integers(-1, 4))
def test_stacked_root_music_matches_per_item(stack, sign, poisoned):
    # a matrix gets the same bytes in a stack as alone, and above threshold
    # the companion oracle's frequency; poisoned >= 0 puts a non-finite entry
    # in that row, when it exists
    data, strong = stack
    if poisoned < len(data):
        data[poisoned, 0, -1] = (np.nan, np.inf)[poisoned % 2]
        strong[poisoned] = False
    cov = sample_cov(data)
    alone = [_outcome(mu.root_music_frequency, row[None], sign) for row in cov]
    if any(isinstance(a, Exception) for a in alone):
        # the stack raises what its first failing row raises alone
        first = next(a for a in alone if isinstance(a, Exception))
        with pytest.raises(type(first), match=str(first)):
            mu.root_music_frequency(cov, sign)
        keep = [j for j, a in enumerate(alone) if not isinstance(a, Exception)]
        cov, alone, strong = cov[keep], [alone[j] for j in keep], [strong[j] for j in keep]
        if not keep:
            return
    got = mu.root_music_frequency(cov, sign)
    assert np.array(got).tobytes() == np.array([a[0] for a in alone]).tobytes()
    for psi, row, above in zip(got, cov, strong):
        if above:
            want = companion_frequency(row, sign)
            assert abs((psi - want + 0.5) % 1.0 - 0.5) <= 1e-12


def test_root_music_matches_companion_oracle_for_every_m():
    # stacks of 20 tones in noise at 0 to 30 dB per element, I from 8 to 40,
    # for each M from 2 to 21, and at 0 to 15 dB for the long polynomials of
    # M = 24 to 64 (up to 127 coefficients): within 1e-12 of the oracle, row
    # by row. The oracle's frequency for sign -1 is minus its frequency for +1
    for seed, ms, db in ((77, range(2, 22), (0.0, 30.0)), (78, (24, 32, 48, 64), (0.0, 15.0))):
        rng = np.random.default_rng(seed)
        for m in ms:
            cov = sample_cov(tones_in_noise(rng, 20, m, int(rng.integers(8, 41)), db))
            want = np.array([companion_frequency(row, +1) for row in cov])
            for sign in (-1, 1):
                got = mu.root_music_frequency(cov, sign)
                assert np.all(np.abs((got - sign * want + 0.5) % 1.0 - 0.5) <= 1e-12)


# ---------------------------------------------------------------------------
# oracle 4: the Newton loop as the library ran it before it took p, p' and the
# rounding bound as dot products with z's powers: the same seed, stop rule and
# step cap, with each polynomial evaluated by Horner's rule

def horner_null_root(cov):
    """``mu._null_root`` with p, p' and sum |c_i| |z|^i evaluated by Horner's
    rule, one coefficient at a time over the active rows."""
    coeffs, z = mu._null_polynomial(cov)
    coeffs = coeffs[:, ::-1]                  # highest power first
    rows, scale = np.arange(len(z)), np.abs(coeffs)
    for _ in range(mu.NEWTON_STEPS):
        zr, c, a = z[rows], coeffs[rows].T, scale[rows].T
        mag = np.abs(zr)
        p, dp, bound = c[0], np.zeros_like(zr), a[0]
        for ci, ai in zip(c[1:], a[1:]):
            dp = dp * zr + p
            p = p * zr + ci
            bound = bound * mag + ai
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        at_root = np.abs(p) <= np.finfo(float).eps / 2 * bound
        zr = np.where(at_root, zr, zr - step)
        z[rows] = zr
        rows = rows[~(at_root | (np.abs(step) <= mu._STEP_TOL * np.abs(zr)))]
        if rows.size == 0:
            return z
    raise mu.RootNotFound(f"{rows.size} of {len(z)} rows within {mu.NEWTON_STEPS} steps")


def test_null_root_matches_the_horner_oracle():
    # stacks of 12 tones in noise at each of 20 dB down to -35 dB per element,
    # 2M snapshots, for M = 2 to 64: the two evaluations round differently,
    # and the roots' phases may differ by 1e-13 at most
    rng = np.random.default_rng(79)
    for m in (2, 6, 16, 20, 32, 64):
        for db in (20, 10, 0, -10, -20, -30, -35):
            cov = sample_cov(tones_in_noise(rng, 12, m, 2 * m, (db, db)))
            gap = np.abs(np.angle(mu._null_root(cov) / horner_null_root(cov)))
            assert np.all(gap <= 1e-13), (m, db, gap.max())


def test_null_root_gives_up_where_the_horner_oracle_does(monkeypatch):
    # with 8 evaluations allowed, noiseless tones (a double root, which Newton
    # approaches slowly, for 20 to 27 evaluations here) and the slower of the
    # noisy rows do not settle: the same rows under both evaluations, alone
    # and in one stack. The tones lie off the seed grid: a seed on a double
    # root can pass the stop test under one rounding and not the other
    rng = np.random.default_rng(80)
    monkeypatch.setattr(mu, "NEWTON_STEPS", 8)
    for m in (6, 16, 20, 64):
        data = tones_in_noise(rng, 12, m, 2 * m, (-20.0, 20.0))
        for j, psi in enumerate((0.1037, -0.2311, 0.3719)):
            data[j] = tone_snapshots(psi, m, 2 * m, seed=j)[0]
        cov = sample_cov(data)
        fails = [[isinstance(_outcome(root, row[None]), mu.RootNotFound) for row in cov]
                 for root in (mu._null_root, horner_null_root)]
        assert fails[0] == fails[1] and 3 <= sum(fails[0]) < len(cov), fails
        for root in (mu._null_root, horner_null_root):
            with pytest.raises(mu.RootNotFound, match=f"{sum(fails[0])} of 12 "):
                root(cov)


def test_estimate_candidates_isolate_a_failing_tensor(cfg, plan):
    # one candidate's cube turns non-finite after filtering: its entry is the
    # exception it raises alone, and the others keep their stacked estimates
    rng = np.random.default_rng(5)
    filt = cl.design_butterworth_highpass(2, 0.04)
    cubes = []
    for b in (20, 21, 22):
        target = Target(theta=float(plan.directions[b]), range=3.0 + 0.1 * b, speed=2.0,
                        alpha=1.0)
        y = ec.synthesize_echo(Scene((target,), ()), plan, b, cfg, seed=int(rng.integers(99)))
        cubes.append(cl.filter_symbols(cl.normalize_by_gain(y, plan, b, cfg), filt)
                     [..., cl.default_warmup(filt):])
    cubes = np.stack(cubes)
    alone = [mu.estimate_candidate(c, b, cfg) for c, b in zip(cubes, (20, 21, 22))]
    assert mu.estimate_candidates(cubes, [20, 21, 22], cfg) == alone
    cubes[1, 0, 0, -1] = np.nan
    got = mu.estimate_candidates(cubes, [20, 21, 22], cfg)
    assert got[0] == alone[0] and got[2] == alone[2]
    assert isinstance(got[1], ValueError) and "non-finite" in str(got[1])
    with pytest.raises(ValueError, match="non-finite"):
        mu.estimate_candidate(cubes[1], 21, cfg)


def test_estimate_candidates_isolate_an_unconverged_root(cfg, monkeypatch):
    # a noiseless tone has a double root, which rounding splits, and Newton's
    # method crawls toward it: 33 evaluations for this tone's Doppler root
    # (its spatial and range frequencies lie on the seed grid, and there the
    # seed passes the stop test at once); noise cubes need at most 11 here.
    # With 15 allowed, the tone's entry is RootNotFound naming the cap, never
    # a NaN, and the noise cubes keep their full-stack estimates
    shape = (cfg.m_rx, cfg.n_sub, cfg.n_sym - 6)
    tone = np.einsum("i,j,k->ijk", *(np.exp(2j * np.pi * sign * k / (8 * n) * np.arange(n))
                                     for sign, k, n in zip(mu._SIGNS, (3, 5, 2), shape)))
    rng = np.random.default_rng(3)
    noise = rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
    cubes = np.stack([noise[0], tone, noise[1]])
    full = mu.estimate_candidates(cubes, [1, 2, 3], cfg)
    assert all(isinstance(r, mu.EstimationResult) for r in full)
    assert (full[1].psi_s_hat, full[1].psi_r_hat, full[1].psi_d_hat) == pytest.approx(
        [3 / (8 * shape[0]), 5 / (8 * shape[1]), 2 / (8 * shape[2])], abs=1e-8)
    monkeypatch.setattr(mu, "NEWTON_STEPS", 15)
    got = mu.estimate_candidates(cubes, [1, 2, 3], cfg)
    assert got[0] == full[0] and got[2] == full[2]
    assert isinstance(got[1], mu.RootNotFound) and "step cap of 15" in str(got[1])
    with pytest.raises(mu.RootNotFound):
        mu.estimate_candidate(cubes[1], 2, cfg)


def test_estimate_candidates_of_an_empty_stack(cfg):
    # no candidates: no estimates, and no reshape of a zero-size stack
    empty = np.empty((0, cfg.m_rx, cfg.n_sub, cfg.n_sym - 6), dtype=complex)
    assert mu.estimate_candidates(empty, [], cfg) == []


def test_estimate_candidates_allocate_little_beyond_the_stack(cfg):
    # the sweep's block: 12 windows of 20 symbols. Root-MUSIC needs one
    # conjugate copy of the stack and small products, about 1.36 times its bytes
    rng = np.random.default_rng(4)
    shape = (12, cfg.m_rx, cfg.n_sub, 20)
    cubes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mu.estimate_candidates(cubes, list(range(12)), cfg)
    tracemalloc.start()
    try:
        mu.estimate_candidates(cubes, list(range(12)), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * cubes.nbytes, peak / cubes.nbytes


# ---------------------------------------------------------------------------
# covariances vs a naive loop re-indexer of each axis's snapshots

def _loop_spatial(cube):
    m_rx, n_sub, n_p = cube.shape
    cols = [cube[:, l, p] for p in range(n_p) for l in range(n_sub)]
    return np.stack(cols, axis=1)


def _loop_range(cube):
    m_rx, n_sub, n_p = cube.shape
    cols = [cube[m, :, p] for p in range(n_p) for m in range(m_rx)]
    return np.stack(cols, axis=1)


def _loop_doppler(cube):
    m_rx, n_sub, n_p = cube.shape
    cols = [cube[m, l, :] for l in range(n_sub) for m in range(m_rx)]
    return np.stack(cols, axis=1)


def _assert_cov_of_loop(got, cubes, axis):
    """got is S S^H / I of the loop re-indexer's snapshots of each cube."""
    loop = (_loop_spatial, _loop_range, _loop_doppler)[axis]
    want = sample_cov(np.array([loop(c) for c in cubes]))
    assert got.shape == want.shape == (len(cubes),) + (cubes.shape[axis + 1],) * 2
    assert np.all(np.abs(got - want).max(axis=(1, 2))
                  <= 1e-14 * np.abs(want).max(axis=(1, 2)))


def test_snapshot_builders_match_loops(small_cfg, rng):
    shape = (2, small_cfg.m_rx, small_cfg.n_sub, small_cfg.n_sym)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cubes = np.ascontiguousarray(data[..., 2:])   # the stack past a 2-symbol transient

    sp, ra, do = mu.covariances(cubes)
    assert mu._SIGNS[0] == +1 and sp.shape == (2, small_cfg.m_rx, small_cfg.m_rx)
    _assert_cov_of_loop(sp, cubes, 0)
    assert mu._SIGNS[1] == -1 and ra.shape == (2, small_cfg.n_sub, small_cfg.n_sub)
    _assert_cov_of_loop(ra, cubes, 1)
    assert mu._SIGNS[2] == +1 and do.shape == (2, small_cfg.n_sym - 2, small_cfg.n_sym - 2)
    _assert_cov_of_loop(do, cubes, 2)


@st.composite
def _cube_stacks(draw):
    """A random (n, M_r, L, P) stack, and a number of leading transient
    symbols that keeps >= 2 of them."""
    shape = (draw(st.integers(1, 3)), *(draw(st.integers(2, 5)) for _ in range(3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return data, draw(st.integers(0, shape[3] - 2))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_cube_stacks(), st.integers(0, 2))
def test_snapshots_match_loops_for_any_shape_and_mask(stack, axis):
    # the axis's covariance is S S^H / I of the loop re-indexer's snapshots,
    # and each cube of a stack gets the bytes it gets alone
    data, warmup = stack
    cubes = np.ascontiguousarray(data[..., warmup:])
    got = mu.covariances(cubes)[axis]
    _assert_cov_of_loop(got, cubes, axis)
    for j in range(len(cubes)):
        assert mu.covariances(cubes[j:j + 1])[axis].tobytes() == got[j:j + 1].tobytes()


# ---------------------------------------------------------------------------
# end to end on a noiseless single-target echo

def test_estimate_candidate_exact_on_clean_echo(cfg, plan):
    target = Target(theta=0.2772, range=4.281, speed=3.911, alpha=1.0 + 0.0j)
    scene = Scene((target,), ())
    from mtsense.beams import beam_for_angle
    b = beam_for_angle(plan, target.theta)
    y = ec.synthesize_echo(scene, plan, b, cfg, noise_var=0.0)
    res = mu.estimate_candidate(cl.normalize_by_gain(y, plan, b, cfg), b, cfg)
    psi_s, psi_r, psi_d = frequencies_target(target, cfg)
    assert res.psi_s_hat == pytest.approx(psi_s, abs=1e-8)
    assert res.psi_r_hat == pytest.approx(psi_r, abs=1e-8)
    assert res.psi_d_hat == pytest.approx(psi_d, abs=1e-8)
    assert res.theta_hat == pytest.approx(target.theta, abs=1e-7)
    assert res.range_hat == pytest.approx(target.range, abs=1e-6)
    assert res.speed_hat == pytest.approx(target.speed, abs=1e-6)
    assert res.scan_index == b


def test_estimate_candidate_after_filtering(cfg, plan):
    # with the clutter filter in the loop the tone amplitude changes but the
    # frequencies survive; the transient symbols are left out
    target = Target(theta=-0.35, range=3.0, speed=3.0, alpha=1.0 + 0.0j)
    scene = Scene((target,), ())
    from mtsense.beams import beam_for_angle
    b = beam_for_angle(plan, target.theta)
    y = ec.synthesize_echo(scene, plan, b, cfg, noise_var=0.0)
    filt = cl.design_butterworth_highpass(2, 0.04)
    out = cl.filter_symbols(cl.normalize_by_gain(y, plan, b, cfg), filt)
    res = mu.estimate_candidate(out[..., cl.default_warmup(filt):], b, cfg)
    assert res.theta_hat == pytest.approx(target.theta, abs=2e-3)
    assert res.range_hat == pytest.approx(target.range, abs=2e-2)
    assert res.speed_hat == pytest.approx(target.speed, abs=2e-2)


# ---------------------------------------------------------------------------
# the sweep with the library's root and with the companion oracle's, paired
# trial by trial (the same noise draws), on seed 31

def _paired_sweep(tmp_path, monkeypatch, snr_list_db, n_trials):
    """(sweep.csv rows, squared errors / CRB (2, SNR, trial, target x param),
    errors / sqrt(CRB) of the same shape) of the sweep as shipped and with the
    oracle in place of root_music_frequency."""
    config = ex.config_from_dict({"snr_list_db": snr_list_db, "n_trials": n_trials, "seed": 31})
    truth = np.array([[t.theta, t.range, t.speed] for t in
                      ex.build_scene(config, config.system, config.seed).targets])
    rows, errors = [], []
    for root in (mu.root_music_frequency, companion_root_music_frequency):
        monkeypatch.setattr(mu, "root_music_frequency", root)
        found = []
        estimate = mu.estimate_candidates

        def recording(cubes, scans, cfg, estimate=estimate, found=found):
            out = estimate(cubes, scans, cfg)
            found += [(r.theta_hat, r.range_hat, r.speed_hat) for r in out]
            return out

        monkeypatch.setattr(mu, "estimate_candidates", recording)
        out_dir = tmp_path / root.__name__
        ex.sweep_snr(config, out_dir)
        monkeypatch.setattr(mu, "estimate_candidates", estimate)
        with open(out_dir / "sweep.csv", newline="") as fh:
            rows.append(list(csv.reader(fh))[1:])
        # the sweep estimates trial by trial, each trial at every SNR
        errors.append((np.reshape(found, (n_trials, len(snr_list_db)) + truth.shape)
                       - truth).swapaxes(0, 1).reshape(len(snr_list_db), n_trials, -1))
    # sweep.csv lists the parameters target by target, theta, range, speed
    crb = np.array([float(r[3]) for r in rows[0]]).reshape(len(snr_list_db), 1, -1)
    errors = np.array(errors)
    return rows, errors ** 2 / crb, errors / np.sqrt(crb)


def test_sweep_accuracy_matches_the_companion_oracle(tmp_path, monkeypatch):
    tic = time.perf_counter()
    # above threshold the two roots are one: the same mse to roundoff
    rows, _, _ = _paired_sweep(tmp_path / "above", monkeypatch, [-30.0, 0.0, 20.0], 12)
    for new, old in zip(*rows):
        assert new[:2] == old[:2] and new[3] == old[3]
        assert float(new[2]) == pytest.approx(float(old[2]), rel=1e-9, abs=0.0)
    # below it they may pick different roots. No MSE/CRB may exceed the
    # oracle's by more than 3 paired standard errors, nor its count of 5-sigma
    # outliers the oracle's by more than 3 standard errors of the paired
    # difference. One-sided: the root at the deepest null is the better pick
    # down here (every MSE/CRB lower on this seed, by 1 to 2 standard errors)
    _, ratio, scaled = _paired_sweep(tmp_path / "below", monkeypatch, [-35.0], 100)
    n = ratio.shape[2]
    diff = ratio[0, 0] - ratio[1, 0]
    assert np.all(diff.mean(axis=0) <= 3.0 * diff.std(axis=0, ddof=1) / math.sqrt(n))
    out = np.abs(scaled[:, 0]) > 5.0
    d_out = out[0].astype(int) - out[1]
    assert np.all(out[0].sum(axis=0) <=
                  out[1].sum(axis=0) + 3.0 * math.sqrt(n) * d_out.std(axis=0, ddof=1))
    assert time.perf_counter() - tic < 10.0

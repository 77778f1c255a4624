"""Root-MUSIC against hand linear algebra and a dense grid-search oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsense import clutter as cl
from mtsense import echo as ec
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


# ---------------------------------------------------------------------------
# oracle 1: hand eigendecomposition. C = I + ones(3,3) has eigenvalues
# (1, 1, 4), top eigenvector (1,1,1)/sqrt(3), so the noise-subspace projector
# is exactly I - ones/3. A data matrix with sample covariance C is
# F = sqrt(I_count) * sqrtm(C), and sqrtm(C) = I + ones/3 since
# (I + J/3)^2 = I + 2J/3 + J^2/9 = I + J for J = ones(3,3).

def test_noise_subspace_hand_oracle():
    j3 = np.ones((3, 3))
    f_data = np.sqrt(3.0) * (np.eye(3) + j3 / 3.0)
    vn = mu.noise_subspace(f_data.astype(complex)[None])[0]
    assert vn.shape == (3, 2)
    proj = vn @ vn.conj().T
    assert np.allclose(proj, np.eye(3) - j3 / 3.0, atol=1e-10)


def test_noise_subspace_rejects_nonfinite():
    data = np.ones((3, 4), dtype=complex)
    data[1, 2] = np.inf
    with pytest.raises(ValueError):
        mu.noise_subspace(data[None])


def test_snapshot_matrix_validation():
    # a cube stack whose snapshot matrices would be 1 x 5 or 5 x 1, and a sign
    # that is neither +1 nor -1
    with pytest.raises(ValueError):
        mu.snapshots(np.ones((2, 1, 5, 1), dtype=complex), 0)
    with pytest.raises(ValueError):
        mu.snapshots(np.ones((2, 5, 1, 1), dtype=complex), 0)
    with pytest.raises(ValueError):
        mu.root_music_frequency(np.ones((1, 3, 3), dtype=complex), 2)


# ---------------------------------------------------------------------------
# oracle 2: dense grid search of the MUSIC pseudospectrum. Independent of the
# polynomial rooting path; shares only the covariance/eigh step.

def grid_music(f, step=1e-4):
    vn = mu.noise_subspace(f)[0]
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
        (psi_root,) = mu.root_music_frequency(f, +1)
        psi_grid = grid_music(f, step=1e-4)
        assert abs(psi_root - psi_grid) < 1e-3
        assert abs(psi_root - psi) < 1e-3


def test_exact_tone_recovery_both_signs():
    psi = 0.2173
    f_pos = tone_snapshots(psi, m=6, n_snap=32, sign=+1, seed=5)
    assert mu.root_music_frequency(f_pos, +1) == pytest.approx([psi], abs=1e-8)
    # range-style data e^{-j2pi l psi} with sign=-1 must recover +psi
    f_neg = tone_snapshots(psi, m=6, n_snap=32, sign=-1, seed=6)
    assert mu.root_music_frequency(f_neg, -1) == pytest.approx([psi], abs=1e-8)
    f_negpsi = tone_snapshots(-0.31, m=6, n_snap=32, sign=+1, seed=7)
    assert mu.root_music_frequency(f_negpsi, +1) == pytest.approx([-0.31], abs=1e-8)


def test_half_cycle_stays_in_range():
    # a tone at the Nyquist edge alternates sign; +0.5 and -0.5 are the same
    # frequency, so check closeness on the circle and the documented interval
    f = tone_snapshots(0.5, m=6, n_snap=32, seed=8)
    (psi,) = mu.root_music_frequency(f, +1)
    assert -0.5 < psi <= 0.5
    circ = min(abs(psi - 0.5), abs(psi + 0.5))
    assert circ < 1e-8


def test_roots_pair_conjugate_reciprocal():
    # real-coefficient-free sanity: the null polynomial is conjugate
    # symmetric, so roots off the unit circle come in (z, 1/conj(z)) pairs
    f = tone_snapshots(0.11, m=6, n_snap=40, noise=0.05, seed=9)
    (roots,) = mu.music_roots(f)
    inside = roots[np.abs(roots) < 1.0 - 1e-9]
    for z in inside:
        partner = 1.0 / np.conj(z)
        assert np.min(np.abs(roots - partner)) < 1e-8


@st.composite
def _split_reciprocal_roots(draw, pairs=None):
    """A root multiset closed under z -> 1/conj(z), split the way np.roots
    splits it: off-circle pairs and double roots on the circle, every root
    then moved by up to 1e-7 in any direction, in shuffled order. ``pairs``
    fixes the number of pairs (1 to 6 when None)."""
    roots = []
    for _ in range(draw(st.integers(1, 6)) if pairs is None else pairs):
        u = draw(st.floats(0.2, 1.0)) * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
        roots += [u, 1.0 / np.conj(u)]          # |u| = 1: a double circle root
    jitter = draw(st.lists(st.complex_numbers(max_magnitude=1e-7),
                           min_size=len(roots), max_size=len(roots)))
    order = draw(st.permutations(range(len(roots))))
    return (np.array(roots) + np.array(jitter))[order]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_split_reciprocal_roots())
def test_reciprocal_symmetrize_closes_the_multiset(roots):
    out = mu._reciprocal_symmetrize(roots)
    assert len(out) == len(roots)
    # each output root stays within the jitter of an input root ...
    assert max(np.min(np.abs(roots - z)) / abs(z) for z in out) <= 1e-5
    # ... and the images 1/conj(z) are the same multiset, matched one to one
    images = list(1.0 / np.conj(out))
    for z in out:
        j = int(np.argmin([abs(z - w) for w in images]))
        assert abs(z - images.pop(j)) <= 1e-12 * (1.0 + abs(z))


# ---------------------------------------------------------------------------
# oracle 3: the root pairing as a scalar loop, one numpy call per root. The
# library's array form must return the same bytes.

def _reciprocal_symmetrize_loop(roots):
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


def _assert_same_pairing(roots):
    got, want = mu._reciprocal_symmetrize(roots), _reciprocal_symmetrize_loop(roots)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_split_reciprocal_roots())
def test_reciprocal_symmetrize_matches_scalar_loop(roots):
    _assert_same_pairing(roots)


def _assert_same_stacked_pairing(root_sets):
    # the sets of each length as one (n, N) stack: every row has the bytes
    # of the scalar loop on that set alone
    for n in sorted({len(r) for r in root_sets}):
        stack = np.array([r for r in root_sets if len(r) == n], dtype=complex)
        got = mu._reciprocal_symmetrize(stack)
        assert got.shape == stack.shape
        assert [row.tobytes() for row in got] == \
            [_reciprocal_symmetrize_loop(row).tobytes() for row in stack]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 6).flatmap(
    lambda pairs: st.lists(_split_reciprocal_roots(pairs), min_size=1, max_size=6)))
def test_stacked_reciprocal_symmetrize_matches_scalar_loop(root_sets):
    _assert_same_stacked_pairing(root_sets)


def test_reciprocal_symmetrize_matches_scalar_loop_on_companion_roots():
    # 2000 root sets as music_roots meets them: noise alone or a tone in noise,
    # M from 4 to 21, plus unmatched, zero and odd-length inputs; then the
    # sets of each M as one stack
    rng = np.random.default_rng(2024)
    root_sets = []
    for trial in range(2000):
        m, n_snap = int(rng.integers(4, 22)), int(rng.integers(2, 60))
        data = rng.standard_normal((m, n_snap)) + 1j * rng.standard_normal((m, n_snap))
        if trial % 2:
            tone = np.exp(2j * np.pi * rng.uniform(-0.5, 0.5) * np.arange(m))
            data += rng.uniform(0.1, 30.0) * np.outer(tone, np.exp(2j * np.pi * rng.random(n_snap)))
        proj = mu.noise_subspace(data[None])[0]
        proj = proj @ proj.conj().T
        root_sets.append(np.roots([np.trace(proj, offset=k) for k in range(m - 1, -m, -1)]))
        _assert_same_pairing(root_sets[-1])
    # the last: a subnormal root's image overflows, so every free root is at
    # distance inf and the first free one (index 3, not the used index 0) pairs
    odd = ([0.5, 3.0], [0.0, 2.0, 0.5, 0.5], [1.0 + 1j, 0.5, 2.0], [],
           [2.0, np.nan, 0.5, 0.5], [np.inf, 0.5, 2.0, 0.0], [5.0, 1e-310, 0.2, 1.0])
    for roots in odd:
        _assert_same_pairing(np.array(roots, dtype=complex))
    _assert_same_stacked_pairing(root_sets + [np.array(r, dtype=complex) for r in odd])


def test_coefficients_match_np_trace(rng):
    for m in (2, 5, 9, 16, 21):
        data = rng.standard_normal((m, 40)) + 1j * rng.standard_normal((m, 40))
        vn = mu.noise_subspace(data[None])[0]
        proj = vn @ vn.conj().T
        want = np.roots(np.array([np.trace(proj, offset=k) for k in range(m - 1, -m, -1)]))
        (got,) = mu.music_roots(data[None])
        assert got.tobytes() == _reciprocal_symmetrize_loop(want).tobytes()


# ---------------------------------------------------------------------------
# oracle 4: root-MUSIC one snapshot matrix at a time, as the library ran it
# before it stacked them. The stacked calls must return each slice's bytes.

def _music_roots_per_item(data):
    m, i = data.shape
    r_hat = (data @ data.conj().T) / i
    if not np.all(np.isfinite(r_hat)):
        raise ValueError("sample covariance has non-finite entries")
    vn = np.linalg.eigh(r_hat)[1][:, : m - 1]
    proj = vn @ vn.conj().T
    coeffs = np.array([proj.trace(k) for k in range(m - 1, -m, -1)])
    return _reciprocal_symmetrize_loop(np.roots(coeffs))


def _root_music_frequency_per_item(data, sign):
    roots = _music_roots_per_item(data)
    inside = roots[np.abs(roots) < 1.0]
    if inside.size == 0:
        raise RuntimeError("no polynomial root strictly inside the unit circle")
    mags = np.abs(inside)
    tied = inside[mags > mags.max() - 1e-12]
    psi = sign * float(np.angle(tied[np.argmax(tied.real)])) / (2.0 * math.pi)
    return psi + 1.0 if psi <= -0.5 else psi


@st.composite
def _snapshot_stacks(draw):
    """(n, M, I) stacks, M from 2 to 21: noise, or a tone in noise, and rows
    with a zeroed first or last snapshot row, whose null polynomial then has
    zero end coefficients (np.roots strips them)."""
    n, m, i = draw(st.integers(1, 5)), draw(st.integers(2, 21)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((n, m, i)) + 1j * rng.standard_normal((n, m, i))
    for j in range(n):
        if draw(st.booleans()):
            tone = np.exp(2j * np.pi * rng.uniform(-0.5, 0.5) * np.arange(m))
            data[j] += rng.uniform(0.1, 30.0) * np.outer(tone, np.exp(2j * np.pi * rng.random(i)))
        zeroed = draw(st.sampled_from((None, 0, -1)))
        if zeroed is not None:
            data[j, zeroed] = 0
    return data


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_snapshot_stacks(), st.sampled_from((-1, 1)), st.integers(-1, 4))
def test_stacked_root_music_matches_per_item(data, sign, poisoned):
    # poisoned >= 0 puts a non-finite entry in that row, when it exists
    if poisoned < len(data):
        data[poisoned, 0, -1] = (np.nan, np.inf)[poisoned % 2]
    want = [_outcome(_music_roots_per_item, row) for row in data]
    freqs = [_outcome(_root_music_frequency_per_item, row, sign) for row in data]
    if any(isinstance(w, Exception) for w in want):
        # the stack raises what its first failing row raises alone
        first = next(w for w in want if isinstance(w, Exception))
        with pytest.raises(type(first), match=str(first)):
            mu.music_roots(data)
        keep = [j for j, w in enumerate(want) if not isinstance(w, Exception)]
        data, want, freqs = data[keep], [want[j] for j in keep], [freqs[j] for j in keep]
        if not keep:
            return
    got = mu.music_roots(data)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    for j, row in enumerate(data):
        assert mu.music_roots(row[None])[0].tobytes() == want[j].tobytes()
    failed = [f for f in freqs if isinstance(f, Exception)]
    if failed:
        with pytest.raises(type(failed[0])):
            mu.root_music_frequency(data, sign)
    else:
        assert mu.root_music_frequency(data, sign) == freqs
        assert [mu.root_music_frequency(row[None], sign)[0] for row in data] == freqs


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
        cubes.append(cl.filter_symbols(cl.normalize_by_gain(y, plan), filt)
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


def test_estimate_candidates_of_an_empty_stack(cfg):
    # no candidates: no estimates, and no reshape of a zero-size stack
    empty = np.empty((0, cfg.m_rx, cfg.n_sub, cfg.n_sym - 6), dtype=complex)
    assert mu.estimate_candidates(empty, [], cfg) == []


# ---------------------------------------------------------------------------
# snapshot builders vs a naive loop re-indexer

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


def test_snapshot_builders_match_loops(small_cfg, rng):
    shape = (2, small_cfg.m_rx, small_cfg.n_sub, small_cfg.n_sym)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cubes = data[..., 2:]      # the stack past a 2-symbol transient

    sp = mu.snapshots(cubes, 0)
    assert mu._SIGNS[0] == +1 and sp.shape[:2] == (2, small_cfg.m_rx)
    assert np.array_equal(sp, [_loop_spatial(c) for c in cubes])

    ra = mu.snapshots(cubes, 1)
    assert mu._SIGNS[1] == -1 and ra.shape[:2] == (2, small_cfg.n_sub)
    assert np.array_equal(ra, [_loop_range(c) for c in cubes])

    do = mu.snapshots(cubes, 2)
    assert mu._SIGNS[2] == +1 and do.shape[:2] == (2, small_cfg.n_sym - 2)
    assert np.array_equal(do, [_loop_doppler(c) for c in cubes])


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
    data, warmup = stack
    loop = (_loop_spatial, _loop_range, _loop_doppler)[axis]
    assert np.array_equal(mu.snapshots(data[..., warmup:], axis),
                          [loop(c[:, :, warmup:]) for c in data])


# ---------------------------------------------------------------------------
# end to end on a noiseless single-target echo

def test_estimate_candidate_exact_on_clean_echo(cfg, plan):
    target = Target(theta=0.2772, range=4.281, speed=3.911, alpha=1.0 + 0.0j)
    scene = Scene((target,), ())
    from mtsense.beams import beam_for_angle
    b = beam_for_angle(plan, target.theta)
    y = ec.synthesize_echo(scene, plan, b, cfg, noise_var=0.0)
    res = mu.estimate_candidate(cl.normalize_by_gain(y, plan), b, cfg)
    psi_r, psi_d, psi_s = frequencies_target(target, cfg)
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
    out = cl.filter_symbols(cl.normalize_by_gain(y, plan), filt)
    res = mu.estimate_candidate(out[..., cl.default_warmup(filt):], b, cfg)
    assert res.theta_hat == pytest.approx(target.theta, abs=2e-3)
    assert res.range_hat == pytest.approx(target.range, abs=2e-2)
    assert res.speed_hat == pytest.approx(target.speed, abs=2e-2)

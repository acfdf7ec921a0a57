"""Seeded random generation of sphere points and instances.

Counter-based streams (Philox) keyed by (master seed, purpose, sample, row)
make every draw a pure function of its coordinates, so results never depend
on scheduling.  Gaussians come from the inverse-normal transform of
uniforms: each variate consumes exactly one uniform, keeping streams
aligned.  Perturbation laws are the radially symmetric cap distributions
with density C r^(-beta) h(r) in r = sin(colatitude); their masses and
colatitude CDFs are composite Gauss-Legendre integrals (among them
`sphere.integral_I`), so no quadrature library is needed.

Bulk draws never build a generator per stream.  numpy's Philox is
Philox4x64-10, a pure function of (key, counter), so `keyed_uniforms`
computes the uniforms of many streams at once, bit for bit those of
`RngStream(master, index).generator().random(count)`.  `cap_batch` draws
whole instances from it: row i of sample s is the row-i stream of s, its
colatitude the inverse CDF of the stream's first uniform, its direction the
normalized inverse-normal transform of the next m, around the pole e_0.
`_rotations` builds the reflections taking e_0 to every center row in one
stack, and `_rotate` applies them by `sphere._dot`, a per-coordinate sum,
never a matrix product.  Every step of a draw is elementwise, so a draw is
the same bits in any batch: the single-instance view `sample_instance`
replays exactly the rows a batch of any size drew for that sample.  The
inverse normal CDF is `ndtri`, a numpy port of Cephes' that gives
scipy.special.ndtri's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError
from .sic import Instance
from .sphere import _dot, _libm, gauss_legendre, integral_I, row_norms

_MASK64 = (1 << 64) - 1
_ROW_BITS = 16
_SAMPLE_BITS = 40
# Rows drawn at once by the batch samplers, bounding their working set.
# One instance always fits: a sample has at most 2^_ROW_BITS row streams.
BLOCK_ROWS = 1 << _ROW_BITS

# Philox4x64-10 (Salmon et al., SC'11): multipliers and Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

PURPOSE_SAMPLE = 1
PURPOSE_CENTER = 2
PURPOSE_WENDEL = 3
PURPOSE_TUBE = 4
PURPOSE_PROPERTY = 5
PURPOSE_CHECK = 6


@dataclass(frozen=True)
class RngStream:
    """A (seed, index) pair naming one independent Philox stream."""

    master: int
    index: int = 0

    def generator(self) -> Generator:
        key = ((self.master & _MASK64) << 64) | (self.index & _MASK64)
        return Generator(Philox(key=key))


def stream(master: int, purpose: int, sample: int = 0, row: int = 0) -> RngStream:
    if not 0 <= sample < (1 << _SAMPLE_BITS):
        raise ValueError("sample index out of stream range")
    if not 0 <= row < (1 << _ROW_BITS):
        raise ValueError("row index out of stream range")
    index = (purpose << (_SAMPLE_BITS + _ROW_BITS)) | (sample << _ROW_BITS) | row
    return RngStream(master, index)


def stream_indices(purpose: int, lo: int, hi: int) -> np.ndarray:
    """Packed indices of the (row 0) streams of samples lo..hi-1, as uint64."""
    if not 0 <= lo <= hi <= (1 << _SAMPLE_BITS):
        raise ValueError("sample index out of stream range")
    samples = np.arange(lo, hi, dtype=np.uint64) << np.uint64(_ROW_BITS)
    return samples | np.uint64(purpose << (_SAMPLE_BITS + _ROW_BITS))


def sample_ranges(lo: int, hi: int, rows_per_sample: int):
    """Consecutive (start, stop) sample ranges of lo..hi-1, each of at most
    BLOCK_ROWS rows (a single sample when one has more)."""
    step = max(1, BLOCK_ROWS // rows_per_sample)
    return [(s, min(s + step, hi)) for s in range(lo, hi, step)]


def _mulhilo(a: np.ndarray, b: int):
    """(high, low) 64-bit words of the 128-bit products a * b.  The high
    word from four products of 32-bit halves: t = a_lo b_lo, u = a_hi b_lo
    + t_hi, w = a_lo b_hi + u_lo, high = a_hi b_hi + u_hi + w_hi, where no
    sum overflows 64 bits."""
    b_lo, b_hi = np.uint64(b & 0xFFFFFFFF), np.uint64(b >> 32)
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    u = a_hi * b_lo
    u += (a_lo * b_lo) >> _SHIFT32
    w = a_lo * b_hi
    w += u & _LO32
    hi = a_hi * b_hi
    hi += u >> _SHIFT32
    hi += w >> _SHIFT32
    return hi, a * np.uint64(b)


def keyed_uniforms(master: int, indices, count: int, offset: int = 0) -> np.ndarray:
    """(len(indices), count) uniforms; row j is, bit for bit,
    Generator(Philox(key=(master << 64) | indices[j])).random(offset + count)[offset:].

    numpy's Philox keys word 0 with the low and word 1 with the high half
    of the key and fills a 4-word buffer per counter value, counters
    starting at 1; random() keeps the top 53 bits of each word.  So a
    stream can be entered at any word `offset` that starts a buffer: a
    multiple of 4.
    """
    if offset < 0 or offset % 4:
        raise ValueError(f"offset {offset} is not a nonnegative multiple of 4")
    k0 = np.asarray(indices, dtype=np.uint64).reshape(-1, 1)
    blocks, first = -(-count // 4), offset // 4 + 1
    # The counter words are one row, shared by every key, until the key
    # mixes in: round 0 and half of round 1 run on that row alone.
    c0 = np.arange(first, first + blocks, dtype=np.uint64)[None]
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        ka = k0 + np.uint64(r * _PHILOX_W[0] & _MASK64)
        kb = np.uint64((master + r * _PHILOX_W[1]) & _MASK64)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ ka, lo1, hi0 ^ c3 ^ kb, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(k0.shape[0], 4 * blocks)
    return (words[:, :count] >> np.uint64(11)) * (1.0 / 9007199254740992.0)


# Cephes' ndtri (S. L. Moshier): rational approximations of the inverse
# normal CDF in y - 1/2 for y in (exp(-2), 1 - exp(-2)), and in
# 1/sqrt(-2 log y) in the tails, below and above exp(-32).  Numerator
# coefficients lead; each denominator's leading 1 is implied.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(x: np.ndarray, p: tuple, q: tuple):
    """(P(x), Q(x)), each by Horner's rule from its leading coefficient,
    Q's leading 1 implied: Cephes' polevl and p1evl, step for step."""
    num, den = np.full_like(x, p[0]), x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return num, den


def ndtri(u) -> np.ndarray:
    """The inverse of the standard normal CDF at each u in (0, 1): Cephes'
    ndtri, the same coefficients and operations in the same order, so
    bit for bit scipy.special.ndtri."""
    shape = np.shape(u)
    y = np.asarray(u, dtype=float).ravel()
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    central = y > _EXP_M2
    mid, tail = np.flatnonzero(central), np.flatnonzero(~central)
    out = np.empty_like(y)
    c = y.take(mid) - 0.5
    c2 = c * c
    num, den = _rational(c2, _P0, _Q0)
    out[mid] = (c + c * (c2 * num / den)) * _SQRT_2PI
    x = np.sqrt(-2.0 * _libm(np.log, y.take(tail)))
    z = 1.0 / x
    num, den = _rational(z, _P1, _Q1)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        num[far], den[far] = _rational(z.take(far), _P2, _Q2)
    x = (x - _libm(np.log, x) / x) - z * num / den
    out[tail] = np.where(upper.take(tail), x, -x)
    return out.reshape(shape)


def _open_unit(u: np.ndarray) -> np.ndarray:
    # random() lives in [0, 1); clip away exact zero for ndtri.
    return np.clip(u, 1e-300, None)


def uniform_sphere_block(m: int, gen: Generator, count: int) -> np.ndarray:
    """`count` uniform points of S^m: normalized inverse-normal transforms."""
    g = ndtri(_open_unit(gen.random((count, m + 1))))
    return g / row_norms(g)[:, None]


def uniform_sphere_batch(m: int, master: int, indices, count: int, start: int = 0) -> np.ndarray:
    """(len(indices), count, m+1): `count` uniform points of S^m per stream,
    entry j bit for bit uniform_sphere_block(m, RngStream(master,
    indices[j]).generator(), start + count)[start:].  Each point takes m+1
    uniforms, so start * (m+1) must be a multiple of 4 (`keyed_uniforms`)."""
    u = keyed_uniforms(master, indices, count * (m + 1), start * (m + 1))
    g = ndtri(_open_unit(u)).reshape(-1, count, m + 1)
    return g / row_norms(g)[..., None]


@dataclass(frozen=True)
class HTable:
    """Tabled radial factor h; linear interpolation between nodes."""

    r_nodes: tuple
    h_values: tuple

    def __post_init__(self):
        r = np.asarray(self.r_nodes, dtype=float)
        h = np.asarray(self.h_values, dtype=float)
        if r.ndim != 1 or r.shape != h.shape or r.size < 1:
            raise ValueError("h table needs matching 1-d node/value columns")
        if not (np.isfinite(r).all() and np.isfinite(h).all()):
            raise ValueError("h table radii and values must be finite")
        if np.any(np.diff(r) <= 0):
            raise ValueError("h table radii must be strictly ascending")
        if r[0] < 0:
            raise ValueError("h table radii must be nonnegative")
        if np.any(h < 0):
            raise ValueError("h values must be nonnegative")
        if h[0] <= 0:
            raise ValueError("h(0) must be positive")

    @classmethod
    def from_file(cls, path) -> "HTable":
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"{path}: expected two columns, got {line!r}")
                rows.append((float(parts[0]), float(parts[1])))
        if not rows:
            raise ValueError(f"{path}: empty h table")
        r, h = zip(*rows)
        return cls(tuple(r), tuple(h))

    def __call__(self, r) -> np.ndarray:
        return np.interp(r, np.asarray(self.r_nodes), np.asarray(self.h_values))

    def scaled(self, factor: float) -> "HTable":
        return HTable(self.r_nodes, tuple(v * factor for v in self.h_values))


@dataclass(frozen=True)
class AdversarialParams:
    """One radially symmetric perturbation law on a cap of radius alpha."""

    m: int
    alpha: float
    sigma: float
    beta: float
    h_table: HTable | None  # None means h identically 1
    H: float
    C_norm: float
    c_exponent: float
    delta_c: float


def compute_delta_c(m: int, beta: float, H: float, delta_mode: str = "lemma") -> float:
    """Tolerance delta such that nu(G) <= delta forces mu(G) <= nu(G)^c.

    "lemma" evaluates (2/(pi m)) * ((1/H) sqrt(1 - (2/(pi m))^(1/m)))^(1/c)
    with c = (1 - beta/m)/2; "beta0-remark" is the simpler 1/H^2 tolerance
    available when the density has no pole.
    """
    if delta_mode == "lemma":
        c = 0.5 * (1.0 - beta / m)
        base = 2.0 / (math.pi * m)
        inner = math.sqrt(1.0 - base ** (1.0 / m)) / H
        return base * inner ** (1.0 / c)
    if delta_mode == "beta0-remark":
        if beta != 0.0:
            raise ConfigError("the beta=0 remark tolerance requires beta = 0")
        return 1.0 / H**2
    raise ConfigError(f"unknown delta mode {delta_mode!r}")


def radial_density(m: int, beta: float, alpha: float, h_table: HTable | None = None,
                   scale: float = 1.0):
    """The law's colatitude density scale * sin^(m-beta-1) h(sin t), h = 1
    when h_table is None, as a vectorized integrand in s on [0, 1].

    The substitution theta = alpha * s^(1/(m-beta)) makes it extend
    continuously to s = 0 for any beta < m.  With scale 1 it integrates
    to the law's unnormalized mass (`_colatitude_mass`), with scale C_norm
    to its CDF (`build_radial_cdf`).  The sampler check's oracle does not
    use it: it is the closed form `harness.oracle_radial_cdf`.
    """
    p = m - beta

    def integrand(s):
        s = np.asarray(s, dtype=float)
        theta = alpha * s ** (1.0 / p)
        sin_t = np.sin(theta)
        h = 1.0 if h_table is None else h_table(sin_t)
        return scale * sin_t ** (m - 1 - beta) * h * (alpha / p) * s ** (1.0 / p - 1.0)

    return integrand


# `_colatitude_mass` integrates on this many uniform cells in s, the
# first split into this many more toward the pole, halving each time.
_MASS_CELLS = 64
_MASS_HALVINGS = 40


def _colatitude_mass(m: int, beta: float, alpha: float, h_table: HTable | None = None) -> float:
    """Integral of sin^(m-beta-1) h(sin t) over [0, alpha], h = 1 when
    h_table is None; pole-safe.

    Composite Gauss-Legendre in s of `radial_density`.  The integrand's
    expansion at s = 0 holds fractional powers of s, so the cell at the
    pole is split geometrically toward it; cells also split where h has a
    kink (a table node), so each cell is smooth.  Relative error about
    1e-15.  With h = 1 and m - beta a whole number the integral is
    I_{m-beta}(alpha) (`integral_I`), so the law's normalization is
    exactly 1 at beta = 0.
    """
    p = m - beta
    if h_table is None and p == int(p):
        return integral_I(int(p), alpha)
    first = 1.0 / _MASS_CELLS
    edges = np.concatenate([[0.0], first * np.exp2(-np.arange(_MASS_HALVINGS, 0, -1)),
                            np.linspace(first, 1.0, _MASS_CELLS)])
    if h_table is not None:
        r = np.asarray(h_table.r_nodes)
        r = r[(r > 0.0) & (r < math.sin(alpha))]
        edges = np.union1d(edges, (np.arcsin(r) / alpha) ** p)
    return float(gauss_legendre(radial_density(m, beta, alpha, h_table), edges).sum())


def make_adversarial_params(
    m: int,
    alpha: float,
    beta: float = 0.0,
    h_table: HTable | None = None,
    delta_mode: str = "lemma",
) -> AdversarialParams:
    """Normalize an (alpha, beta, h) triple into a usable parameter set.

    A user-supplied h is rescaled by one global factor so the cap law
    integrates to one, H is the supremum of the rescaled h, and the
    smoothness exponent and tolerance are filled in.
    """
    if m < 1:
        raise ConfigError("sphere dimension must be at least 1")
    if not 0.0 < alpha <= math.pi / 2 + 1e-12:
        raise ConfigError(f"alpha={alpha} outside (0, pi/2]")
    if not 0.0 <= beta < m:
        raise ConfigError(f"beta={beta} outside [0, m={m})")
    sigma = math.sin(alpha)
    c = 0.5 * (1.0 - beta / m)
    # Mass identity: integral of sin^(m-beta-1) h(sin t) over [0, alpha]
    # must equal I_{m-beta}(alpha).
    i_m_beta = _colatitude_mass(m, beta, alpha)
    if h_table is None:
        H = 1.0
        scaled = None
    else:
        raw = _colatitude_mass(m, beta, alpha, h_table)
        if raw <= 0:
            raise ConfigError("h table integrates to zero over the cap")
        scaled = h_table.scaled(i_m_beta / raw)
        H = float(max(scaled.h_values))  # piecewise linear: the sup is at a node
        if H < 1.0 - 1e-9:
            raise ConfigError("normalized h has supremum below 1")
        H = max(H, 1.0)
    i_m = integral_I(m, alpha)
    C_norm = i_m / i_m_beta
    delta = compute_delta_c(m, beta, H, delta_mode)
    return AdversarialParams(
        m=m, alpha=alpha, sigma=sigma, beta=beta, h_table=scaled,
        H=H, C_norm=C_norm, c_exponent=c, delta_c=delta,
    )


# Cells of the colatitude CDF table of `build_radial_cdf`.
_RADIAL_CELLS = 4096


@dataclass(frozen=True, eq=False)
class RadialCdf:
    """Monotone inverse-CDF table for the colatitude draw.

    Tabulated against s = (theta/alpha)^(m-beta), in which the CDF is
    linear to leading order at the pole, so linear interpolation keeps the
    CDF error below 1e-6 across the whole range.
    """

    s_nodes: np.ndarray
    cdf: np.ndarray
    alpha: float
    p_exponent: float

    def theta_of_u(self, u) -> np.ndarray:
        s = np.interp(u, self.cdf, self.s_nodes)
        return self.alpha * s ** (1.0 / self.p_exponent)


@lru_cache(maxsize=64)
def build_radial_cdf(params: AdversarialParams) -> RadialCdf:
    """Tabulate the colatitude CDF on `_RADIAL_CELLS` cells.

    Composite Gauss-Legendre on the pole-regularizing substitution.
    """
    p = params.m - params.beta
    edges = np.linspace(0.0, 1.0, _RADIAL_CELLS + 1)
    density = radial_density(params.m, params.beta, params.alpha, params.h_table, params.C_norm)
    cells = gauss_legendre(density, edges)
    cdf = np.concatenate([[0.0], np.cumsum(cells)])
    cdf = np.maximum.accumulate(cdf)
    if cdf[-1] <= 0:
        raise ConfigError("radial density integrates to zero")
    cdf /= cdf[-1]
    return RadialCdf(s_nodes=edges, cdf=cdf, alpha=params.alpha, p_exponent=p)


def _pole_frame(thetas: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Points (cos theta, sin theta * dirs/|dirs|) around the pole e_0."""
    w = dirs / row_norms(dirs)[..., None]
    pts = np.empty(thetas.shape + (w.shape[-1] + 1,))
    pts[..., 0] = np.cos(thetas)
    pts[..., 1:] = np.sin(thetas)[..., None] * w
    return pts


def _rotations(centers: np.ndarray) -> np.ndarray:
    """(n, d, d) stack of the rotations taking the pole e_0 to each center
    row: the Householder reflection across e_0 - t, t the center scaled to
    unit norm, or the identity where |e_0 - t| < 1e-14 (orthogonal to
    machine precision, and no special case at t = -e_0).  Each norm is a
    stacked matmul of a 1 x d row by a d x 1 column, the bits of
    np.linalg.norm on that row alone."""
    d = centers.shape[1]
    t = centers / np.sqrt((centers[:, None, :] @ centers[:, :, None])[:, 0])
    u = np.eye(d)[0] - t
    nu = np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0])
    same = nu < 1e-14
    u = u / np.where(same, 1.0, nu)
    reflections = np.eye(d) - 2.0 * (u[:, :, None] * u[:, None, :])
    return np.where(same[:, :, None], np.eye(d), reflections)


def _rotate(pts: np.ndarray, rots: np.ndarray) -> np.ndarray:
    """rots[i] @ pts[..., i, :] for each center row i, as a `_dot` over
    coordinates: each output is the same elementwise sequence whatever the
    batch shape, which a matrix product does not promise."""
    return _dot(np.moveaxis(pts, -1, 0)[..., None], np.moveaxis(rots, -1, 0))


def _keyed_cap_points(rots: np.ndarray, params: AdversarialParams, master: int,
                      keys: np.ndarray) -> np.ndarray:
    """One cap draw per row stream keys[..., i], around center row i.

    Each stream gives m+1 uniforms: the colatitude's by inverse CDF, then
    the direction's by inverse-normal transform.  Rows come out unit to
    rounding; `sic.unit_rows` (as `Instance` does) normalizes them.
    """
    d = rots.shape[-1]
    u = _open_unit(keyed_uniforms(master, keys.ravel(), d)).reshape(keys.shape + (d,))
    thetas = build_radial_cdf(params).theta_of_u(u[..., 0])
    return _rotate(_pole_frame(thetas, ndtri(u[..., 1:])), rots)


def cap_batch(center: Instance, params: AdversarialParams, master: int,
              indices) -> np.ndarray:
    """(B, n, m+1) rows of the samples whose streams are `indices`.

    Row i of a sample is drawn around center row i from the sample's
    row-i stream.  A sample's rows do not depend on the other samples of
    the batch; callers bound a batch to BLOCK_ROWS rows (`sample_ranges`).
    """
    if center.m != params.m:
        raise ValueError("center dimension does not match params")
    if center.n > 1 << _ROW_BITS:
        raise ValueError("row index out of stream range")
    row_mask = np.uint64((1 << _ROW_BITS) - 1)
    samples = np.asarray(indices, dtype=np.uint64).reshape(-1, 1) & ~row_mask
    keys = samples | np.arange(center.n, dtype=np.uint64)
    return _keyed_cap_points(_rotations(center.matrix), params, master, keys)


def cap_block(center_vec: np.ndarray, params: AdversarialParams,
              gen: Generator, count: int) -> np.ndarray:
    """Vectorized draws around one fixed center from a single stream."""
    thetas = build_radial_cdf(params).theta_of_u(_open_unit(gen.random(count)))
    dirs = ndtri(_open_unit(gen.random((count, params.m))))
    pts = _rotate(_pole_frame(thetas, dirs)[:, None, :], _rotations(center_vec[None, :]))[:, 0]
    return pts / row_norms(pts)[:, None]


def rejection_cap_block(center_vec: np.ndarray, alpha: float, m: int,
                        gen: Generator, count: int) -> np.ndarray:
    """Uniform-in-cap oracle: the first `count` uniform sphere draws of the
    stream that lie in the cap.  The stream is read in order, in rounds of
    at most BLOCK_ROWS candidates, so the working set beside the output is
    bounded and the hits do not depend on the round sizes."""
    cos_a = math.cos(alpha)
    out = np.empty((count, m + 1))
    have = 0
    while have < count:
        batch = uniform_sphere_block(m, gen, min(max(4 * (count - have), 128), BLOCK_ROWS))
        hits = batch[batch @ center_vec >= cos_a][:count - have]
        out[have:have + len(hits)] = hits
        have += len(hits)
    return out


def sample_instance(center: Instance, params: AdversarialParams, rng: RngStream) -> Instance:
    """The instance of sample stream rng: the one-instance view of
    `cap_batch`, bit for bit the rows any batch holding it draws."""
    return Instance(cap_batch(center, params, rng.master, [rng.index & _MASK64])[0])

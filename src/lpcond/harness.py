"""Monte Carlo experiment drivers.

Estimates tail probabilities and expectations of the condition number under
seeded perturbation laws, evaluates the matching closed-form upper bounds,
runs the exact-formula feasibility (Wendel) and neighborhood-volume checks,
and persists plot-ready tables plus per-sample records.  `ExperimentConfig`
holds the defaults of every experiment.

All experiments draw through counter-based streams keyed by sample index
(or by fixed-size chunk for the bulk geometric experiments), and run their
chunks serially, in chunk order, so reruns are byte-identical.  A
condition-number draw is kept as two columns, the stream index and rho of
each sample; classes, condition numbers and the CSV rows are derived from
them, ln C only where it is read (the mean and the CSV).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import convexgeom, samplers, sic
from .convexgeom import cap_distances_batch
from .errors import ConfigError, ConvergenceError
from .lp import FeasibilityClass
from .samplers import (
    PURPOSE_CENTER,
    PURPOSE_CHECK,
    PURPOSE_PROPERTY,
    PURPOSE_SAMPLE,
    PURPOSE_TUBE,
    PURPOSE_WENDEL,
    AdversarialParams,
    RngStream,
    stream,
)
from .sic import Instance
from .sphere import SpherePoint, clipped_arccos, rotation_to

CHUNK = 4096  # fixed work-item granularity of every sampled experiment
# Slack of the prefix-monotonicity check in rho: far above the solver's
# roundoff (~1e-15), far below any real inversion.
_PREFIX_RHO_TOL = 1e-12
# Pool sizes of the property checks, and how many qualifying instances
# each keeps (the first ones in pool order).
_AF_POOL, _AF_TARGET = 6000, 250
_IF_POOL, _IF_TARGET = 2000, 220
_IF_MARGIN = 8  # extra instances per block, to cover skips in one block
# Reflected points: up to _ROUNDS rounds of _ROUND proposals per instance,
# each round's first _PREFIX drawn before the rest: 94-97% of first hits
# on the m=1..2 pools lie among them, and a block's draw then takes a
# tenth of one full round's.  _PREFIX * (m + 1) is a multiple of 4, as
# stream offsets must be (`samplers.keyed_uniforms`).
_ROUND, _ROUNDS, _PREFIX = 512, 200, 16
_CCINE_POOL, _CCINE_TARGET = 400, 250
_MULTRVA_N = 200_000

CSV_HEADER = "sample_index,seed_hi,seed_lo,class,rho,cond,ln_cond,ipm_proxy"
# The records of an experiment that keeps none: empty (stream index, rho) columns.
NO_RECORDS = ((), ())


@dataclass
class ExperimentConfig:
    kind: str
    m: int = 2
    n: int = 5
    alpha: float = math.pi / 6
    beta: float = 0.0
    h_path: str | None = None
    delta_mode: str = "lemma"
    N: int = 100_000
    master_seed: int = 0
    center: str = "random"  # random, file:PATH, equal-rows or great-circle
    t_grid: tuple | None = None
    k_values: tuple | None = None
    phi: float | None = None
    cap_radius: float | None = None
    placement_offset: float = 0.0
    out_dir: str | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"the sphere dimension m must be at least 1, got {self.m}")
        if self.N < 1:
            raise ConfigError(f"the sample count N must be at least 1, got {self.N}")

    def echo(self) -> dict:
        """Config echo for summaries: every field but the output directory."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}


# ---------------------------------------------------------------------------
# Closed-form bound values


def params_from_config(cfg: ExperimentConfig) -> AdversarialParams:
    h_table = samplers.HTable.from_file(cfg.h_path) if cfg.h_path else None
    return samplers.make_adversarial_params(
        cfg.m, cfg.alpha, cfg.beta, h_table=h_table, delta_mode=cfg.delta_mode
    )


def threshold_F(params: AdversarialParams) -> float:
    m = params.m
    return 13.0 * m * (m + 1) / (2.0 * params.sigma * params.delta_c)


def bound_F(t: float, params: AdversarialParams, n: int) -> float:
    """Feasible-tail upper bound n (13 m (m+1) / (2 sigma))^c t^-c."""
    m, c = params.m, params.c_exponent
    return n * (13.0 * m * (m + 1) / (2.0 * params.sigma)) ** c * t ** (-c)


def bound_I(t: float, params: AdversarialParams, n: int) -> float:
    """Infeasible-tail upper bound, valid for t >= 1."""
    m, c = params.m, params.c_exponent
    lead = n * (1690.0 * m * m * (m + 1) / (4.0 * params.sigma**2)) ** c
    return lead * t ** (-c) * (params.delta_c ** (-c) + c * n * math.log(t))


def bound_Emain(params: AdversarialParams, n: int):
    """(expectation bound, informational_only).

    The explicit constant is only available without a density pole; for
    beta > 0 the value is reported but carries no pass/fail weight.
    """
    m = params.m
    value = (
        12.0 * math.log(n)
        + 17.0 * math.log(m)
        + 6.0 * math.log(1.0 / params.sigma)
        + 8.0 * math.log(params.H)
        + 29.0
    )
    return value, params.beta != 0.0


def default_t_grid(params: AdversarialParams) -> tuple:
    """12 geometric points from threshold_F to 1e4 times it."""
    lo = threshold_F(params)
    return tuple(float(t) for t in np.geomspace(lo, lo * 1e4, 12))


# ---------------------------------------------------------------------------
# Exact feasibility probabilities (Wendel)


def wendel_p_exact(k: int, m: int) -> Fraction:
    """p(k, m) = 2^(1-k) * sum_{i<=m} C(k-1, i), as an exact rational."""
    if k <= m:
        raise ValueError(f"need k > m, got k={k}, m={m}")
    return Fraction(sum(math.comb(k - 1, i) for i in range(m + 1)), 2 ** (k - 1))


def wendel_p(k: int, m: int) -> float:
    return float(wendel_p_exact(k, m))


def pkm_partial_sum(m: int, k_max: int) -> Fraction:
    """sum_{k=4m+1}^{k_max} k p(k, m); the full series is o(1) in m.  One
    integer over 2^(k_max-1): terms k S(k) 2^(k_max-k), S(k) = sum_{i<=m} C(k-1, i)."""
    total = sum(k * sum(math.comb(k - 1, i) for i in range(m + 1)) << (k_max - k)
                for k in range(4 * m + 1, k_max + 1))
    return Fraction(total, 2 ** (k_max - 1))


# ---------------------------------------------------------------------------
# Shared machinery


def binomial_se(p_hat: float, n: int) -> float:
    if n <= 0:
        return math.inf
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def _run_chunks(total: int, workers: int, fn):
    """[fn(lo, hi)] over the fixed chunks of 0..total-1, in chunk order,
    on the calling thread.

    `workers` is ignored: every run is serial, because threads made the
    GIL-bound draws slower, not faster.  The parameter stays because the
    benchmark's tracer (lpbench/tracing.py) wraps this exact signature.
    """
    return [fn(lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK)]


def resolve_center(cfg: ExperimentConfig, params: AdversarialParams) -> Instance:
    """The center instance of the config's n rows on S^m.  A center file of
    another size is a ConfigError naming both sizes."""
    if cfg.center == "random":
        gen = stream(cfg.master_seed, PURPOSE_CENTER).generator()
        return Instance(samplers.uniform_sphere_block(cfg.m, gen, cfg.n))
    if cfg.center.startswith("file:"):
        center = Instance.from_file(cfg.center[5:])
        if (center.n, center.m) != (cfg.n, cfg.m):
            raise ConfigError(f"center file {cfg.center[5:]} holds n={center.n} rows on "
                              f"S^{center.m}, but the config asks for n={cfg.n} on S^{cfg.m}")
        return center
    if cfg.center == "equal-rows":
        gen = stream(cfg.master_seed, PURPOSE_CENTER).generator()
        row = samplers.uniform_sphere_block(cfg.m, gen, 1)[0]
        return Instance(np.tile(row, (cfg.n, 1)))
    if cfg.center == "great-circle":
        angles = np.linspace(0.0, 2.0 * math.pi, cfg.n, endpoint=False)
        mat = np.zeros((cfg.n, cfg.m + 1))
        mat[:, 0] = np.cos(angles)
        mat[:, 1] = np.sin(angles)
        return Instance(mat)
    raise ConfigError(f"unknown center source {cfg.center!r}")


def sample_blocks(cfg: ExperimentConfig, params: AdversarialParams, center: Instance,
                  lo: int, hi: int):
    """Samples lo..hi-1 of the product law as (first sample, stack) pairs
    of at most `samplers.BLOCK_ROWS` rows: drawn by `samplers.cap_batch`,
    normalized as `Instance` does.  The one draw experiments and `sample` make."""
    for start, stop in samplers.sample_ranges(lo, hi, center.n):
        indices = samplers.stream_indices(PURPOSE_SAMPLE, start, stop)
        yield start, sic.unit_rows(samplers.cap_batch(center, params, cfg.master_seed, indices))


def draw_condition_records(cfg: ExperimentConfig, params: AdversarialParams,
                           center: Instance):
    """Sample N instances from the product law and solve each for rho.

    Each chunk draws its samples with `sample_blocks`, so
    `sample_instance(center, params, RngStream(master_seed, seeds[i]))`
    replays exactly the rows solved for sample i.  Each block is solved
    by one `sic.stack_rho` call: at small sizes one max-min scan over row
    subsets answers the whole block and only the samples it routes take
    the per-instance NNLS solve; past them every sample takes the NNLS,
    and Qhull runs only where the hull holds the origin.  Returns the columns (seeds,
    rho): each sample's stream index and rho, NaN where the solve raised
    one of the solver's typed errors, which counts the sample as failed;
    any other error propagates.
    """

    def do_chunk(lo, hi):
        return np.concatenate([sic.stack_rho(mats)
                               for _, mats in sample_blocks(cfg, params, center, lo, hi)])

    seeds = samplers.stream_indices(PURPOSE_SAMPLE, 0, cfg.N)
    rho = np.concatenate(_run_chunks(cfg.N, 1, do_chunk))
    failed = int(np.isnan(rho).sum())
    if failed > 0.001 * cfg.N:
        raise ConfigError(f"{failed} solver failures exceed the 0.1% budget")
    return seeds, rho


def _summary(cfg: ExperimentConfig, **sections) -> dict:
    """A summary body: the config echo, every other section None unless given."""
    return {"config": cfg.echo(), "counts": None, "tail_table": None, "expectation": None,
            "wendel_table": None, "tube_table": None, "property_suite": None, **sections}


def _cond_columns(rho: np.ndarray):
    """(labels, cond) columns of a rho column.

    The class label is SF, IP or IF as `sic.classify_rho` decides, and ""
    for a failed (NaN) sample.  cond is `sic.cond_from_rho`, value by
    value, since numpy's vectorized cos may differ from it in the last bit.
    """
    half_pi = math.pi / 2
    ill = np.abs(rho - half_pi) <= sic.ILL_POSED_BAND
    labels = np.where(np.isnan(rho), "", np.where(ill, "IP", np.where(rho < half_pi, "SF", "IF")))
    return labels, np.array([sic.cond_from_rho(r) for r in rho.tolist()])


def _ln_cond(cond: np.ndarray) -> np.ndarray:
    """`math.log` of each condition number up to `sic.COND_OVERFLOW`, value
    by value (numpy's log may differ in the last bit); NaN past it and for
    failed (NaN) samples."""
    return np.array([math.log(c) if c <= sic.COND_OVERFLOW else math.nan for c in cond.tolist()])


def _counts(labels: np.ndarray, cond: np.ndarray) -> dict:
    """Samples per class, condition numbers past `sic.COND_OVERFLOW` and
    failed solves."""
    counts = {key: int(np.sum(labels == key.upper())) for key in ("sf", "ip", "if")}
    counts.update(overflow=int(np.sum(cond > sic.COND_OVERFLOW)),
                  failed=int(np.sum(labels == "")))
    return counts


# ---------------------------------------------------------------------------
# Experiments


def run_tail_experiment(cfg: ExperimentConfig):
    if cfg.n <= cfg.m + 1:
        raise ConfigError("tail experiment needs n > m+1")
    params = params_from_config(cfg)
    center = resolve_center(cfg, params)
    seeds, rho = draw_condition_records(cfg, params, center)
    grid = default_t_grid(params) if cfg.t_grid is None else tuple(cfg.t_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("t grid must be nonempty and strictly increasing")
    if grid[0] < 1.0:
        raise ConfigError("the infeasible-tail bound needs t >= 1")
    labels, conds = _cond_columns(rho)
    counts = _counts(labels, conds)
    n_eff = cfg.N - counts["failed"]
    t_lo = threshold_F(params)
    is_sf, is_if = labels == "SF", labels == "IF"
    table = []
    for t in grid:
        t = float(t)
        hits_f = int(np.sum(is_sf & (conds >= t)))
        hits_i = int(np.sum(is_if & (conds >= t)))
        emp_f, emp_i = hits_f / n_eff, hits_i / n_eff
        se_f, se_i = binomial_se(emp_f, n_eff), binomial_se(emp_i, n_eff)
        bf, bi = bound_F(t, params, cfg.n), bound_I(t, params, cfg.n)
        covered = t >= t_lo * (1.0 - 1e-12)
        table.append({
            "t": t,
            "emp_F": emp_f, "se_F": se_f, "bound_F": bf,
            "pass_F": (emp_f - 3.0 * se_f <= bf) if covered else None,
            "emp_I": emp_i, "se_I": se_i, "bound_I": bi,
            "pass_I": emp_i - 3.0 * se_i <= bi,
            "covered": covered,
            "vacuous_F": bf >= 1.0, "vacuous_I": bi >= 1.0,
        })
    return (seeds, rho), _summary(cfg, counts=counts, tail_table=table,
                                  delta_c=params.delta_c, threshold_F=t_lo)


def run_expectation_experiment(cfg: ExperimentConfig):
    if cfg.n <= cfg.m + 1:
        raise ConfigError("expectation experiment needs n > m+1")
    params = params_from_config(cfg)
    center = resolve_center(cfg, params)
    seeds, rho = draw_condition_records(cfg, params, center)
    labels, cond = _cond_columns(rho)
    counts = _counts(labels, cond)
    lns = _ln_cond(cond)
    lns = lns[~np.isnan(lns)]
    bound, informational = bound_Emain(params, cfg.n)
    if lns.size >= 2:
        mean = float(np.mean(lns))
        se = float(np.std(lns, ddof=1) / math.sqrt(lns.size))
        passed = None if informational else (mean + 3.0 * se <= bound)
        status = "informational" if informational else ("pass" if passed else "fail")
    else:
        mean = float(lns[0]) if lns.size else None
        se = None
        passed = None
        status = "insufficient-precision"
    expectation = {
        "mean": mean, "se": se, "bound": bound, "pass": passed,
        "status": status, "used": int(lns.size),
        "overflow": counts["overflow"],
    }
    return (seeds, rho), _summary(cfg, counts=counts, expectation=expectation)


def feasible_fraction(m: int, k: int, N: int, master_seed: int):
    """Empirical probability that k uniform rows on S^m are feasible: one
    `sic.stack_feasible` call per block of samples."""

    def do_chunk(lo, hi):
        hits = 0
        for start, stop in samplers.sample_ranges(lo, hi, k):
            indices = samplers.stream_indices(PURPOSE_WENDEL, start, stop)
            mats = samplers.uniform_sphere_batch(m, master_seed, indices, k)
            hits += int(sic.stack_feasible(mats).sum())
        return hits

    hits = sum(_run_chunks(N, 1, do_chunk))
    return hits / N


def run_wendel_experiment(cfg: ExperimentConfig):
    ks = (cfg.m + 2, 2 * cfg.m + 2, 3 * cfg.m + 2) if cfg.k_values is None else cfg.k_values
    table = []
    for k in ks:
        if k <= cfg.m:
            raise ConfigError(f"wendel needs k > m, got k={k}")
        p_exact = wendel_p(k, cfg.m)
        p_hat = feasible_fraction(cfg.m, k, cfg.N, cfg.master_seed)
        gate = 4.0 * math.sqrt(p_exact * (1.0 - p_exact) / cfg.N)
        table.append({
            "k": k, "m": cfg.m, "p_hat": p_hat, "p_exact": p_exact,
            "gate": gate, "pass": abs(p_hat - p_exact) <= gate, "N": cfg.N,
        })
    decay = [
        {"m": mm, "k_max": 4 * mm + 60,
         "partial_sum": float(pkm_partial_sum(mm, 4 * mm + 60))}
        for mm in range(1, 7)
    ]
    return NO_RECORDS, _summary(cfg, wendel_table=table, pkm_decay=decay)


def run_tube_experiment(cfg: ExperimentConfig):
    """Relative volume of the outer/inner phi-neighborhood of a cap boundary
    inside a projective ball, versus the 13m/4 * eps/sigma bound."""
    if cfg.cap_radius is None or cfg.phi is None:
        raise ConfigError("tube experiment needs cap_radius and phi")
    if not 0.0 < cfg.cap_radius < math.pi / 2:
        raise ConfigError("the cap K must be properly convex: radius in (0, pi/2)")
    m = cfg.m
    params = samplers.make_adversarial_params(m, cfg.alpha, 0.0)
    sigma = params.sigma
    eps = math.sin(cfg.phi)
    if eps > sigma / (2.0 * m) + 1e-12:
        raise ConfigError(
            f"eps={eps:.6g} exceeds sigma/(2m)={sigma / (2 * m):.6g}: "
            "outside the bound's hypothesis"
        )
    k_center = np.eye(m + 1)[0]
    a_center = np.zeros(m + 1)
    a_center[0] = math.cos(cfg.placement_offset)
    a_center[1] = math.sin(cfg.placement_offset)

    def do_chunk(lo, hi):
        count = hi - lo
        gen = stream(cfg.master_seed, PURPOSE_TUBE, lo // CHUNK).generator()
        signs = gen.random(count) < 0.5
        pts = samplers.cap_block(a_center, params, gen, count)
        pts = np.where(signs[:, None], pts, -pts)
        d_hull, _, d_bd = cap_distances_batch(pts, k_center, cfg.cap_radius)
        outer = int(np.sum((d_hull > 0.0) & (d_hull < cfg.phi)))
        inner = int(np.sum((d_hull <= 0.0) & (d_bd < cfg.phi)))
        return outer, inner

    results = _run_chunks(cfg.N, 1, do_chunk)
    outer = sum(r[0] for r in results) / cfg.N
    inner = sum(r[1] for r in results) / cfg.N
    se_o, se_i = binomial_se(outer, cfg.N), binomial_se(inner, cfg.N)
    bound = 13.0 * m / 4.0 * eps / sigma
    row = {
        "m": m, "alpha": cfg.alpha, "phi": cfg.phi,
        "cap_radius": cfg.cap_radius, "offset": cfg.placement_offset,
        "est_outer": outer, "se_outer": se_o,
        "est_inner": inner, "se_inner": se_i,
        "bound": bound, "vacuous": bound >= 1.0,
        "pass_outer": outer - 3.0 * se_o <= bound,
        "pass_inner": inner - 3.0 * se_i <= bound,
        "N": cfg.N,
    }
    return NO_RECORDS, _summary(cfg, tube_table=[row])


# ---------------------------------------------------------------------------
# Property suite


def _prop_stream(master: int, check_id: int, index: int) -> RngStream:
    return stream(master, PURPOSE_PROPERTY, (check_id << 32) | index)


def _uniform_instances(master: int, check_id: int, m: int, n: int, count: int):
    lo = check_id << 32  # sample i is _prop_stream(master, check_id, i)
    return np.concatenate([
        samplers.uniform_sphere_batch(
            m, master, samplers.stream_indices(PURPOSE_PROPERTY, start, stop), n)
        for start, stop in samplers.sample_ranges(lo, lo + count, n)
    ])


def _status(qualifying: int, violations: int) -> str:
    if qualifying < 20:
        return "inconclusive"
    return "pass" if violations == 0 else "fail"


def _pool_columns(mats: np.ndarray):
    """(rho, labels, cond) of a property pool of unit rows, by one stack
    solve (`_cond_columns`); a typed solver failure on any instance of the
    pool ends the suite with a ConvergenceError."""
    rho = sic.stack_rho(mats)
    failed = int(np.isnan(rho).sum())
    if failed:
        raise ConvergenceError(f"the solver failed on {failed} property-pool instances")
    return (rho, *_cond_columns(rho))


def _witness_distances(units: np.ndarray) -> np.ndarray:
    """(Q, n): the distance from row j of each instance of units (Q, n, d)
    to sconv of its other rows reflected, by `convexgeom.sconv_distances`
    on slices of at most BLOCK_ROWS generator rows."""
    Q, n, d = units.shape
    if not Q:
        return np.zeros((0, n))
    others = np.array([[k for k in range(n) if k != j] for j in range(n)])
    X, gens = units.reshape(-1, d), -units[:, others].reshape(-1, n - 1, d)
    return np.concatenate([
        convexgeom.sconv_distances(X[lo:hi], gens[lo:hi])
        for lo, hi in samplers.sample_ranges(0, Q * n, n - 1)
    ]).reshape(Q, n)


def _af_check(cfg: ExperimentConfig):
    """Large condition numbers force a row near its complementary hull:
    some row j of each qualifying A lies within phi of sconv(-A without
    row j), and outside it.  All rows of all qualifying instances are one
    stacked hull-distance solve (`_witness_distances`)."""
    m, n = cfg.m, cfg.n
    eps = (m + 1) / 12.0  # qualify at C(A) >= 12
    phi = math.asin(eps)
    mats = _uniform_instances(cfg.master_seed, 1, m, n, _AF_POOL)
    _, labels, cond = _pool_columns(sic.unit_rows(mats))
    qualify_idx = np.flatnonzero((labels == "SF") & (cond >= (m + 1) / eps))[:_AF_TARGET]
    d = _witness_distances(sic.unit_rows(mats[qualify_idx]))
    found = ((convexgeom.MEMBER_TOL < d) & (d <= phi + 1e-6)).any(axis=1)
    q, violations = len(qualify_idx), int((~found).sum())
    return {"check": "feasible-witness", "qualifying": q, "violations": violations,
            "phi": phi, "status": _status(q, violations)}


def _first_members(master: int, keys: np.ndarray, normals: np.ndarray, start: int, count: int):
    """Proposals start..start+count-1 of the streams keys (A,), and the
    position of the first one in each cone with inward facet normals
    normals (A, F, d), -1 where none is.  Membership is min_f <n_f, x> >=
    -1e-10, each <n_f, x> the same elementwise sum whatever the stack.
    Draws hold at most BLOCK_ROWS proposals per array."""
    m = normals.shape[2] - 1
    props = np.concatenate([
        samplers.uniform_sphere_batch(m, master, keys[lo:hi], count, start)
        for lo, hi in samplers.sample_ranges(0, keys.size, count)
    ])
    dots = props[:, :, None, 0] * normals[:, None, :, 0]
    for k in range(1, m + 1):
        dots = dots + props[:, :, None, k] * normals[:, None, :, k]
    inside = dots.min(axis=2) >= -1e-10
    return props, np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def _reflected_points(master: int, mats: np.ndarray, indices: np.ndarray):
    """(b, d_bd) of each strictly feasible A = mats[j], pool index indices[j]:
    b the first proposal of `_prop_stream(master, 3, indices[j])`, 512 a
    round for at most 200 rounds, in cone(-A), and d_bd = min_f arcsin
    |<n_f, b>| its distance to the boundary; NaN where none hit, and at
    once where cone(-A) is flat (no facet).  Membership is over the
    facets of `convexgeom.cone_facets`: cone(-A) is pointed, so the
    intersection of its facet half-spaces.  Each round is drawn for all
    instances still without a b at once (`_first_members`), its first
    _PREFIX proposals first, the rest only where those missed."""
    normals = convexgeom.cone_facets(-mats)
    facet = normals.any(axis=2)
    b = np.full((len(mats), mats.shape[2]), np.nan)
    base = 3 << 32  # sample i is _prop_stream(master, 3, i)
    top = base + int(indices.max(initial=0)) + 1
    keys = samplers.stream_indices(PURPOSE_PROPERTY, base, top)[indices]
    active = np.flatnonzero(facet.any(axis=1))
    draws = [(start + lo, hi - lo) for start in range(0, _ROUNDS * _ROUND, _ROUND)
             for lo, hi in ((0, _PREFIX), (_PREFIX, _ROUND))]
    for start, count in draws:
        if not active.size:
            break
        props, at = _first_members(master, keys[active], normals[active], start, count)
        hit = at >= 0
        b[active[hit]] = props[hit, at[hit]]
        active = active[~hit]
    dots = np.where(facet, np.abs(b[:, None] @ normals.transpose(0, 2, 1))[:, 0], np.inf)
    return b, np.where(np.isnan(b[:, 0]), np.nan, np.arcsin(np.clip(dots.min(axis=1), 0.0, 1.0)))


def _if_check(cfg: ExperimentConfig):
    """Appending a point of the reflected hull caps the new condition number.

    The SF pool instances are taken in pool order, in blocks of the
    qualifying ones still needed plus _IF_MARGIN, each by one
    `_reflected_points` and one `sic.stack_rho` call.  An instance is
    skipped where it has no b or C(A, b) is not finite (a failed solve).
    """
    mats = _uniform_instances(cfg.master_seed, 2, cfg.m, cfg.n, _IF_POOL)
    _, labels, conds = _pool_columns(sic.unit_rows(mats))
    sf = np.flatnonzero(labels == "SF")
    qualifying = violations = skipped = start = 0
    while qualifying < _IF_TARGET and start < sf.size:
        block = sf[start:start + _IF_TARGET - qualifying + _IF_MARGIN]
        start += block.size
        b, d_bd = _reflected_points(cfg.master_seed, mats[block], block)
        found = ~np.isnan(d_bd)
        rho_ab = np.full(block.size, np.nan)
        rho_ab[found] = sic.stack_rho(sic.unit_rows(
            np.concatenate([mats[block[found]], b[found, None]], axis=1)))
        for i, rho, dist in zip(block.tolist(), rho_ab.tolist(), d_bd.tolist()):
            if qualifying >= _IF_TARGET:
                break
            cond_ab = sic.cond_from_rho(rho)
            if not math.isfinite(cond_ab):
                skipped += 1
                continue
            qualifying += 1
            if sic.classify_rho(rho) is FeasibilityClass.STRICTLY_FEASIBLE:
                violations += 1  # (A, b) must be infeasible or ill-posed
            elif cond_ab * math.sin(dist) > 10.0 * conds[i] * (1.0 + 1e-6):
                violations += 1
    return {"check": "infeasible-transition", "qualifying": qualifying,
            "violations": violations, "skipped": skipped,
            "status": _status(qualifying, violations)}


def _ccine_check(cfg: ExperimentConfig):
    """Condition numbers of infeasible prefixes dominate the full instance.

    Compared in rho: a superset's cap cannot be smaller, and for infeasible
    caps C = 1/|cos rho| falls as rho grows.  C itself is no scale for
    roundoff, since dC/drho = C^2 |sin rho| turns a 2e-16 error in rho
    into 3e-10 at C = 1e3.  Each prefix length is one stack of the
    normalized pool rows, normalized once more: `unit_rows` is not
    idempotent, and the suite's outcomes are fixed on these bits.
    """
    m = cfg.m
    n = max(cfg.n, m + 6)
    units = sic.unit_rows(_uniform_instances(cfg.master_seed, 4, m, n, _CCINE_POOL))
    profile = [_pool_columns(sic.unit_rows(units[:, :k])) for k in range(m + 2, n + 1)]
    full_rho = profile[-1][0]
    prefix_if = np.array([np.where(labels == "IF", rho, -np.inf) for rho, labels, _ in profile[:-1]])
    qualify_idx = np.flatnonzero(np.isfinite(prefix_if).any(axis=0))[:_CCINE_TARGET]
    worst = prefix_if.max(axis=0)[qualify_idx]
    violations = int(np.sum(worst > full_rho[qualify_idx] + _PREFIX_RHO_TOL))
    return {"check": "prefix-monotonicity", "qualifying": len(qualify_idx),
            "violations": violations, "status": _status(len(qualify_idx), violations)}


def _multrva_check(cfg: ExperimentConfig):
    """Tail of a product of two heavy-tailed variables vs the product bound."""
    N = _MULTRVA_N  # fixed, like the pools of the other checks
    c = 0.5
    x_u, x_v = 4.0, 9.0
    a_coef, b_coef = 3.0, 4.0  # looser than the exact tails x_u^c = 2, x_v^c = 3
    gen = _prop_stream(cfg.master_seed, 5, 0).generator()
    w = np.clip(gen.random((2, N)), 1e-300, None)
    U = x_u * w[0] ** (-1.0 / c)
    V = x_v * w[1] ** (-1.0 / c)
    prod = U * V
    prod.sort()  # in place: a sorted copy would add 1.6 MB to the peak
    grid = np.geomspace(x_u * x_v, x_u * x_v * 1e4, 12)
    # Exceedance counts are integers, so count / N is np.mean(prod >= x).
    exceed = N - np.searchsorted(prod, grid, side="left")
    rows = []
    violations = 0
    for x, count in zip(grid, exceed.tolist()):
        p_hat = count / N
        se = binomial_se(p_hat, N)
        bound = (c * a_coef * b_coef * x ** (-c) * math.log(max(x / (x_u * x_v), 1.0))
                 + min(a_coef * x_v**c, b_coef * x_u**c) * x ** (-c))
        ok = p_hat - 3.0 * se <= bound
        if not ok:
            violations += 1
        rows.append({"x": float(x), "p_hat": p_hat, "se": se,
                     "bound": bound, "pass": ok})
    return {"check": "product-tail", "qualifying": N, "violations": violations,
            "grid": rows, "status": _status(N, violations)}


def run_property_suite(cfg: ExperimentConfig):
    if cfg.n <= cfg.m + 1:
        raise ConfigError("property suite needs n > m+1")
    suite = {
        "af": _af_check(cfg),
        "if": _if_check(cfg),
        "ccine": _ccine_check(cfg),
        "multrva": _multrva_check(cfg),
    }
    return NO_RECORDS, _summary(cfg, property_suite=suite)


# ---------------------------------------------------------------------------
# Sampler fidelity


def ks_statistic(sample: np.ndarray, cdf_values: np.ndarray) -> float:
    """Two-sided KS distance between an empirical sample and model CDF values
    evaluated at the sorted sample points."""
    n = sample.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - cdf_values, cdf_values - (i - 1) / n)))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    data = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), data, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), data, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int) -> float:
    return 1.63 / math.sqrt(n)


def ks_two_sample_threshold(n1: int, n2: int) -> float:
    return 1.63 * math.sqrt((n1 + n2) / (n1 * n2))


def oracle_radial_cdf(params: AdversarialParams, thetas: np.ndarray) -> np.ndarray:
    """Colatitude CDF by independent adaptive quadrature on a fine grid."""
    from scipy.integrate import quad

    p = params.m - params.beta
    integrand = samplers._substituted_radial(params)
    grid = np.linspace(0.0, 1.0, 2049)
    cells = np.array([
        quad(integrand, grid[i], grid[i + 1], epsabs=1e-12, limit=100)[0]
        for i in range(grid.size - 1)
    ])
    cdf = np.concatenate([[0.0], np.cumsum(cells)])
    cdf /= cdf[-1]
    s_vals = np.clip(thetas / params.alpha, 0.0, 1.0) ** p
    return np.interp(s_vals, grid, cdf)


def run_sampler_check(cfg: ExperimentConfig):
    """Radial-law, symmetry, support, and rejection-oracle fidelity checks."""
    m, N, beta = cfg.m, cfg.N, cfg.beta
    gen = stream(cfg.master_seed, PURPOSE_CHECK, 0).generator()
    abar = samplers.uniform_sphere_block(m, gen, 1)[0]
    params = samplers.make_adversarial_params(m, cfg.alpha, beta, delta_mode=cfg.delta_mode)
    draw_gen = stream(cfg.master_seed, PURPOSE_CHECK, 1 + int(round(1000 * beta))).generator()
    pts = samplers.cap_block(abar, params, draw_gen, N)
    ang = clipped_arccos(pts @ abar)
    support_ok = bool(np.max(ang) <= cfg.alpha + 1e-10)
    theta_sorted = np.sort(ang)
    ks_rad = ks_statistic(theta_sorted, oracle_radial_cdf(params, theta_sorted))
    row = {
        "beta": beta, "alpha": cfg.alpha, "N": N,
        "ks_radial": ks_rad, "ks_radial_threshold": ks_threshold(N),
        "pass_radial": ks_rad <= ks_threshold(N),
        "support_ok": support_ok,
    }
    if m >= 2:
        # Direction symmetry: one angular coordinate must be uniform.
        R = rotation_to(SpherePoint(np.eye(m + 1)[0]), SpherePoint(abar))
        back = pts @ R
        w = back[:, 1:]
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        angle = np.arctan2(w[:, 1], w[:, 0])
        u_sorted = np.sort((angle + math.pi) / (2.0 * math.pi))
        ks_dir = ks_statistic(u_sorted, u_sorted)
        row["ks_direction"] = ks_dir
        row["pass_direction"] = ks_dir <= ks_threshold(N)
    if beta == 0.0:
        rej_gen = stream(cfg.master_seed, PURPOSE_CHECK, 2).generator()
        rej = samplers.rejection_cap_block(abar, cfg.alpha, m, rej_gen, N)
        ks2 = ks_two_sample(ang, clipped_arccos(rej @ abar))
        row["ks_rejection"] = ks2
        row["ks_rejection_threshold"] = ks_two_sample_threshold(N, N)
        row["pass_rejection"] = ks2 <= ks_two_sample_threshold(N, N)
    return NO_RECORDS, _summary(cfg, sampler_table=[row])


# ---------------------------------------------------------------------------
# Persistence


def _fmt(value: float) -> str:
    """A CSV field: repr of the float, "inf", or empty for NaN (no value)."""
    if math.isnan(value):
        return ""
    return "inf" if math.isinf(value) else repr(value)


def persist(records, summary: dict, cfg: ExperimentConfig, out_dir: str):
    """Write the per-sample CSV and the summary JSON; returns their paths.
    The summary is serialized first: one it cannot hold (a NaN, say)
    raises before the directory or either file is made.

    `records` is the (seeds, rho) pair of columns a condition-number
    experiment returns, or `NO_RECORDS`.  Each CSV row is derived from its
    sample's rho by `_cond_columns`, as the experiment's counts were.
    """
    seeds, rho = records
    rho = np.asarray(rho, dtype=float)
    labels, cond = _cond_columns(rho)
    ln_cond = _ln_cond(cond)
    ipm_proxy = math.sqrt(cfg.m + cfg.n) * (math.log(cfg.m + cfg.n) + ln_cond)
    columns = zip(np.asarray(seeds).tolist(), labels.tolist(), rho.tolist(), cond.tolist(),
                  ln_cond.tolist(), ipm_proxy.tolist())
    lines = [f"{i},{cfg.master_seed},{seed},{label},{_fmt(r)},{_fmt(c)},{_fmt(ln)},{_fmt(p)}\n"
             for i, (seed, label, r, c, ln, p) in enumerate(columns)]
    body = dict(summary)
    body.setdefault("N", rho.size)
    text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "records.csv")
    json_path = os.path.join(out_dir, "summary.json")
    try:
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines(lines)
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise OSError(f"failed writing experiment outputs under {out_dir}: {exc}") from exc
    return csv_path, json_path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


"""Multi-cell layout, channel drawing, and user association.

Sites sit on a triangular lattice and carry three sectors each with
boresights 120 degrees apart. The layout is always a wrapped torus, as
in the IMT-Advanced scenario: the site set is a lattice cluster of size
sites = i^2 + i*j + j^2 (1, 3, 4, 7, 9, 12, 13, 16, 19, ...) and
distances are minimized over the 6 cluster translation images, so every
sector sees the same geometry. Each sector coordinates with the sectors
nearest to it on the torus.

The channel is a deliberately simple stand-in for a full stochastic
geometry model, with the fixed physics of the IMT-Advanced deployment:
- 46 dBm per sector, split evenly over the RBs, 10 MHz of bandwidth and
  -114.45 dBm of noise per RB (the radio `simulate` builds);
- pathloss 15.3 + 37.6*log10(d), d in meters;
- lognormal shadowing of 8 dB with 0.5 correlation across sites;
- users at least 25 m from every site;
- the standard parabolic sector pattern in azimuth and in elevation
  about a 12 degree downtilt;
- i.i.d. Rayleigh fast fading per RB.
The powers, noise, bandwidth and tilt are the constants below, and
`antenna_gain` reads the tilt from TILT_DEG; the pathloss, shadowing and
distance are `ChannelConfig`'s defaults.
Everything is a pure function of (config, seed).

Every sector serves the same number of users M, as in the IMT-Advanced
scenario, so each per-user quantity is one array with a leading sector
axis: gains (K, M, N, K), large-scale gains (K, M, K), positions
(K, M, 2). `NetworkDims` refuses unequal counts.
"""

import math
from dataclasses import dataclass

import numpy as np


BORESIGHTS_DEG = (30.0, 150.0, 270.0)
TILT_DEG = 12.0                 # electrical downtilt of every sector
BS_POWER_DBM = 46.0             # per sector, over all RBs
NOISE_PER_RB_DBM = -114.45
BANDWIDTH_HZ = 10e6


@dataclass(frozen=True)
class NetworkDims:
    K: int                        # sector count
    sites: int
    M: tuple                      # per-sector user counts, all equal
    N: int                        # RB count

    def __post_init__(self):
        object.__setattr__(self, "M", tuple(int(m) for m in self.M))
        if self.K < 1 or self.N < 1 or self.sites < 1:
            raise ValueError("K, N, sites must all be >= 1")
        if len(self.M) != self.K or any(m < 1 for m in self.M):
            raise ValueError("need one user count >= 1 per sector")
        if len(set(self.M)) > 1:
            raise ValueError(f"every sector needs the same user count, "
                             f"got M={self.M}")
        if self.sites * 3 != self.K:
            raise ValueError(
                f"tri-sector layout needs K = 3*sites, got K={self.K} "
                f"sites={self.sites}")

    @classmethod
    def uniform(cls, sites, users_per_sector, n_rbs):
        k = 3 * sites
        return cls(K=k, sites=sites, M=(users_per_sector,) * k, N=n_rbs)


@dataclass
class Layout:
    site_xy: np.ndarray           # (sites, 2) meters
    sector_site: np.ndarray       # (K,) site index of each sector
    boresight_deg: np.ndarray     # (K,)
    isd: float
    images: np.ndarray            # (7, 2): zero, the 6 cluster translations

    def sector_xy(self):
        return self.site_xy[self.sector_site]

    def torus_delta(self, from_xy, to_xy):
        """Displacement from -> to through the nearest wraparound image.

        from_xy: (..., 2); to_xy: (..., 2); returns (..., 2). Ties go to
        the first image.
        """
        delta = np.asarray(to_xy) - np.asarray(from_xy)
        d2 = np.square(delta[..., 0, None] + self.images[:, 0])   # (..., I)
        d2 += np.square(delta[..., 1, None] + self.images[:, 1])
        best = np.argmin(d2, axis=-1)
        return delta + self.images[best]

    def torus_distance(self, from_xy, to_xy):
        return np.linalg.norm(self.torus_delta(from_xy, to_xy), axis=-1)


def _cluster_shape(sites):
    """Find lattice indices (i, j), i >= j >= 0, with i^2 + i*j + j^2 =
    sites, smallest i first."""
    for i in range(0, math.isqrt(sites) + 1):
        # j is the non-negative root of j^2 + i*j + (i^2 - sites) = 0
        disc = 4 * sites - 3 * i * i
        root = math.isqrt(disc)
        j, odd = divmod(root - i, 2)
        if root * root == disc and not odd and 0 <= j <= i:
            return i, j
    raise ValueError(
        f"{sites} sites cannot tile a wraparound layout; use a count of the "
        f"form i^2+ij+j^2 (1, 3, 4, 7, 9, 12, 13, 16, 19, 21, 25, ...)")


def generate_layout(dims, isd):
    """Hexagonal-lattice site cluster with tri-sector boresights on the
    wraparound torus.

    Deterministic: the geometry has no random component.
    """
    if isd <= 0:
        raise ValueError("inter-site distance must be positive")
    i, j = _cluster_shape(dims.sites)

    a1 = np.array([isd, 0.0])
    a2 = np.array([0.5 * isd, 0.5 * math.sqrt(3.0) * isd])
    t1 = i * a1 + j * a2
    # 60-degree rotation stays inside the lattice, giving the second
    # translation vector t2 = rot @ t1 of the wraparound group
    rot = np.array([[0.5, -0.5 * math.sqrt(3.0)],
                    [0.5 * math.sqrt(3.0), 0.5]])

    # lattice points u*a1 + v*a2 in the fundamental parallelogram of
    # t1 = (i, j) and t2 = (-j, i + j), in (a1, a2) coordinates, whose
    # determinant is the site count; the box holds its four corners
    pts = []
    for u in range(-j, i + 1):
        for v in range(0, i + 2 * j + 1):
            if 0 <= (i + j) * u + j * v < dims.sites \
                    and 0 <= i * v - j * u < dims.sites:
                pts.append(u * a1 + v * a2)
    if len(pts) != dims.sites:
        raise AssertionError(
            f"cluster enumeration found {len(pts)} sites, expected {dims.sites}")
    site_xy = np.array(sorted(pts, key=lambda p: (round(p[1], 6), round(p[0], 6))))

    sector_site = np.repeat(np.arange(dims.sites), 3)
    boresight = np.tile(np.array(BORESIGHTS_DEG), dims.sites)

    images = [np.zeros(2)]
    vec = t1.copy()
    for _ in range(6):
        images.append(vec.copy())
        vec = rot @ vec
    images = np.array(images)

    return Layout(site_xy=site_xy, sector_site=sector_site,
                  boresight_deg=boresight, isd=float(isd), images=images)


def antenna_gain(theta_deg, phi_deg):
    """Combined sector pattern in dB (boresight gain applied separately).

    Azimuth: -min(12*(theta/70)^2, 20); elevation: -min(12*((phi-tilt)/15)^2, 20)
    with tilt = TILT_DEG; combined: -min(-(A + A_e), 20).
    """
    theta = np.abs(((np.asarray(theta_deg, dtype=float) + 180.0) % 360.0) - 180.0)
    a_h = -np.minimum(12.0 * (theta / 70.0) ** 2, 20.0)
    a_v = -np.minimum(12.0 * ((np.asarray(phi_deg, dtype=float) - TILT_DEG)
                              / 15.0) ** 2, 20.0)
    return -np.minimum(-(a_h + a_v), 20.0)


@dataclass(frozen=True)
class ChannelConfig:
    """Large-scale model; the defaults are the IMT-Advanced deployment
    that every run uses."""

    pathloss_a_db: float = 15.3
    pathloss_b_db: float = 37.6           # dB per decade of distance
    shadowing_sigma_db: float = 8.0
    shadowing_cross_corr: float = 0.5     # across sites, same user
    bs_height_m: float = 25.0
    ut_height_m: float = 1.5
    min_bs_dist_m: float = 25.0
    boresight_gain_dbi: float = 17.0
    feeder_loss_db: float = 2.0


@dataclass
class NeighborMap:
    """Symmetric fixed-cardinality interferer sets per sector, at least
    one each: a sector without neighbors has nothing to coordinate."""

    nbr: np.ndarray       # (K, K_tilde) int

    def __post_init__(self):
        self.nbr = np.asarray(self.nbr, dtype=int)
        k, kt = self.nbr.shape
        if kt == 0:
            raise ValueError("k_tilde = 0: every sector needs a neighbor")
        sets = [set(row.tolist()) for row in self.nbr]
        sectors = set(range(k))
        for a in range(k):
            if len(sets[a]) != kt or a in sets[a] or not sets[a] <= sectors:
                raise ValueError(f"sector {a}: bad neighbor row {self.nbr[a]}")
        for a in range(k):
            for b in self.nbr[a]:
                if a not in sets[b]:
                    raise ValueError(f"neighbor relation not symmetric: "
                                     f"{b} in {a}'s set but not conversely")

    @property
    def K(self):
        return self.nbr.shape[0]

    @property
    def k_tilde(self):
        return self.nbr.shape[1]


def ring_neighbor_map(num_sectors, k_tilde):
    """Circulant neighbor sets: offsets +-1..+-(kt//2), plus K/2 if odd."""
    if k_tilde >= num_sectors:
        raise ValueError("k_tilde must be < number of sectors")
    offs = []
    for d in range(1, k_tilde // 2 + 1):
        offs += [d, -d]
    if k_tilde % 2 == 1:
        if num_sectors % 2 != 0:
            raise ValueError("odd k_tilde on a ring needs an even sector count")
        offs.append(num_sectors // 2)
    rows = [sorted((k + o) % num_sectors for o in offs)
            for k in range(num_sectors)]
    return NeighborMap(nbr=np.array(rows))


def _coupling_scores(layout):
    """Symmetric pairwise closeness score between sectors (higher =
    closer): minus the torus distance between points a third of an ISD
    out along each boresight."""
    k = layout.sector_site.shape[0]
    ref = layout.sector_xy() + (layout.isd / 3.0) * np.column_stack([
        np.cos(np.radians(layout.boresight_deg)),
        np.sin(np.radians(layout.boresight_deg))])
    score = np.full((k, k), -np.inf)
    # elementwise, so each entry is the float of the one-pair call;
    # a -> b and b -> a may differ in the last bit, so mirror a < b
    upper = np.triu_indices(k, 1)
    dist = layout.torus_distance(ref[:, None], ref[None, :])
    score[upper] = -dist[upper]
    score[upper[::-1]] = score[upper]
    return score


def neighbor_map(layout, k_tilde=6):
    """Symmetric K_tilde-regular neighbor sets, nearest on the torus.

    Greedy b-matching on the coupling scores with a deterministic repair
    pass; raises if the requested regular relation cannot be completed.
    """
    k = layout.sector_site.shape[0]
    if k_tilde >= k:
        raise ValueError("k_tilde must be < number of sectors")
    score = _coupling_scores(layout)
    # pairs a < b by score, high first, ties by (a, b)
    first, second = np.triu_indices(k, 1)
    order = np.lexsort((second, first, -score[first, second]))
    deg = np.zeros(k, dtype=int)
    adj = [set() for _ in range(k)]
    for a, b in zip(first[order].tolist(), second[order].tolist()):
        if deg[a] < k_tilde and deg[b] < k_tilde:
            adj[a].add(b)
            adj[b].add(a)
            deg[a] += 1
            deg[b] += 1
    for _ in range(2 * k * k_tilde):
        short = [v for v in range(k) if deg[v] < k_tilde]
        if not short:
            break
        fixed = False
        for a in short:
            cands = [b for b in short if b != a and b not in adj[a]]
            if cands:
                b = max(cands, key=lambda v: (score[a, v], -v))
                adj[a].add(b)
                adj[b].add(a)
                deg[a] += 1
                deg[b] += 1
                fixed = True
                break
        if fixed:
            continue
        # deficient sectors are mutually exhausted: break an existing edge
        # (c, d) away from them and reconnect across it
        a = short[0]
        b = short[1] if len(short) > 1 else short[0]
        edges = sorted({(min(c, d), max(c, d))
                        for c in range(k) for d in adj[c]})
        done = False
        for c, d in sorted(edges, key=lambda e: score[e]):
            if {c, d} & {a, b}:
                continue
            for c2, d2 in ((c, d), (d, c)):
                if c2 not in adj[a] and d2 not in adj[b] \
                        and (a != b or c2 != d2):
                    adj[c2].discard(d2), adj[d2].discard(c2)
                    adj[a].add(c2), adj[c2].add(a)
                    adj[b].add(d2), adj[d2].add(b)
                    deg[a] += 1
                    deg[b] += 1
                    done = True
                    break
            if done:
                break
        if not done:
            break
    if any(len(adj[v]) != k_tilde for v in range(k)):
        raise ValueError(
            f"could not complete a symmetric {k_tilde}-regular "
            f"neighbor relation over {k} sectors")
    rows = [sorted(adj[v]) for v in range(k)]
    return NeighborMap(nbr=np.array(rows))


@dataclass
class ChannelTensor:
    """Linear power gains from every sector to every user, per RB.

    Every sector has M users. gains is one (K, M, N, K) array: gains[k, m]
    is user m of sector k, and column j of the last axis is the gain from
    sector j. large_scale is the (K, M, K) gain without fast fading
    (association view) and user_xy the (K, M, 2) user positions.
    """

    gains: np.ndarray
    large_scale: np.ndarray
    user_xy: np.ndarray


def _large_scale_gain_db(layout, cfg, user_xy, shadow_db):
    """(users, K) gains: pathloss + shadowing + antenna pattern + boresight.

    All sectors at once: the (users, K) pairs are elementwise, so each
    entry is the same float as when computed one sector at a time.
    """
    dh = cfg.bs_height_m - cfg.ut_height_m
    delta = layout.torus_delta(layout.sector_xy(),
                               user_xy[:, None, :])       # (users, K, 2)
    dist_h = np.maximum(np.linalg.norm(delta, axis=-1), 1.0)
    dist = np.hypot(dist_h, dh)
    theta = np.degrees(np.arctan2(delta[..., 1], delta[..., 0])) \
        - layout.boresight_deg
    phi = np.degrees(np.arctan2(dh, dist_h))
    pattern = antenna_gain(theta, phi)
    pl = cfg.pathloss_a_db + cfg.pathloss_b_db * np.log10(dist)
    return (-pl + pattern + cfg.boresight_gain_dbi - cfg.feeder_loss_db
            + shadow_db[:, layout.sector_site])


def _draw_shadowing(rng, sigma, cross_corr, num_sites):
    common = rng.normal() * math.sqrt(cross_corr)
    per_site = rng.normal(size=num_sites) * math.sqrt(1.0 - cross_corr)
    return sigma * (common + per_site)


def associate_users(wideband_gains, radio):
    """Serving sector per user by highest wideband SINR (no fast fading).

    wideband_gains: (users, K) linear. Ties break to the lowest index.
    """
    g = np.asarray(wideband_gains, dtype=float)
    total = g.sum(axis=1, keepdims=True)
    sinr = g / (total - g + radio.p_n_watts / radio.p_c_watts)
    return np.argmax(sinr, axis=1)


def draw_channels(layout, dims, cfg, radio, seed):
    """Drop users, draw shadowing and fading, and build the gain tensor.

    Users are drawn uniformly on the torus and kept when their best
    wideband-SINR sector still has quota, so the association invariant
    holds by construction. Deterministic for a given (config, seed).
    """
    rng = np.random.default_rng(seed)
    t1, t2 = layout.images[1], layout.images[2]   # one cluster cell

    quota = list(dims.M)
    flat_xy, shadow, owners = [], [], []
    attempts = 0
    max_attempts = 4000 * sum(dims.M)
    while any(q > 0 for q in quota):
        attempts += 1
        if attempts > max_attempts:
            unfilled = [k for k, q in enumerate(quota) if q > 0]
            raise RuntimeError(
                f"user drop did not converge: sectors {unfilled} still "
                f"lacked users after {max_attempts} tries")
        s, t = rng.random(2)
        pos = s * t1 + t * t2
        if np.min(layout.torus_distance(pos, layout.site_xy)) \
                < cfg.min_bs_dist_m:
            continue
        sh = _draw_shadowing(rng, cfg.shadowing_sigma_db,
                             cfg.shadowing_cross_corr, dims.sites)
        g_db = _large_scale_gain_db(layout, cfg, pos[None, :], sh[None, :])
        best = int(associate_users(10 ** (g_db / 10.0), radio)[0])
        if quota[best] <= 0:
            continue
        quota[best] -= 1
        flat_xy.append(pos)
        shadow.append(sh)
        owners.append(best)
    flat_xy = np.array(flat_xy)
    shadow = np.array(shadow)
    owners = np.array(owners)

    # the users in sector order, each sector's in drop order
    order = np.argsort(owners, kind="stable")
    users = (dims.K, dims.M[0])
    large = 10 ** (_large_scale_gain_db(layout, cfg, flat_xy[order],
                                        shadow[order]) / 10.0)
    large = large.reshape(*users, dims.K)
    grid = rng.standard_exponential(size=users + (dims.N, dims.K))
    grid *= large[:, :, None, :]
    return ChannelTensor(gains=grid, large_scale=large,
                         user_xy=flat_xy[order].reshape(*users, 2))


def refade(large_scale, dims, rngs):
    """Redraw the fast fading of a drop group on its large-scale gains.

    large_scale: (D, K, M, K), one drop per leading row; rngs: one
    generator per drop. Returns a new (D, K, M, N, K) array on every
    call, so gains kept from earlier sub-frames never change. Drop d's
    slice is one standard exponential draw from rngs[d] times its
    large-scale gains: numpy draws exponential(scale) as scale times
    standard_exponential, so these are the numbers that one (M, N, K)
    `exponential` draw per sector in sector order gives, and each
    generator ends in the state those draws leave.
    """
    grid = np.empty(large_scale.shape[:-1] + (dims.N, dims.K))
    for d, rng in enumerate(rngs):
        rng.standard_exponential(out=grid[d])
    grid *= large_scale[..., None, :]
    return grid


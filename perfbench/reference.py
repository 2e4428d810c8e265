"""Independent reference evaluator for the benchmark's output checks.

Plain numpy and the standard library; nothing here imports ``framerisk``.
Every quantity is rebuilt from the model as the package documents it:

* members are sized by inverting the intact (normal loading, 1.2D + 1.6L)
  and damaged (element removal, 1.2D + 0.5L) strength equations at the
  factored load, the strengthened columns never below the normal ones;
* closed-form collapse strengths: beam hinge mechanisms (16 B/L^2 intact,
  4 B/(n_rc L^2) bridging, with catenary factors 1 + psi/8 and 1 + psi/4)
  and column crushing by load share for the intact, local-pancake and
  global-pancake cases;
* the Cornell index beta = (r mu_R - mu_D - mu_L) / sqrt(r^2 s_R^2 + s_D^2
  + s_L^2) and failure probability Phi(-beta);
* the progression chain: at the initial extent the largest of the three
  probability-weighted collapse costs, at each later extent (two more
  columns at a time, two columns always remaining) the local-pancake cost
  unweighted inside a chain weight equal to the probability that local
  pancake reached and advances at that extent; the damage branch is the
  maximum over the chain;
* total expected cost = construction + normal-loading failure (ductile
  and brittle multipliers on the unit-factor construction cost) + p_ld *
  (initial damage cost + damage branch).

Scenarios are the JSON-shaped dicts the package's scenario files use, with
the reference-case defaults for omitted keys (load statistics are always
derived from the nominal loads here).
"""

from __future__ import annotations

import math

import numpy as np

# Published values of the reference study (paper tables): column
# strengthening factors per frame for damage 1x1, 1x0, 2x1, 3x2, the beam
# factors (geometry independent), and the 26-entry reliability-index grid.
PUBLISHED_DAMAGES = ("1x1", "1x0", "2x1", "3x2")
PUBLISHED_R_SF = {
    "16x4": (1.38, 1.42, 1.98, 2.47),
    "13x5": (1.29, 1.34, 1.87, 2.29),
    "11x6": (1.24, 1.29, 1.78, 2.17),
    "8x8": (1.15, 1.23, 1.66, 1.95),
    "6x11": (1.08, 1.17, 1.55, 1.74),
    "5x13": (1.04, 1.15, 1.48, 1.60),
    "4x16": (1.00, 1.13, 1.40, 1.40),
}
PUBLISHED_B_SF = (2.06, 2.06, 4.13, 6.19)
# (live horizon, mode) -> (nlc, strengthened, damaged, optimized); None
# where the paper has no entry.
PUBLISHED_BETA = {
    ("apt", "global_pancake"): (3.56, 3.82, 3.46, 3.93),
    ("apt", "local_pancake"): (None, None, 1.80, 2.62),
    ("apt", "bending"): (3.99, 5.10, 2.03, 1.61),
    ("apt", "catenary"): (4.42, 5.31, 3.36, None),
    ("50yr", "global_pancake"): (2.46, 2.85, 2.30, 3.03),
    ("50yr", "local_pancake"): (None, None, -0.02, 1.08),
    ("50yr", "bending"): (2.76, 4.50, 0.06, -0.45),
    ("50yr", "catenary"): (3.43, 4.83, 1.84, None),
}

# Catalog frames, "stories x bays" with 6 m bays and 3 m stories.
CATALOG = {
    "16x4": (16, 5),
    "13x5": (13, 6),
    "11x6": (11, 7),
    "8x8": (8, 9),
    "6x11": (6, 12),
    "5x13": (5, 14),
    "4x16": (4, 17),
}

_DEFAULTS = {
    "n_s": 8, "n_c": 9, "L": 6.0, "H": 3.0,
    "d_n": 1.0, "l_n": 1.0,
    "n_rc0": 1, "n_rs0": 1,
    "alpha_b": 0.7, "alpha_c": 0.7, "k_ductile": 20.0, "k_brittle": 40.0, "n_reinf_s": 2,
    "p_ld": 0.1, "psi": 2.0, "include_catenary": False, "phi_nlc": 0.85, "phi_apm": 1.0,
}
# (mean, std) per unit nominal load, and the resistance model factors.
_DEAD = (1.05, 0.105)
_LIVE_APT = (0.25, 0.25 * 0.55)
_LIVE_50 = (1.00, 0.25)
_R_BEAM = (1.22, 0.20)
_R_COLUMN = (1.20, 0.22)


def pf_of_beta(beta) -> np.ndarray:
    """Phi(-beta) elementwise, through the complementary error function."""
    b = np.asarray(beta, dtype=float)
    return np.array([0.5 * math.erfc(x / math.sqrt(2.0)) for x in b.ravel()]).reshape(b.shape)


class Reference:
    """Sizing, strengths, indexes and expected cost of one scenario dict."""

    def __init__(self, doc: dict | None = None):
        doc = doc or {}
        p = dict(_DEFAULTS)
        for group in ("geometry", "damage", "costs", "loads"):
            p.update(doc.get(group, {}))
        p.update({k: v for k, v in doc.items() if k not in ("geometry", "damage", "costs", "loads")})
        self.p = p
        self.n_s, self.n_c = int(p["n_s"]), int(p["n_c"])
        self.L, self.H = float(p["L"]), float(p["H"])
        self.n_rc0, self.n_rs0 = int(p["n_rc0"]), int(p["n_rs0"])
        self.p_ld = float(p["p_ld"])
        self.psi = float(p["psi"])
        self.psi_b = self.psi if p["include_catenary"] else 0.0
        d_n, l_n = float(p["d_n"]), float(p["l_n"])
        self.dead = (_DEAD[0] * d_n, _DEAD[1] * d_n)
        self.live = {"apt": (_LIVE_APT[0] * l_n, _LIVE_APT[1] * l_n), "50yr": (_LIVE_50[0] * l_n, _LIVE_50[1] * l_n)}
        self._size(d_n, l_n, float(p["phi_nlc"]), float(p["phi_apm"]))
        self._costs()

    # -- strengths (kN/m) per unit capacity argument -------------------------

    def s_bend_intact(self, b_y, psi):
        return 16.0 * b_y / self.L**2 * (1.0 + psi / 8.0)

    def s_bend_damaged(self, b_y, n_rc, psi):
        return 4.0 * b_y / (n_rc * self.L**2) * (1.0 + psi / 4.0)

    def s_pancake_intact(self, r_c):
        return r_c / self.L * self.n_c / (self.n_s * (self.n_c - 1))

    def _share(self, n_rc, n_rs):
        return 2.0 - (self.n_c - 1) / self.n_c + n_rc * (1.0 - n_rs / self.n_s)

    def s_pancake_local(self, r_c, n_rc, n_rs):
        return r_c / self.L / (self.n_s * self._share(n_rc, n_rs))

    def s_pancake_global(self, r_c, n_rc, n_rs):
        n_c, n_s = self.n_c, self.n_s
        den = (n_c - 1) * (n_c + n_rc) - 2.0 * (n_rs / n_s) * n_rc * n_c
        return r_c / (self.L * n_s) * n_c * (n_c - n_rc) / den

    # -- sizing --------------------------------------------------------------

    def _size(self, d_n, l_n, phi_nlc, phi_apm):
        q = 1.2 * d_n + 1.6 * l_n
        self.b_y_nlc = q / (phi_nlc * self.s_bend_intact(1.0, 0.0))
        self.r_c_nlc = q / (phi_nlc * self.s_pancake_intact(1.0))
        q0 = 1.2 * d_n + 0.5 * l_n
        self.b_y_0 = q0 / (phi_apm * self.s_bend_damaged(1.0, self.n_rc0, 0.0))
        self.r_c_0 = max(self.r_c_nlc, q0 / (phi_apm * self.s_pancake_local(1.0, self.n_rc0, self.n_rs0)))
        self.b_sf = self.b_y_0 / self.b_y_nlc
        self.r_sf = self.r_c_0 / self.r_c_nlc

    # -- reliability ---------------------------------------------------------

    def beta(self, r, resistance, live):
        mu_r, s_r = resistance
        mu_l, s_l = self.live[live]
        r = np.asarray(r, dtype=float)
        return (r * mu_r - self.dead[0] - mu_l) / np.sqrt(r * r * s_r**2 + self.dead[1] ** 2 + s_l**2)

    def beta_intact(self, mode, lam, nlc=False, live="50yr"):
        b_y, r_c = (self.b_y_nlc, self.r_c_nlc) if nlc else (self.b_y_0, self.r_c_0)
        if mode == "bending":
            return self.beta(self.s_bend_intact(lam * b_y, self.psi_b), _R_BEAM, live)
        if mode == "catenary":
            return self.beta(self.s_bend_intact(lam * b_y, self.psi), _R_BEAM, live)
        if mode == "global_pancake":
            return self.beta(self.s_pancake_intact(lam * r_c), _R_COLUMN, live)
        raise ValueError(f"{mode} has no intact-frame index")

    def beta_damaged(self, mode, lam, n_rc=None, n_rs=None, live="apt"):
        n_rc = self.n_rc0 if n_rc is None else n_rc
        n_rs = self.n_rs0 if n_rs is None else n_rs
        if mode == "bending":
            return self.beta(self.s_bend_damaged(lam * self.b_y_0, n_rc, self.psi_b), _R_BEAM, live)
        if mode == "catenary":
            return self.beta(self.s_bend_damaged(lam * self.b_y_0, n_rc, self.psi), _R_BEAM, live)
        if mode == "local_pancake":
            return self.beta(self.s_pancake_local(lam * self.r_c_0, n_rc, n_rs), _R_COLUMN, live)
        if mode == "global_pancake":
            return self.beta(self.s_pancake_global(lam * self.r_c_0, n_rc, n_rs), _R_COLUMN, live)
        raise ValueError(f"unknown mode {mode}")

    def beta_grid(self, lambda_b: float, lambda_c: float) -> dict:
        """(live, mode) -> (nlc, strengthened, damaged, at factors) with
        None where the intact frame has no local-pancake index."""
        out = {}
        for live in ("apt", "50yr"):
            for mode in ("global_pancake", "local_pancake", "bending", "catenary"):
                lam = lambda_b if mode in ("bending", "catenary") else lambda_c
                if mode == "local_pancake":
                    nlc = strengthened = None
                else:
                    nlc = float(self.beta_intact(mode, 1.0, nlc=True, live=live))
                    strengthened = float(self.beta_intact(mode, 1.0, live=live))
                damaged = float(self.beta_damaged(mode, 1.0, live=live))
                at = float(self.beta_damaged(mode, lam, live=live))
                out[(live, mode)] = (nlc, strengthened, damaged, at)
        return out

    # -- costs ---------------------------------------------------------------

    def _costs(self):
        p, n_s, n_c, L, H = self.p, self.n_s, self.n_c, self.L, self.H
        self.c_ref = L * n_s * (n_c - 1) + H * n_s * n_c
        n_r, a_b, a_c = int(p["n_reinf_s"]), float(p["alpha_b"]), float(p["alpha_c"])
        self._beam_cost = lambda lb: (n_s - n_r) + n_r * (lb * a_b * self.b_sf + 1.0 - a_b)
        self._col_cost = lambda lc: (n_s - n_r) + n_r * (lc * a_c * self.r_sf + 1.0 - a_c)
        self.c_11 = float(self.construction(1.0, 1.0))
        k_d, k_b = float(p["k_ductile"]), float(p["k_brittle"])
        self.c_nlc = k_d * self.c_11
        self.c_pg = k_b * self.c_11
        self.c_id = (2.0 * L * self.n_rs0 + H * self.n_rc0) / self.c_ref
        beams, cols = self._beam_cost(1.0), self._col_cost(1.0)
        self.stages = list(range(self.n_rc0, n_c - 1, 2)) if self.n_rc0 >= 1 else []
        self.c_b = [k_d / self.c_ref * (min(j + 1, n_c - 1) * L * beams + min(j, n_c) * H * cols) for j in self.stages]
        self.c_pl = [k_b / self.c_ref * (min(j + 3, n_c - 1) * L * beams + min(j + 2, n_c) * H * cols) for j in self.stages]

    def construction(self, lambda_b, lambda_c):
        """Normalized construction cost, broadcast over the factor arrays."""
        lb, lc = np.asarray(lambda_b, dtype=float), np.asarray(lambda_c, dtype=float)
        return (self.L * (self.n_c - 1) * self._beam_cost(lb) + self.H * self.n_c * self._col_cost(lc)) / self.c_ref

    def _stage_pf(self, k, lb, lc):
        j = self.stages[k]
        p_b = pf_of_beta(self.beta_damaged("bending", lb, n_rc=j))
        p_pl = pf_of_beta(self.beta_damaged("local_pancake", lc, n_rc=j))
        p_pg = pf_of_beta(self.beta_damaged("global_pancake", lc, n_rc=j))
        return p_b, p_pl, p_pg

    def damage_branch(self, lambda_b, lambda_c):
        """Maximum expected collapse cost over the chain, on the outer grid
        of the factor vectors (scalars give a 1x1 array)."""
        lb = np.atleast_1d(np.asarray(lambda_b, dtype=float))[:, None]
        lc = np.atleast_1d(np.asarray(lambda_c, dtype=float))[None, :]
        best = np.zeros((lb.shape[0], lc.shape[1]))
        reach = np.ones_like(lc)
        for k in range(len(self.stages)):
            p_b, p_pl, p_pg = self._stage_pf(k, lb, lc)
            if k == 0:
                stage = np.maximum(p_b * self.c_b[0], np.maximum(p_pl * self.c_pl[0], p_pg * self.c_pg))
            else:
                stage = reach * p_pl * np.maximum(p_b * self.c_b[k], np.maximum(self.c_pl[k], p_pg * self.c_pg))
            best = np.maximum(best, stage)
            reach = reach * p_pl
        return best

    def objective(self, lambda_b, lambda_c, p_ld: float | None = None):
        """Total expected cost on the outer grid of the factor vectors."""
        p_ld = self.p_ld if p_ld is None else p_ld
        lb = np.atleast_1d(np.asarray(lambda_b, dtype=float))
        lc = np.atleast_1d(np.asarray(lambda_c, dtype=float))
        pf_b50 = pf_of_beta(self.beta_intact("bending", lb))[:, None]
        pf_pg50 = pf_of_beta(self.beta_intact("global_pancake", lc))[None, :]
        total = self.construction(lb[:, None], lc[None, :])
        total = total + self.c_nlc * pf_b50 + self.c_pg * pf_pg50
        return total + p_ld * (self.c_id + self.damage_branch(lb, lc))


def frame_doc(frame: str) -> dict:
    """Scenario dict of a catalog frame, everything else at the defaults."""
    n_s, n_c = CATALOG[frame]
    return {"geometry": {"n_s": n_s, "n_c": n_c}}


def annual_from_lifetime(p: float) -> float:
    return -math.log1p(-p) / 50.0

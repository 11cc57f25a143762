"""Von Mises radial return with a consistent tangent, batched over
quadrature points (Simo & Hughes, Computational Inelasticity, ch. 3-4).

Voigt convention throughout: [xx, yy, zz, xy, yz, zx] with engineering
shear strains (gamma) and tensor shear stresses.  The yield stress is a
piecewise-linear function of equivalent plastic strain: a plateau at
plateau_frac * sigma_y0 up to eps_plateau, then linear softening with
slope soft_frac * E, floored at floor_frac * plateau.
"""

import numpy as np


def _yield_stress(alpha, plateau, h_soft, eps_plateau, floor):
    sy = np.where(alpha <= eps_plateau, plateau,
                  plateau + h_soft * (alpha - eps_plateau))
    return np.maximum(sy, floor)


# Fourth-order projectors in Voigt form: the volumetric part (1 (x) 1) and
# the deviatoric part, which maps an engineering shear strain to half of
# it in tensor shear stress.
_EYE3 = np.zeros((6, 6))
_EYE3[:3, :3] = 1.0
_IDEV = np.zeros((6, 6))
_IDEV[:3, :3] = -1.0 / 3.0
_IDEV[0, 0] = _IDEV[1, 1] = _IDEV[2, 2] = 2.0 / 3.0
_IDEV[3, 3] = _IDEV[4, 4] = _IDEV[5, 5] = 0.5


def _moduli(emod, nu):
    """Shear modulus, Lame's first parameter and bulk modulus of emod."""
    g = emod / (2.0 * (1.0 + nu))
    lam = emod * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return g, lam, lam + 2.0 * g / 3.0


def _isotropic(kb, shear):
    """kb (1 (x) 1) + shear * I_dev for each point, (n, 6, 6)."""
    tangent = np.zeros((kb.size, 6, 6))
    tangent += kb[:, None, None] * _EYE3
    tangent += shear[:, None, None] * _IDEV
    return tangent


def elastic_tangent(emod, nu):
    """Isotropic elastic tangents (n, 6, 6) of the moduli emod (n,): the
    tangent radial_return_batch gives every point that stays elastic, with
    the same bits."""
    g, _, kb = _moduli(np.asarray(emod, dtype=float), nu)
    return _isotropic(kb, 2.0 * g)


def radial_return_batch(strain, eps_p, alpha, emod, nu, sigma_y0,
                        plateau_frac, eps_plateau, soft_frac, floor_frac, elastic):
    """Elastic predictor / radial return over a batch of quadrature points.

    strain, eps_p: (n, 6) engineering Voigt; alpha, emod, sigma_y0: (n,);
    elastic: (n, 6, 6) elastic_tangent(emod, nu), which a caller with fixed
    moduli computes once.  The tangent of a point that stays elastic is a
    copy of its row; the consistent tangent is computed only for the
    points that yield.
    Returns (stress (n,6), tangent (n,6,6), eps_p_new, alpha_new).
    """
    strain = np.asarray(strain, dtype=float)
    eps_p = np.asarray(eps_p, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    emod = np.asarray(emod, dtype=float)
    sigma_y0 = np.asarray(sigma_y0, dtype=float)
    n = strain.shape[0]

    g, lam, kb = _moduli(emod, nu)

    ee = strain - eps_p
    tr = ee[:, 0] + ee[:, 1] + ee[:, 2]
    stress = np.empty_like(strain)
    stress[:, :3] = (lam * tr)[:, None] + 2.0 * g[:, None] * ee[:, :3]
    stress[:, 3:] = g[:, None] * ee[:, 3:]

    p_mean = stress[:, :3].mean(axis=1)
    s = stress.copy()
    s[:, :3] -= p_mean[:, None]
    q = np.sqrt(1.5 * (s[:, :3] ** 2).sum(axis=1) + 3.0 * (s[:, 3:] ** 2).sum(axis=1))

    plateau = plateau_frac * sigma_y0
    h_soft = soft_frac * emod
    floor = floor_frac * plateau
    sy_cur = _yield_stress(alpha, plateau, h_soft, eps_plateau, floor)
    f = q - sy_cur
    plastic = f > 0.0

    dgamma = np.zeros(n)
    h_used = np.zeros(n)
    if np.any(plastic):
        three_g = 3.0 * g
        # Plateau branch.
        dg_plat = f / three_g
        on_plateau = plastic & (alpha < eps_plateau)
        stays = on_plateau & (alpha + dg_plat <= eps_plateau)
        dgamma[stays] = dg_plat[stays]
        # Softening branch (either crossing out of the plateau or already past).
        soft = plastic & ~stays
        if np.any(soft):
            dg_soft = (q - plateau - h_soft * (alpha - eps_plateau)) / (three_g + h_soft)
            sy_new = _yield_stress(alpha + dg_soft, plateau, h_soft, eps_plateau, floor)
            hit_floor = soft & (sy_new <= floor + 1e-300)
            reg = soft & ~hit_floor
            dgamma[reg] = dg_soft[reg]
            h_used[reg] = h_soft[reg]
            dgamma[hit_floor] = ((q - floor) / three_g)[hit_floor]

    # Stress update: scale the trial deviator.
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(q > 0, 1.0 - (3.0 * g * dgamma) / np.where(q > 0, q, 1.0), 1.0)
    s_new = s * scale[:, None]
    stress_new = s_new.copy()
    stress_new[:, :3] += p_mean[:, None]

    # Plastic strain update (engineering shear gets the factor 2).
    with np.errstate(invalid="ignore", divide="ignore"):
        flow = np.where(q[:, None] > 0, 1.5 * s / np.where(q[:, None] > 0, q[:, None], 1.0), 0.0)
    flow[:, 3:] *= 2.0
    eps_p_new = eps_p + dgamma[:, None] * flow
    alpha_new = alpha + dgamma

    # Consistent tangent: the elastic one, except at the points that yield.
    tangent = np.array(elastic, dtype=float)
    if np.any(plastic):
        g, s, q = g[plastic], s[plastic], q[plastic]
        yielded = _isotropic(kb[plastic], 2.0 * g * scale[plastic])
        s_norm = np.sqrt((s[:, :3] ** 2).sum(axis=1) + 2.0 * (s[:, 3:] ** 2).sum(axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            m = np.where(s_norm[:, None] > 0, s / np.where(s_norm[:, None] > 0, s_norm[:, None], 1.0), 0.0)
        c_n = 6.0 * g**2 * (dgamma[plastic] / np.where(q > 0, q, 1.0)
                            - 1.0 / (3.0 * g + h_used[plastic]))
        yielded += c_n[:, None, None] * (m[:, :, None] * m[:, None, :])
        tangent[plastic] = yielded

    return stress_new, tangent, eps_p_new, alpha_new

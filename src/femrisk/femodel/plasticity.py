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


def radial_return_batch(strain, eps_p, alpha, emod, nu, sigma_y0,
                        plateau_frac, eps_plateau, soft_frac, floor_frac):
    """Elastic predictor / radial return over a batch of quadrature points.

    strain, eps_p: (n, 6) engineering Voigt; alpha, emod, sigma_y0: (n,).
    Returns (stress (n,6), tangent (n,6,6), eps_p_new, alpha_new).
    """
    strain = np.asarray(strain, dtype=float)
    eps_p = np.asarray(eps_p, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    emod = np.asarray(emod, dtype=float)
    sigma_y0 = np.asarray(sigma_y0, dtype=float)
    n = strain.shape[0]

    g = emod / (2.0 * (1.0 + nu))
    lam = emod * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    kb = lam + 2.0 * g / 3.0

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
        dg_plat = np.where(plastic, f / three_g, 0.0)
        on_plateau = plastic & (alpha < eps_plateau)
        stays = on_plateau & (alpha + dg_plat <= eps_plateau)
        dgamma[stays] = dg_plat[stays]
        # Softening branch (either crossing out of the plateau or already past).
        soft = plastic & ~stays
        if np.any(soft):
            dg_soft = (q - plateau - h_soft * (alpha - eps_plateau)) / (three_g + h_soft)
            dg_soft = np.where(soft, dg_soft, 0.0)
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

    # Consistent tangent.
    tangent = np.zeros((n, 6, 6))
    eye3 = np.zeros((6, 6))
    eye3[:3, :3] = 1.0
    idev = np.zeros((6, 6))
    idev[:3, :3] = -1.0 / 3.0
    idev[0, 0] = idev[1, 1] = idev[2, 2] = 2.0 / 3.0
    idev[3, 3] = idev[4, 4] = idev[5, 5] = 0.5

    theta = np.where(plastic, scale, 1.0)
    tangent += kb[:, None, None] * eye3
    tangent += (2.0 * g * theta)[:, None, None] * idev

    if np.any(plastic):
        s_norm = np.sqrt((s[:, :3] ** 2).sum(axis=1) + 2.0 * (s[:, 3:] ** 2).sum(axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            m = np.where(s_norm[:, None] > 0, s / np.where(s_norm[:, None] > 0, s_norm[:, None], 1.0), 0.0)
        c_n = 6.0 * g**2 * (dgamma / np.where(q > 0, q, 1.0) - 1.0 / (3.0 * g + h_used))
        c_n = np.where(plastic, c_n, 0.0)
        tangent += c_n[:, None, None] * (m[:, :, None] * m[:, None, :])

    return stress_new, tangent, eps_p_new, alpha_new

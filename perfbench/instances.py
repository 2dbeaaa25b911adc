"""Instance builders for the benchmark, seeded from the benchmark's seed.

Random LPs follow the distribution of acceptance criterion 8 (50 x 30,
row and column magnitudes 10^+-1.5, density 0.5) with its base seeds
0..19.  The benchmark seed does not draw new LPs: it applies a random row
and column permutation to each one.  A permutation leaves the LP and its
optimum unchanged and the solver's arithmetic the same up to summation
order, so every seed hands the program different input arrays while a
pass's iteration total moves little (seeds 0-9: 87,616-87,872 under the
fixed step; 64,000-65,728 on the mix, except 55,280 where one planted
unbounded LP stopped early).  Drawing fresh LPs per seed would let one
heavy-tailed instance (iteration counts here run from a few hundred to about
3 * 10^4) dominate some seeds' passes and not others.

The planted variants are built from fixed base LPs and fixed rows and
columns, before the permutation, so every seed carries the same planted
structure.
"""

import numpy as np

CRITERION8_SEEDS = tuple(range(20))
PLANTED_BASES = (0, 1, 2, 3)  # base LPs that get an infeasible and an unbounded variant


def random_lp_arrays(base_seed, n=50, m=30, spread=1.5, density=0.5):
    """Arrays (c, G, h, lower, upper) of a bounded-feasible LP {min c'x : Gx >= h, l <= x <= u}.

    Same construction and draw order as criterion 8's builder: a feasible
    point x_feas with positive slack, and a compact box around it, so an
    optimum exists.
    """
    rng = np.random.default_rng(base_seed)
    row_mag = 10.0 ** rng.uniform(-spread, spread, m)
    col_mag = 10.0 ** rng.uniform(-spread, spread, n)
    g = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
    g = g * row_mag[:, None] * col_mag[None, :]
    x_feas = rng.uniform(0.5, 1.5, n)
    slack = rng.uniform(0.1, 1.0, m) * row_mag
    h = g @ x_feas - slack
    lower = np.maximum(x_feas - rng.uniform(0.5, 2.0, n), 0.0)
    upper = x_feas + rng.uniform(0.5, 2.0, n)
    c = rng.standard_normal(n) * col_mag
    return {"c": c, "G": g, "h": h, "lower": lower, "upper": upper}


def plant_infeasible(arrays, row=0):
    """Append a copy of ``row`` whose right-hand side exceeds the row's
    maximum over the box by a tenth of its range there, so no x satisfies it."""
    g_row = arrays["G"][row]
    lo, hi = arrays["lower"], arrays["upper"]
    row_max = float(np.sum(np.maximum(g_row * lo, g_row * hi)))
    row_min = float(np.sum(np.minimum(g_row * lo, g_row * hi)))
    out = dict(arrays)
    out["G"] = np.vstack([arrays["G"], g_row])
    out["h"] = np.append(arrays["h"], row_max + 0.1 * (row_max - row_min))
    return out


def plant_unbounded(arrays, col=0):
    """Drop every upper bound, make column ``col`` of G nonnegative and its
    cost negative: raising x_col keeps every row satisfied and drives the
    objective to -inf, while the original feasible point stays feasible in
    the rows where the column is zero."""
    out = dict(arrays)
    g = arrays["G"].copy()
    g[:, col] = np.abs(g[:, col])
    c = arrays["c"].copy()
    c[col] = -abs(c[col])
    out["G"], out["c"] = g, c
    out["upper"] = np.full(arrays["c"].shape[0], np.inf)
    return out


def permute(arrays, seed, index):
    """Random row and column permutation drawn from (seed, index)."""
    rng = np.random.default_rng([seed, index])
    m, n = arrays["G"].shape
    rows = rng.permutation(m)
    cols = rng.permutation(n)
    return {
        "c": arrays["c"][cols],
        "G": arrays["G"][np.ix_(rows, cols)],
        "h": arrays["h"][rows],
        "lower": arrays["lower"][cols],
        "upper": arrays["upper"][cols],
    }


def small_lp_specs(seed, planted=True):
    """(name, arrays, planted status) for the criterion-8 LPs and, when
    ``planted``, the infeasible and unbounded variants, all permuted by seed."""
    specs = []
    bases = {s: random_lp_arrays(s) for s in CRITERION8_SEEDS}
    for s in CRITERION8_SEEDS:
        specs.append((f"random_lp_seed{s}", bases[s], "optimal"))
    if planted:
        for s in PLANTED_BASES:
            specs.append((f"infeasible_lp_seed{s}", plant_infeasible(bases[s]), "primal_infeasible"))
        for s in PLANTED_BASES:
            specs.append((f"unbounded_lp_seed{s}", plant_unbounded(bases[s]), "dual_infeasible"))
    return [(name, permute(arrays, seed, i), status) for i, (name, arrays, status) in enumerate(specs)]


def pagerank_spec_args(seed, num_nodes):
    """Keyword arguments of the PagerankSpec for a benchmark seed: the
    preferential-attachment graph is drawn from the seed."""
    return {"num_nodes": num_nodes, "attach_degree": 3, "damping": 0.85, "seed": seed}

"""Independent reference implementations used to check the library.

Everything here is written as plain Python loops over dictionaries, sharing
no code with the package: the group averages are rebuilt per item, the
metrics follow the written formulas directly, and gradients come from
central finite differences on the scalar objectives.
"""

import numpy as np

from faircf.data import GroupAssignment, RatingSet
from faircf.fairness import penalty
from faircf.model import ModelParams, mf_objective


def predictions_for(params, ratings):
    """Per-entry predictions via the textbook formula, one entry at a time."""
    out = []
    for u, i, _ in ratings.entries:
        out.append(float(np.dot(params.user_vectors[u], params.item_vectors[i]))
                   + float(params.user_bias[u]) + float(params.item_bias[i]))
    return np.array(out)


def item_tables(predictions, ratings, disadvantaged):
    """Per-item sums and counts split by group, as {item: [y_g, r_g, n_g, y_a, r_a, n_a]}."""
    table = {}
    for k, (u, i, r) in enumerate(ratings.entries):
        row = table.setdefault(i, [0.0, 0.0, 0, 0.0, 0.0, 0])
        off = 0 if disadvantaged[u] else 3
        row[off] += float(predictions[k])
        row[off + 1] += r
        row[off + 2] += 1
    return table


def brute_force_metrics(predictions, ratings, disadvantaged):
    """All six report fields evaluated straight from the written formulas.

    Per-item terms are averaged over the items rated by both groups; with no
    such item the four group metrics are 0.  Non-parity compares the overall
    mean prediction of each group and is 0 when either group is unobserved.
    """
    diffs = np.asarray(predictions, dtype=float) - ratings.values
    error = float(np.mean(diffs * diffs)) if len(ratings) else 0.0

    table = item_tables(predictions, ratings, disadvantaged)
    value_terms, abs_terms, under_terms, over_terms = [], [], [], []
    for row in table.values():
        y_g, r_g, n_g, y_a, r_a, n_a = row
        if n_g == 0 or n_a == 0:
            continue
        e_g = y_g / n_g - r_g / n_g
        e_a = y_a / n_a - r_a / n_a
        value_terms.append(abs(e_g - e_a))
        abs_terms.append(abs(abs(e_g) - abs(e_a)))
        under_terms.append(abs(max(0.0, -e_g) - max(0.0, -e_a)))
        over_terms.append(abs(max(0.0, e_g) - max(0.0, e_a)))

    def avg(terms):
        return float(sum(terms) / len(terms)) if terms else 0.0

    sum_g = n_g_total = sum_a = n_a_total = 0.0
    for k, (u, _, _) in enumerate(ratings.entries):
        if disadvantaged[u]:
            sum_g += float(predictions[k])
            n_g_total += 1
        else:
            sum_a += float(predictions[k])
            n_a_total += 1
    if n_g_total and n_a_total:
        nonparity = abs(sum_g / n_g_total - sum_a / n_a_total)
    else:
        nonparity = 0.0

    return {"error": error, "value": avg(value_terms), "absolute": avg(abs_terms),
            "under": avg(under_terms), "over": avg(over_terms), "nonparity": float(nonparity)}


def smooth(d):
    return d * d if abs(d) < 1.0 else abs(d)


def brute_force_penalty(kind, params, ratings, disadvantaged, weight=1.0):
    """Smoothed penalty recomputed from scratch (loops plus `smooth`)."""
    if kind == "none":
        return 0.0
    if kind == "under_plus_over":
        return (brute_force_penalty("under", params, ratings, disadvantaged, weight)
                + brute_force_penalty("over", params, ratings, disadvantaged, weight))
    preds = predictions_for(params, ratings)
    table = item_tables(preds, ratings, disadvantaged)

    if kind == "nonparity":
        y_g = sum(float(preds[k]) for k, (u, _, _) in enumerate(ratings.entries)
                  if disadvantaged[u])
        y_a = sum(float(preds[k]) for k, (u, _, _) in enumerate(ratings.entries)
                  if not disadvantaged[u])
        n_g = sum(1 for u in ratings.users.tolist() if disadvantaged[u])
        n_a = len(ratings) - n_g
        if n_g == 0 or n_a == 0:
            return 0.0
        return weight * smooth(y_g / n_g - y_a / n_a)

    terms = []
    for row in table.values():
        y_g, r_g, n_g, y_a, r_a, n_a = row
        if n_g == 0 or n_a == 0:
            continue
        e_g = y_g / n_g - r_g / n_g
        e_a = y_a / n_a - r_a / n_a
        if kind == "value":
            d = e_g - e_a
        elif kind == "absolute":
            d = abs(e_g) - abs(e_a)
        elif kind == "under":
            d = max(0.0, -e_g) - max(0.0, -e_a)
        elif kind == "over":
            d = max(0.0, e_g) - max(0.0, e_a)
        else:
            raise ValueError(kind)
        terms.append(smooth(d))
    if not terms:
        return 0.0
    return weight * float(sum(terms) / len(terms))


def finite_difference(scalar_fn, params, eps=1e-6):
    """Central-difference gradient of scalar_fn w.r.t. every parameter entry."""
    grads = []
    for name in ("user_vectors", "item_vectors", "user_bias", "item_bias"):
        base = getattr(params, name)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            for sign in (1.0, -1.0):
                bumped = params.copy()
                getattr(bumped, name)[idx] += sign * eps
                g[idx] += sign * scalar_fn(bumped)
            g[idx] /= 2.0 * eps
        grads.append(g)
    return grads


def objective_fn(ratings, lambda_reg):
    return lambda p: mf_objective(p, ratings, lambda_reg)


def penalty_fn(kind, ratings, groups, weight=1.0):
    return lambda p: penalty(kind, p, ratings, groups, weight)


def random_instance(rng, max_users=5, max_items=4, d=2, rating_choices=(-1.0, 1.0)):
    """Small random problem: ratings with at least one entry plus labels.

    Every (user, item) cell is observed independently with probability 0.7,
    resampling until the set is nonempty and both groups appear.
    """
    while True:
        m = int(rng.integers(2, max_users + 1))
        n = int(rng.integers(2, max_items + 1))
        dis = rng.random(m) < 0.5
        if dis.all() or not dis.any():
            continue
        mask = rng.random((m, n)) < 0.7
        if not mask.any():
            continue
        users, items = np.nonzero(mask)
        values = rng.choice(np.asarray(rating_choices, dtype=float), size=users.size)
        ratings = RatingSet(users, items, values, m, n)
        groups = GroupAssignment(dis)
        params = ModelParams(rng.normal(0.0, 0.5, (m, d)), rng.normal(0.0, 0.5, (n, d)),
                             rng.normal(0.0, 0.5, m), rng.normal(0.0, 0.5, n))
        return ratings, groups, params


def away_from_kinks(kind, params, ratings, disadvantaged, margin=1e-3):
    """True when no smoothing switch, hinge corner, or sign change sits
    within `margin`, so central differences are trustworthy at `params`."""
    preds = predictions_for(params, ratings)
    table = item_tables(preds, ratings, disadvantaged)
    if kind == "nonparity":
        y_g = sum(float(preds[k]) for k, (u, _, _) in enumerate(ratings.entries)
                  if disadvantaged[u])
        y_a = sum(float(preds[k]) for k, (u, _, _) in enumerate(ratings.entries)
                  if not disadvantaged[u])
        n_g = sum(1 for u in ratings.users.tolist() if disadvantaged[u])
        n_a = len(ratings) - n_g
        if n_g == 0 or n_a == 0:
            return True
        return abs(abs(y_g / n_g - y_a / n_a) - 1.0) > margin
    kinds = ("under", "over") if kind == "under_plus_over" else (kind,)
    for row in table.values():
        y_g, r_g, n_g, y_a, r_a, n_a = row
        if n_g == 0 or n_a == 0:
            continue
        e_g = y_g / n_g - r_g / n_g
        e_a = y_a / n_a - r_a / n_a
        if abs(e_g) < margin or abs(e_a) < margin:
            return False
        for sub in kinds:
            if sub == "value":
                d = e_g - e_a
            elif sub == "absolute":
                d = abs(e_g) - abs(e_a)
            elif sub == "under":
                d = max(0.0, -e_g) - max(0.0, -e_a)
            else:
                d = max(0.0, e_g) - max(0.0, e_a)
            if abs(abs(d) - 1.0) < margin:
                return False
    return True


def read_fields_line_by_line(path, sep, kinds, encoding="utf-8", skip=0):
    """``data.read_fields`` one line at a time: after the first ``skip``
    lines, every line that is not blank or whitespace-only is split on
    ``sep`` and each field converted by its kind (int or float).  Raises
    ``<path>: line N: <reason>`` for the first line at fault."""
    dtypes = {int: np.int64, float: np.float64}
    numbers, rows = [], []
    with open(path, "r", encoding=encoding) as fh:
        for number, line in enumerate(fh, start=1):
            if number <= skip or line.isspace():
                continue
            fields = line.removesuffix("\n").split(sep)
            if len(fields) != len(kinds):
                raise ValueError(f"{path}: line {number}: {len(fields)} fields")
            try:
                row = [np.array(kind(field), dtype=dtypes[kind])
                       for kind, field in zip(kinds, fields)]
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
            numbers.append(number)
            rows.append(row)
    columns = [np.array([row[k] for row in rows], dtype=dtypes[kind])
               for k, kind in enumerate(kinds)]
    return np.array(numbers, dtype=np.int64), columns


def write_fields_line_by_line(path, sep, columns, header=""):
    """``data.write_fields`` one line at a time with f-strings: ints as
    ``str``, floats as ``repr``, fields joined by ``sep``."""
    cells = [[repr(x) if isinstance(x, float) else str(x) for x in np.asarray(c).tolist()]
             for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in zip(*cells):
            fh.write(sep.join(row) + "\n")


def write_ratings_line_by_line(ratings, path):
    with open(path, "w", encoding="utf-8") as fh:
        for u, i, v in ratings.entries:
            fh.write(f"{u}\t{i}\t{v!r}\n")


def write_groups_line_by_line(groups, path):
    with open(path, "w", encoding="utf-8") as fh:
        for u, flag in enumerate(groups.disadvantaged.tolist()):
            fh.write(f"{u}\t{1 if flag else 0}\n")


def save_params_line_by_line(params, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{params.num_users} {params.num_items} {params.d}\n")
        for vecs, bias in ((params.user_vectors, params.user_bias),
                           (params.item_vectors, params.item_bias)):
            for row, b in zip(vecs, bias):
                fh.write(" ".join([repr(float(x)) for x in row] + [repr(float(b))]) + "\n")

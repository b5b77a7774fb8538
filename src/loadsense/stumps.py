"""The decision-stump search of AdaBoost, for many one-vs-rest machines
at once.

`boost` runs the rounds of every machine of a `StumpBatch` together: one
round costs a few dozen numpy calls over all machines, not a few dozen per
machine.  Every stump, alpha and weight is bit-identical to boosting each
machine alone with the exact per-candidate sums (see `StumpBatch.best`).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class Presort(NamedTuple):
    """Per-fit stump candidates, the side of each threshold every row falls
    on, and each column's row order: the boosting rounds change the weights,
    never these."""

    features: np.ndarray  # (T,) column of each threshold
    thresholds: np.ndarray  # (T,) column by column, ascending within a column
    above: np.ndarray  # (T, n) bool, X[:, features].T > thresholds[:, None]; a NaN is never above
    order: np.ndarray  # (p, n) each column's rows by ascending value, NaN last
    start: np.ndarray  # (T,) the rows above thresholds[t] are order[features[t], start[t]:stop[features[t]]]
    stop: np.ndarray  # (p,) each column's count of non-NaN values


def presort(X: np.ndarray) -> Presort:
    """Candidate thresholds per column: one below the minimum, then the
    midpoint of each pair of adjacent distinct sorted values."""
    ordered = np.sort(X, axis=0)  # NaN sorts last and is never distinct from its neighbour
    candidates = np.concatenate([ordered[:1] - 1.0, 0.5 * (ordered[:-1] + ordered[1:])]).T
    keep = np.concatenate([np.ones((1, X.shape[1]), dtype=bool), ordered[1:] > ordered[:-1]]).T
    features = np.nonzero(keep)[0]
    thresholds = candidates[keep]
    above = X.T[features] > thresholds[:, None]
    # the rows above a threshold are the largest non-NaN values of its column
    stop = np.count_nonzero(~np.isnan(X), axis=0)
    return Presort(features, thresholds, above, np.argsort(X, axis=0, kind="stable").T,
                    stop[features] - above.sum(axis=1), stop)


_EPS = float(np.finfo(float).eps)


def _row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``float(values[i][mask[i]].sum())`` for every row i, bit for bit.

    One ``np.add.reduceat`` whose segment for row i is a 0.0 slot followed
    by the selected values in ascending column order: numpy adds the rest
    of a segment to its first element in the pairwise order ``ndarray.sum``
    uses, and ``ndarray.sum`` starts from zero."""
    slots = np.ones((len(values), values.shape[1] + 1), dtype=bool)
    slots[:, 1:] = mask
    padded = np.zeros(slots.shape)
    padded[:, 1:] = values
    sizes = slots.sum(axis=1)
    return np.add.reduceat(padded[slots], np.cumsum(sizes) - sizes)


class StumpBatch:
    """The stump search of many one-vs-rest machines, one round for all of
    them at once.

    Machine b separates the rows where ``machines[b][1]`` is True from the
    rest of the rows of problem ``machines[b][0]``, whose candidates
    ``presorts`` holds.  The arrays are padded to the largest candidate count
    T, row count N and column count P of the batch: a padded candidate never
    wins, and a padded row has weight 0 and never mismatches.  Weights are
    (B, N) arrays, a machine's row in its problem's row order."""

    def __init__(self, presorts: Sequence[Presort], machines: Sequence[tuple[int, np.ndarray]]):
        sizes = np.asarray([(len(ps.features), ps.above.shape[1], len(ps.stop)) for ps in presorts])
        T, N, P = sizes.max(axis=0)
        self.problem = np.asarray([q for q, _ in machines])
        self.n = sizes[self.problem, 1]
        self.above = np.zeros((len(presorts), T, N), dtype=bool)
        order = np.broadcast_to(np.arange(N), (len(presorts), P, N)).copy()
        stop = np.zeros((len(presorts), P), dtype=int)
        column, start = np.zeros((2, len(presorts), T), dtype=int)
        for q, ps in enumerate(presorts):
            (t, n), p = ps.above.shape, len(ps.stop)
            self.above[q, :t, :n] = ps.above
            order[q, :p, :n] = ps.order
            stop[q, :p] = ps.stop
            column[q, :t], start[q, :t] = ps.features, ps.start
        self.target = np.zeros((len(machines), N), dtype=bool)
        for b, (_, target) in enumerate(machines):
            self.target[b, :len(target)] = target
        machine = np.arange(len(machines))[:, None]
        # each machine's weights in every column's row order, as indices into the flat (B, N) weights
        self.sorted_index = machine[:, :, None] * N + order[self.problem]
        # -1 on target rows, +1 on the others, 0 on NaN and padded rows (never above a threshold)
        self.sign = np.where(self.target.ravel()[self.sorted_index], -1, 1).astype(np.int8)
        self.sign[np.arange(N) >= stop[self.problem][:, :, None]] = 0
        self.suffix = np.tril(np.ones((N, N + 1)))  # a row vector times it: its suffix sums
        # every (machine, column) row's suffix sums, then a NaN: a padded candidate's error, which
        # no comparison selects
        self.sums = np.full((len(machines) * P, N + 2), np.nan)
        at = (machine * P + column[self.problem]) * (N + 2) + start[self.problem]
        self.at_start = np.where(np.arange(T) < sizes[self.problem, :1], at, N + 1)

    def _approximate(self, w: np.ndarray) -> np.ndarray:
        """(B, 2T) approximate errors, candidate by candidate, polarity +1
        then -1; NaN for a padded candidate."""
        signed = w.ravel()[self.sorted_index]
        signed *= self.sign
        np.matmul(signed.reshape(-1, self.suffix.shape[0]), self.suffix, out=self.sums[:, :-1])
        approx = np.empty((*self.at_start.shape, 2))
        np.take(self.sums, self.at_start, out=approx[:, :, 0], mode="clip")
        approx[:, :, 0] += np.einsum("bn,bn->b", w, self.target)[:, None]
        np.subtract(1.0, approx[:, :, 0], out=approx[:, :, 1])
        return approx.reshape(len(w), -1)

    def best(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per machine, the best stump's exact error, candidate, whether its
        polarity is -1, and the (B, N) rows a polarity +1 stump on that
        candidate mispredicts; `w` holds non-negative (B, N) weights.

        Candidates rank by index, polarity +1 then -1, and a later one wins
        only if its exact error, ``float(w[b][mismatch].sum())`` or 1 minus
        that, is below the best so far by more than 1e-15.

        The approximate errors come from suffix sums.  A polarity +1 stump
        errs on the target rows it does not put above its threshold and on
        the other rows it does, so its error is S1 plus the sum, over the
        rows above the threshold, of their weights signed -1 on target rows
        and +1 on the others; S1 is the target rows' weight.  The rows above
        a threshold are a suffix of the column's non-NaN rows in value order,
        so one matrix product gives every such sum.  Each of S1 and that sum
        adds up to n terms, so in whatever order it is within n * u * S of
        its true value (u = eps / 2, S = sum(w)); with the rounding of their
        sum the approximate error is within (2n + 1) * u * S of the true
        error, and the exact sum within n * u * S: the two differ by less
        than 2 * (n + 2) * eps * S.  ``slack`` is four times that, which also
        covers 1 minus either and the roundings of the comparisons.  The
        cluster is the run of sorted approximate errors from the minimum up
        to the first gap wider than G = 1e-15 + 2 * slack.  Every member's
        exact error is then more than 1e-15 below every non-member's.  So in
        the chain over all candidates the first member replaces whatever
        non-member is best before it, and no non-member ever replaces a
        member: the chain over the cluster alone, in candidate order, ends on
        the same stump, and only members are summed exactly.
        """
        n_machines, n_candidates = self.at_start.shape
        approx = self._approximate(w)
        slack = 8.0 * (self.n + 2) * _EPS * np.maximum(w.sum(axis=1), 1.0)
        gap = 1e-15 + 2.0 * slack
        cut = np.fmin.reduce(approx, axis=1)  # a padded candidate's NaN is never the minimum
        while True:
            near = approx <= (cut + gap)[:, None]
            top = np.max(approx, axis=1, where=near, initial=-np.inf)
            if np.array_equal(top, cut):
                break
            cut = top

        machine, k = np.divmod(np.flatnonzero(near), 2 * n_candidates)  # the members, in candidate order
        t, negative = k // 2, k % 2 == 1
        mismatch = self.above[self.problem[machine], t] != self.target[machine]
        err = _row_sums(w[machine], mismatch)
        err = np.where(negative, 1.0 - err, err)
        if len(machine) == n_machines:  # one member each
            return err, t, negative, mismatch

        # the chain, vectorized across machines: column j holds each machine's j-th member
        counts = np.bincount(machine, minlength=n_machines)
        first = np.cumsum(counts) - counts
        chain = np.full((n_machines, counts.max()), np.inf)
        chain[machine, np.arange(len(machine)) - first[machine]] = err
        best, pick = chain[:, 0], np.zeros(n_machines, dtype=int)
        for j in range(1, chain.shape[1]):
            wins = chain[:, j] < best - 1e-15
            best, pick = np.where(wins, chain[:, j], best), np.where(wins, j, pick)
        chosen = first + pick
        return best, t[chosen], negative[chosen], mismatch[chosen]


def boost(batch: StumpBatch, n_stumps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Up to `n_stumps` boosting rounds of every machine together.  Returns
    each machine's stump count and, per round and machine, the candidate,
    whether the polarity is -1, and alpha.  A machine stops at the first
    round whose best error is 0.5 or more; it then keeps its weights, so it
    stays stopped."""
    real = np.arange(batch.target.shape[1]) < batch.n[:, None]
    w = np.where(real, 1.0 / batch.n[:, None], 0.0)
    active = np.ones(len(w), dtype=bool)
    kept = np.zeros(len(w), dtype=int)
    candidates = np.zeros((n_stumps, len(w)), dtype=np.int32)
    negatives = np.zeros((n_stumps, len(w)), dtype=bool)
    alphas = np.zeros((n_stumps, len(w)))
    for r in range(n_stumps):
        err, t, negative, mismatch = batch.best(w)
        active &= err < 0.5
        if not active.any():
            break
        err = np.minimum(np.maximum(err, 1e-10), 1.0 - 1e-10)
        alpha = 0.5 * np.log((1.0 - err) / err)
        # +1 where a polarity +1 stump errs on the row, else -1; times
        # polarity * alpha it is the exponent -alpha * target * prediction
        updated = w * np.exp(np.where(negative, -alpha, alpha)[:, None] * np.where(mismatch, 1.0, -1.0))
        updated /= _row_sums(updated, real)[:, None]
        w = np.where(active[:, None], updated, w)
        kept += active
        candidates[r], negatives[r], alphas[r] = t, negative, alpha
    return kept, candidates, negatives, alphas

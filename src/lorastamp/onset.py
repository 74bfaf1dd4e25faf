"""Preamble onset detection.

Two parameter-less detectors over a complex baseband trace:

* ENV  -- I/Q envelope |I + jQ| + folding (consecutive chunk-sum
  ratios); chunk-level resolution.
* AIC  -- AR change-point picker on |I + jQ|; single-sample resolution.

Plus the round-trip RMSD evaluation identity RMSD(err) = RMSD(delta)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lorastamp.phy import IQTrace

ENV_CHUNK_LEN = 200
AIC_MIN_SEGMENT = 256
AIC_COARSE_STRIDE = 64
AIC_REFINE_LEFT = 256  # fine-pass reach before the coarse minimum
AIC_REFINE_RIGHT = 128  # and after it


class NoOnsetError(RuntimeError):
    """The detector could not find a preamble onset in the trace."""


@dataclass(frozen=True)
class OnsetResult:
    onset_sample: int
    onset_time_ns: int
    detector: str
    score: float


def _result(trace: IQTrace, onset_sample: int, detector: str, score: float) -> OnsetResult:
    return OnsetResult(onset_sample, trace.time_ns(onset_sample), detector, float(score))


def detect_env(trace: IQTrace) -> OnsetResult:
    """Envelope detector: onset at the start of the 200-sample chunk whose
    envelope sum-ratio to its predecessor peaks.  Earliest chunk wins ties.

    The envelope of complex baseband is |I + jQ|, the magnitude AIC also
    reads; it stays flat over a chirp, also where its frequency crosses 0.
    """
    if len(trace) < 2 * ENV_CHUNK_LEN:
        raise NoOnsetError("trace shorter than two chunks")
    envelope = np.abs(trace.samples)
    n_chunks = len(trace) // ENV_CHUNK_LEN
    sums = envelope[: n_chunks * ENV_CHUNK_LEN].reshape(n_chunks, ENV_CHUNK_LEN).sum(axis=1)
    if not np.any(sums > 0):
        raise NoOnsetError("all-zero trace")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sums[:-1] > 0, sums[1:] / np.maximum(sums[:-1], 1e-300), np.inf)
        ratios = np.where((sums[:-1] == 0) & (sums[1:] == 0), 0.0, ratios)
    peak = int(np.argmax(ratios))
    return _result(trace, (peak + 1) * ENV_CHUNK_LEN, "ENV", ratios[peak])


def _ar2_sigma2(n: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """AR(2) one-step prediction error variance of segments of lengths n.

    Yule-Walker on mean-removed autocovariances, read from the rows of
    ``sums`` (overwritten): each segment's sums of x, x^2 and its lag-1 and
    lag-2 products, one column per segment.  Solved in closed form,
    sigma^2 = (r0 - r2)(r0^2 + r0 r2 - 2 r1^2) / (r0^2 - r1^2), and r0 where
    that determinant is (near) singular.
    """
    mu, r0, r1, r2 = sums
    sums[:2] /= n
    r1 /= n - 1
    r2 /= n - 2
    mu *= mu  # now mu^2
    sums[1:] -= mu
    r0_sq = r0 * r0
    r1 *= r1  # now r1^2
    det = r0_sq - r1
    r1 *= 2
    num = r0 * r2
    num += r0_sq
    num -= r1
    np.subtract(r0, r2, out=r2)
    num *= r2
    sigma2 = np.divide(num, det, out=r0, where=np.abs(det, out=r0_sq) > 1e-30)
    return np.maximum(sigma2, 1e-300, out=sigma2)


def _aic(x: np.ndarray, first: int, step: int, sums: np.ndarray,
         totals: np.ndarray) -> np.ndarray:
    """AIC of splitting x at c = first, first + step, ..., given in the left
    half of ``sums`` (4, 2m; overwritten) the sums of ``totals`` (x, x^2,
    x[i]x[i+1], x[i]x[i+2] over all of x) over i < c; the left then drops its
    lag pairs that reach x[c] or beyond, from the neighbours x[c-2..c+1]."""
    m = sums.shape[1] // 2
    left = sums[:, :m]
    np.subtract(totals[:, None], left, out=sums[:, m:])
    back, before, at, after = (x[first + k::step][:m] for k in (-2, -1, 0, 1))
    left[2] -= before * at
    left[3] -= back * at
    left[3] -= before * after
    splits = np.arange(first, first + step * m, step, dtype=float)
    sizes = np.concatenate([splits, x.size - splits])
    terms = np.log(_ar2_sigma2(sizes, sums))
    terms *= sizes
    return terms[:m] + terms[m:]


def detect_aic(trace: IQTrace) -> OnsetResult:
    """AR-AIC change-point picker on the envelope |I + jQ|.

    Coarse pass on a 64-sample candidate grid, then single-sample refinement
    from 256 samples before to 128 samples after the coarse minimum (past the
    onset the curve stays flat for hundreds of samples, so its minimum is a
    narrow notch the grid can miss by more than 128); each AR segment spans
    at least 256 samples.  The coarse pass reads prefix sums at every 64th
    sample, the fine pass running sums over its window added onto the prefix
    at its start ``lo`` (a multiple of 64): O(1) a split, O(n/64) memory.
    """
    if len(trace) < 2 * AIC_MIN_SEGMENT:
        raise NoOnsetError("trace shorter than two AR segments")
    x = np.abs(trace.samples)
    top = float(x.max())
    if top - float(x.min()) < 1e-12 * max(top, 1.0):
        raise NoOnsetError("degenerate (constant) trace")
    n, b = x.size, AIC_COARSE_STRIDE
    # sums of x, x^2, x[i]x[i+1], x[i]x[i+2] over i < c, c = 0, 64, ..., while x holds i + 2
    nb = (n - 2) // b
    blocks = x[:nb * b].reshape(nb, b)
    prefix = np.empty((4, nb + 1))
    prefix[:, 0] = 0.0
    np.einsum("ij->i", blocks, out=prefix[0, 1:])
    np.einsum("ij,ijk->ki", blocks, sliding_window_view(x, 3)[:nb * b].reshape(nb, b, 3),
              out=prefix[1:, 1:])
    np.cumsum(prefix, axis=1, out=prefix)
    t = x[nb * b:]
    totals = prefix[:, -1] + (t.sum(), t @ t, t[:-1] @ t[1:], t[:-2] @ t[2:])
    m = (n - 2 * AIC_MIN_SEGMENT) // b + 1
    sums = np.empty((4, 2 * m))
    sums[:, :m] = prefix[:, AIC_MIN_SEGMENT // b:AIC_MIN_SEGMENT // b + m]
    k0 = AIC_MIN_SEGMENT + b * int(np.argmin(_aic(x, AIC_MIN_SEGMENT, b, sums, totals)))
    lo = max(AIC_MIN_SEGMENT, k0 - AIC_REFINE_LEFT)
    m = min(n - AIC_MIN_SEGMENT, k0 + AIC_REFINE_RIGHT) - lo + 1
    sums = np.zeros((4, 2 * m))
    run = sums[:, :m]  # over lo <= i < c, then onto the coarse prefix at lo
    run[0, 1:] = seg = x[lo:lo + m - 1]
    for k in range(3):
        np.multiply(seg, x[lo + k:lo + k + m - 1], out=run[1 + k, 1:])
    np.cumsum(run, axis=1, out=run)
    run += prefix[:, lo // b, None]
    aic_f = _aic(x, lo, 1, sums, totals)
    best = int(np.argmin(aic_f))
    # np.median's value (the middle pair's mean for an even window) at a
    # fraction of its call overhead on <= 385 values
    mid = aic_f.size // 2
    if aic_f.size % 2:
        median = np.partition(aic_f, mid)[mid]
    else:
        median = np.partition(aic_f, (mid - 1, mid))[mid - 1:mid + 1].mean()
    depth = float(median - aic_f[best])
    return _result(trace, lo + best, "AIC", depth)


def rmsd_roundtrip(deltas) -> float:
    """Onset-error RMSD from measured round-trip times: RMSD(delta)/2.

    Each round trip stacks four i.i.d. onset detection errors, so the
    per-event error RMSD is half the RMSD of the measured round-trip times.
    """
    d = np.asarray(deltas, dtype=float)
    if d.size < 2:
        raise ValueError("need at least 2 round-trip samples")
    if not np.all(np.isfinite(d)):
        raise ValueError("round-trip samples must be finite")
    return 0.5 * float(math.sqrt(np.mean(d ** 2)))

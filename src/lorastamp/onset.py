"""Preamble onset detection.

Two parameter-less detectors over a complex baseband trace:

* ENV  -- I/Q envelope |I + jQ| + folding (consecutive chunk-sum
  ratios); chunk-level resolution.
* AIC  -- autoregressive change-point picker; single-sample resolution.

Plus the round-trip RMSD evaluation identity RMSD(err) = RMSD(delta)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _ar2_sigma2(n: np.ndarray, s1: np.ndarray, s2: np.ndarray, l1: np.ndarray,
                l2: np.ndarray) -> np.ndarray:
    """AR(2) one-step prediction error variance of segments of length n.

    Yule-Walker on mean-removed autocovariances, read from each segment's
    sums of x, x^2 and its lag-1 and lag-2 products, so many candidate
    segments are evaluated at once.  Solved in closed form,
    sigma^2 = (r0 - r2)(r0^2 + r0 r2 - 2 r1^2) / (r0^2 - r1^2), and r0 where
    that determinant is (near) singular.
    """
    n = np.asarray(n, dtype=float)
    mu = s1 / n
    mu2 = mu ** 2
    r0 = s2 / n - mu2
    r1 = l1 / (n - 1) - mu2
    r2 = l2 / (n - 2) - mu2
    r0_sq = r0 ** 2
    r1_sq = r1 ** 2
    det = r0_sq - r1_sq
    num = (r0 - r2) * (r0_sq + r0 * r2 - 2 * r1_sq)
    sigma2 = np.divide(num, det, out=r0.copy(), where=np.abs(det) > 1e-30)
    return np.maximum(sigma2, 1e-300, out=sigma2)


def _block_prefix(x: np.ndarray, b: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """Prefix sums of x, x^2, x[i]x[i+1] and x[i]x[i+2] over i < c at every
    c = 0, b, 2b, ... whose block of b samples has both lag partners in x,
    one row each, and their totals over all of x.

    Each block's four sums come from views of x shifted by 0, 1 and 2
    samples, so nothing of x's length is allocated beyond the prefix rows.
    """
    nb = (x.size - 2) // b
    x0, x1, x2 = (x[k:k + nb * b].reshape(nb, b) for k in range(3))
    blocks = np.stack([
        x0.sum(axis=1),
        np.einsum("ij,ij->i", x0, x0),
        np.einsum("ij,ij->i", x0, x1),
        np.einsum("ij,ij->i", x0, x2),
    ])
    prefix = np.zeros((4, nb + 1))
    np.cumsum(blocks, axis=1, out=prefix[:, 1:])
    t = x[nb * b:]
    tail = (t.sum(), t @ t, t[:-1] @ t[1:], t[:-2] @ t[2:])
    return prefix, tuple(float(p + q) for p, q in zip(prefix[:, -1], tail))


def _aic_curve(x: np.ndarray, splits: np.ndarray, prefix: np.ndarray,
               totals: tuple[float, ...]) -> np.ndarray:
    """AIC of splitting x at each of ``splits``, given the four prefix sums
    over i < c at each split c (rows of ``prefix``) and their totals."""
    m = splits.size
    # left segments [0, c) then right segments [c, n), one (4, 2m) array; the
    # left keeps only the lag pairs that end before x[c]
    sums = np.empty((4, 2 * m))
    sums[:, :m] = prefix
    np.subtract(np.array(totals)[:, None], prefix, out=sums[:, m:])
    before, at, after = x[splits - 1], x[splits], x[splits + 1]
    sums[2, :m] -= before * at
    sums[3, :m] -= x[splits - 2] * at
    sums[3, :m] -= before * after
    sizes = np.concatenate([splits, x.size - splits])
    terms = sizes * np.log(_ar2_sigma2(sizes, *sums))
    return terms[:m] + terms[m:]


def detect_aic(trace: IQTrace) -> OnsetResult:
    """AR-AIC change-point picker on the envelope |I + jQ|.

    Coarse pass on a 64-sample candidate grid, then single-sample refinement
    from 256 samples before to 128 samples after the coarse minimum (past the
    onset the curve stays flat for hundreds of samples, so its minimum is a
    narrow notch the grid can miss by more than 128); each AR segment spans
    at least 256 samples.  Both passes read ``_block_prefix``, at block size 64
    and, over the fine window, at block size 1 added onto the coarse prefix at
    ``lo`` (a multiple of 64): each split costs O(1), extra memory O(n/64).
    """
    if len(trace) < 2 * AIC_MIN_SEGMENT:
        raise NoOnsetError("trace shorter than two AR segments")
    x = np.abs(trace.samples)
    top = float(x.max())
    if top - float(x.min()) < 1e-12 * max(top, 1.0):
        raise NoOnsetError("degenerate (constant) trace")
    n = x.size
    blocks, totals = _block_prefix(x, AIC_COARSE_STRIDE)
    coarse = np.arange(AIC_MIN_SEGMENT, n - AIC_MIN_SEGMENT + 1, AIC_COARSE_STRIDE)
    aic_c = _aic_curve(x, coarse, blocks[:, coarse // AIC_COARSE_STRIDE], totals)
    k0 = int(coarse[np.argmin(aic_c)])
    lo = max(AIC_MIN_SEGMENT, k0 - AIC_REFINE_LEFT)
    hi = min(n - AIC_MIN_SEGMENT, k0 + AIC_REFINE_RIGHT)
    fine = np.arange(lo, hi + 1)
    local = _block_prefix(x[lo:hi + 2], 1)[0] + blocks[:, lo // AIC_COARSE_STRIDE, None]
    aic_f = _aic_curve(x, fine, local, totals)
    best = int(np.argmin(aic_f))
    # np.median's value (the middle pair's mean for an even window) at a
    # fraction of its call overhead on <= 385 values
    mid = aic_f.size // 2
    if aic_f.size % 2:
        median = np.partition(aic_f, mid)[mid]
    else:
        median = np.partition(aic_f, (mid - 1, mid))[mid - 1:mid + 1].mean()
    depth = float(median - aic_f[best])
    return _result(trace, int(fine[best]), "AIC", depth)


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

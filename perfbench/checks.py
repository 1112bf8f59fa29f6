"""Output checks, each computed apart from the program.

Every function here takes plain arrays and returns None when the check
holds, or a one-line reason when it does not. The parsers, the window
repair, the DFT, the forward pass and the metric recounts are written from
the documented formats and definitions, not by calling the code they check.
"""
from __future__ import annotations

import numpy as np

N_CLASSES = 3

# tolerances, derived in README.md ("Tolerances")
DFT_RTOL = 1e-9
REPAIR_RTOL = 1e-9
AUC_ATOL = 1e-9
F1_ATOL = 1e-12
TRIPLE_ATOL = 1e-12
LOGIT_TIE = 1e-8


# ---------------------------------------------------------------------------
# parsers for the documented file formats


def parse_gaze_csv(text: str) -> dict[str, np.ndarray]:
    """Columns of a gaze CSV; `label` is -1 where the field is empty."""
    lines = text.splitlines()
    if lines[0] != "t_ms,x_deg,y_deg,valid,label":
        raise ValueError("bad gaze CSV header")
    rows = [line.split(",") for line in lines[1:]]
    return {
        "t": np.array([float(r[0]) for r in rows]),
        "x": np.array([float(r[1]) for r in rows]),
        "y": np.array([float(r[2]) for r in rows]),
        "valid": np.array([r[3] == "1" for r in rows]),
        "label": np.array([int(r[4]) if r[4] else -1 for r in rows], dtype=np.int64),
    }


def parse_predictions_csv(text: str) -> dict[str, np.ndarray]:
    """Covered mask, score triples (NaN where uncovered) and labels (-1)."""
    lines = text.splitlines()
    if lines[0] != "sample_idx,p_fix,p_sac,p_pur,label,covered":
        raise ValueError("bad predictions CSV header")
    rows = [line.split(",") for line in lines[1:]]
    n = len(rows)
    if [int(r[0]) for r in rows] != list(range(n)):
        raise ValueError("sample indices are not 0, 1, 2, ...")
    covered = np.array([r[5] == "1" for r in rows], dtype=bool)
    scores = np.full((n, N_CLASSES), np.nan)
    labels = np.full(n, -1, dtype=np.int64)
    cov_rows = [r for r in rows if r[5] == "1"]
    if cov_rows:
        scores[covered] = np.array([r[1:4] for r in cov_rows], dtype=np.float64)
        labels[covered] = np.array([r[4] for r in cov_rows], dtype=np.int64)
    return {"covered": covered, "scores": scores, "labels": labels}


def parse_covered(text: str) -> np.ndarray:
    """Only the `covered` column of a predictions CSV."""
    lines = text.splitlines()
    if lines[0] != "sample_idx,p_fix,p_sac,p_pur,label,covered":
        raise ValueError("bad predictions CSV header")
    return np.array([line[-1] == "1" for line in lines[1:]], dtype=bool)


def parse_history_csv(text: str) -> list[tuple[int, int, float, float]]:
    lines = text.splitlines()
    if lines[0] != "phase,epoch,train_loss,val_accuracy":
        raise ValueError("bad history CSV header")
    out = []
    for line in lines[1:]:
        p, e, loss, acc = line.split(",")
        out.append((int(p), int(e), float(loss), float(acc)))
    return out


# ---------------------------------------------------------------------------
# frontend


def runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive [start, end] runs of True."""
    out = []
    i, n = 0, mask.shape[0]
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            out.append((i, j))
            i = j + 1
        else:
            i += 1
    return out


def repair(t, x, y, valid, max_gap: int):
    """Linear-in-time fill of interior invalid runs of at most max_gap samples.

    Returns (x, y, still_bad, repaired_runs).
    """
    x = x.copy()
    y = y.copy()
    bad = ~valid
    n = x.shape[0]
    repaired = []
    for s, e in runs(bad):
        if e - s + 1 <= max_gap and s > 0 and e < n - 1:
            a, b = s - 1, e + 1
            for i in range(s, e + 1):
                w = (t[i] - t[a]) / (t[b] - t[a])
                x[i] = x[a] + (x[b] - x[a]) * w
                y[i] = y[a] + (y[b] - y[a]) * w
            repaired.append((s, e))
    still_bad = bad.copy()
    for s, e in repaired:
        still_bad[s : e + 1] = False
    return x, y, still_bad, repaired


def window_centres(bad: np.ndarray, window_len: int, offset: int) -> np.ndarray:
    """Centres of every window of window_len samples that holds no bad sample."""
    c = np.concatenate([[0], np.cumsum(bad.astype(np.int64))])
    starts = np.arange(bad.shape[0] - window_len + 1)
    ok = (c[starts + window_len] - c[starts]) == 0
    return starts[ok] + offset


def dft_magnitudes(wx: np.ndarray, wy: np.ndarray, demean: bool = True) -> np.ndarray:
    """(m, L, 2) magnitudes of the explicit O(L^2) DFT of each window."""
    L = wx.shape[1]
    if demean:
        wx = wx - wx.mean(axis=1, keepdims=True)
        wy = wy - wy.mean(axis=1, keepdims=True)
    k = np.arange(L)
    angle = 2.0 * np.pi * np.outer(k, k) / L
    re_w, im_w = np.cos(angle), -np.sin(angle)

    def mag(w):
        return np.hypot(w @ re_w.T, w @ im_w.T)

    return np.stack([mag(wx), mag(wy)], axis=2)


def check_dft(program: np.ndarray, own: np.ndarray) -> str | None:
    scale = max(1.0, float(np.abs(own).max()))
    err = float(np.abs(program - own).max())
    if not err <= DFT_RTOL * scale:
        return f"featurize_sequence differs from the explicit DFT by {err:.3g}"
    return None


def check_centres(program: np.ndarray, own: np.ndarray, what: str) -> str | None:
    if not np.array_equal(np.asarray(program), own):
        return f"{what}: {len(program)} window centres, expected {len(own)} from the valid-sample mask"
    return None


def check_repair(t, x_raw, y_raw, valid, x_rep, y_rep, max_gap: int) -> str | None:
    """Repaired samples lie on the line between their valid neighbours;
    valid samples are untouched."""
    if not (np.array_equal(x_rep[valid], x_raw[valid]) and np.array_equal(y_rep[valid], y_raw[valid])):
        return "repair changed a valid sample"
    x_own, y_own, _, repaired = repair(t, x_raw, y_raw, valid, max_gap)
    for s, e in repaired:
        for got, want in ((x_rep[s : e + 1], x_own[s : e + 1]), (y_rep[s : e + 1], y_own[s : e + 1])):
            tol = REPAIR_RTOL * max(1.0, float(np.abs(want).max()))
            if not np.all(np.abs(got - want) <= tol):
                return f"repaired run [{s}, {e}] is off the line between its neighbours"
    return None


# ---------------------------------------------------------------------------
# network


def forward_logits(weights: dict[str, np.ndarray], pool: int, feats: np.ndarray) -> np.ndarray:
    """Valid cross-correlation, max pooling, dense layer: (m, 3) logits."""
    cw, cb, dw, db = weights["conv_w"], weights["conv_b"], weights["dense_w"], weights["dense_b"]
    n_filters, K, _ = cw.shape
    m, L, _ = feats.shape
    P = L - K + 1
    conv = np.zeros((m, P, n_filters))
    for k in range(K):
        conv += feats[:, k : k + P, :] @ cw[:, k, :].T
    conv += cb
    R = P // pool
    pooled = conv[:, : R * pool].reshape(m, R, pool, n_filters).max(axis=2)
    return pooled.reshape(m, R * n_filters) @ dw.T + db


def check_best_accuracy(logits: np.ndarray, labels: np.ndarray, best_val_accuracy: float) -> str | None:
    """Accuracy of the returned model equals the best validation accuracy.

    Windows whose top two logits lie within LOGIT_TIE may go either way
    between two float64 evaluation orders; that many windows is the slack.
    """
    n = labels.shape[0]
    correct = int((logits.argmax(axis=1) == labels).sum())
    top2 = np.sort(logits, axis=1)[:, -2:]
    ties = int(((top2[:, 1] - top2[:, 0]) <= LOGIT_TIE * np.maximum(1.0, np.abs(top2[:, 1]))).sum())
    expected = int(round(best_val_accuracy * n))
    if abs(correct - expected) > ties:
        return (
            f"returned model scores {correct}/{n} on validation, history best is "
            f"{expected}/{n} (near-ties: {ties})"
        )
    return None


def check_loss_falls(history: list[tuple[int, int, float, float]]) -> str | None:
    if not history:
        return "empty training history"
    first, last = history[0][2], history[-1][2]
    if not last < first:
        return f"last epoch loss {last!r} is not below the first {first!r}"
    return None


# ---------------------------------------------------------------------------
# metrics


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks."""
    order = np.argsort(values, kind="mergesort")
    s = values[order]
    n = values.shape[0]
    ranks = np.empty(n)
    bounds = np.flatnonzero(np.diff(s)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [n]])
    for a, b in zip(starts, ends):
        ranks[order[a:b]] = 0.5 * (a + 1 + b)
    return ranks


def mann_whitney_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    n_pos = int(positive.sum())
    n_neg = positive.shape[0] - n_pos
    r = average_ranks(scores)
    u = r[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def macro_f1(truth: np.ndarray, pred: np.ndarray) -> float:
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    f1 = []
    for c in range(N_CLASSES):
        tp = counts[c, c]
        fp = counts[:, c].sum() - tp
        fn = counts[c, :].sum() - tp
        f1.append(2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return float(np.mean(f1))


def check_auc(scores: np.ndarray, truth: np.ndarray, classes, reported: float, name: str) -> str | None:
    """Mean one-vs-all ROC area by rank recount; every area in (0.5, 1]."""
    aucs = [mann_whitney_auc(scores[:, c], truth == c) for c in classes]
    for c, a in zip(classes, aucs):
        if not 0.5 < a <= 1.0:
            return f"{name}: class {c} ROC area {a:.6f} outside (0.5, 1]"
    mean = float(np.mean(aucs))
    if not abs(mean - reported) <= AUC_ATOL:
        return f"{name}: compare reports mean AUC {reported!r}, recount gives {mean!r}"
    return None


def check_macro_f1(truth: np.ndarray, pred: np.ndarray, reported: float, name: str) -> str | None:
    f1 = macro_f1(truth, pred)
    if not abs(f1 - reported) <= F1_ATOL:
        return f"{name}: compare reports macro F1 {reported!r}, recount gives {f1!r}"
    return None


def check_triples(scores: np.ndarray, labels: np.ndarray, covered: np.ndarray) -> str | None:
    """Covered triples sum to one; the label is the first maximum."""
    s = scores[covered]
    if s.size and not np.all(np.abs(s.sum(axis=1) - 1.0) <= TRIPLE_ATOL):
        return "a covered score triple does not sum to 1"
    if not np.all(np.isfinite(s)):
        return "a covered score is not finite"
    # np.argmax returns the first of equal maxima, i.e. the lowest class code
    if not np.array_equal(labels[covered], s.argmax(axis=1)):
        return "a covered label is not the argmax with the lowest code winning ties"
    if np.any(labels[~covered] != -1) or not np.all(np.isnan(scores[~covered])):
        return "an uncovered row carries a score or label"
    return None


def check_tuning(tuned_point: tuple[float, ...], grids: tuple[np.ndarray, ...], tuned_f1: float,
                 other_f1: dict[tuple[float, ...], float], name: str) -> str | None:
    """Tuned thresholds lie on the grids and beat the sampled grid points."""
    for value, grid in zip(tuned_point, grids):
        if not np.any(grid == value):
            return f"{name}: tuned threshold {value!r} is not a grid point"
    for point, f1 in other_f1.items():
        if f1 > tuned_f1:
            return f"{name}: grid point {point} scores macro F1 {f1!r} > tuned {tuned_f1!r}"
    return None


# ---------------------------------------------------------------------------
# round trips


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and identical float64 bit patterns (NaN positions included)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))

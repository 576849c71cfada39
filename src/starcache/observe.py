"""Attacker-side measurement bookkeeping and recovery statistics.

An ObservationMatrix accumulates timing measurements cell by cell
(row: the secret or input byte value; column: probed block, set, or
prime position) together with a per-trial decision histogram.  The
leakage score is the plug-in mutual information of that decision
histogram; its significance is judged against a label-shuffling noise
floor computed from the same trials.

fold charges positional columns to conventional sets on a plain
array (one probe vector, or a matrix's lat_sum).

A trial adds one decision, so a run of T trials fills at most T of the
histogram's rows x cols cells.  The matrix therefore logs each decision
as one int64 code and builds the dense histogram only when a decision
meets a log that already holds rows * cols // 2 codes: decision storage
never exceeds 1.5 times the dense histogram's bytes, and a matrix with
no more decisions than that holds no histogram at all.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import index

import numpy as np


class ObservationMatrix:
    """Mean-latency heatmap plus per-trial decision counts.

    A trial always fills a whole row, so the matrix keeps one trial
    count per row (row_cnt); lat_cnt is its read-only per-cell view.

    Decisions go to a log of codes row * cols + decision.  The log's
    buffer grows by doubling up to rows * cols // 2 codes; when a full
    log meets one more decision it is folded into a dense int64
    histogram and refilled from the start.  dec_cnt adds the two up
    into a fresh (rows, cols) array on each read."""

    __slots__ = ("rows", "cols", "lat_sum", "row_cnt", "row_label",
                 "col_label", "_log", "_logged", "_limit", "_dense",
                 "_dense_n")

    def __init__(self, rows: int, cols: int,
                 row_label: str = "value", col_label: str = "position"):
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and column")
        self.rows = rows
        self.cols = cols
        self.row_label = row_label
        self.col_label = col_label
        self.lat_sum = np.zeros((rows, cols), dtype=np.float64)
        self.row_cnt = np.zeros(rows, dtype=np.int64)
        self._log = array("q")      # codes; only the first _logged are live
        self._logged = 0
        self._limit = max(rows * cols // 2, 1)  # one code for 1 x 1
        self._dense = None          # flat int64 histogram of folded codes
        self._dense_n = 0           # decisions folded into _dense

    def record(self, row: int, latencies, decision: int | None = None) -> None:
        """Fold one trial's measurement vector into the given row."""
        vec = np.asarray(latencies, dtype=np.float64)
        if vec.shape != (self.cols,):
            raise ValueError(f"expected {self.cols} latencies, got {vec.shape}")
        if not 0 <= row < self.rows:
            raise ValueError(f"row must lie in 0..{self.rows - 1}, got {row}")
        if decision is not None and not 0 <= decision < self.cols:
            raise ValueError(
                f"decision must lie in 0..{self.cols - 1}, got {decision}")
        self.lat_sum[row] += vec
        self.row_cnt[row] += 1
        if decision is not None:
            n = self._logged
            if n == len(self._log):
                n = self._make_room()
            # plain ints, so a narrow numpy integer cannot overflow
            self._log[n] = index(row) * self.cols + index(decision)
            self._logged = n + 1

    def _make_room(self) -> int:
        """Grow the full log, or fold it once it holds rows * cols // 2
        codes; return the slot the next code goes to."""
        n = self._logged
        if n < self._limit:
            grown = array("q", [0]) * min(max(2 * n, 64), self._limit)
            grown[:n] = self._log
            self._log = grown
            return n
        if self._dense is None:
            self._dense = np.zeros(self.rows * self.cols, dtype=np.int64)
        # add.at counts in place, where bincount would need a second
        # rows x cols array
        np.add.at(self._dense, self._codes(), 1)
        self._dense_n += n
        return 0

    def _codes(self) -> np.ndarray:
        """The live log codes as an int64 view."""
        return np.frombuffer(self._log, dtype=np.int64)[:self._logged]

    @property
    def dec_cnt(self) -> np.ndarray:
        """Decisions per cell, as a fresh C-contiguous int64 array."""
        counts = np.bincount(self._codes(), minlength=self.rows * self.cols)
        if self._dense is not None:
            counts += self._dense
        return counts.astype(np.int64, copy=False).reshape(self.rows, -1)

    @property
    def lat_cnt(self) -> np.ndarray:
        """Trials per cell: row_cnt broadcast over the columns, read-only
        and without a rows x cols copy."""
        return np.broadcast_to(self.row_cnt[:, None], (self.rows, self.cols))

    @property
    def trials(self) -> int:
        """Decisions recorded."""
        return self._dense_n + self._logged

    def mean_latency(self) -> np.ndarray:
        return _row_mean(self.lat_sum, self.row_cnt)

    def write_csv(self, path: str, header_items=()) -> None:
        """Long-form CSV: row,col,mean_latency,trials; rows never
        recorded are skipped."""
        mean = self.mean_latency().tolist()
        cnt = self.row_cnt.tolist()
        write_csv(path, header_items,
                  (self.row_label, self.col_label, "mean_latency", "trials"),
                  ((r, c, mean[r][c], cnt[r])
                   for r in np.flatnonzero(self.row_cnt).tolist()
                   for c in range(self.cols)))


def _row_mean(lat_sum: np.ndarray, row_cnt: np.ndarray) -> np.ndarray:
    """Latency sums per trial, row by row; rows never recorded read 0."""
    cnt = row_cnt[:, None]
    return np.divide(lat_sum, cnt, out=np.zeros_like(lat_sum), where=cnt > 0)


def fold(a: np.ndarray, cols: int) -> np.ndarray:
    """Sum a's last axis modulo cols (a itself when already cols wide):
    an attacker who assumes a conventional set layout charges position
    p of a positional probe to set p % cols."""
    width = a.shape[-1]
    if cols < 1 or width % cols:
        raise ValueError(f"{width} columns do not fold into {cols}")
    if width == cols:
        return a
    return a.reshape(*a.shape[:-1], -1, cols).sum(axis=-2)


def write_csv(path: str, header_items, columns, rows) -> None:
    """A "# key=value" line per header item, the column names, then one
    line per row, with floats written as %.6f."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in header_items:
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def mi_bits(counts: np.ndarray) -> float:
    """Plug-in mutual information (bits) of a contingency table."""
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    pr = p.sum(axis=1, keepdims=True)
    pc = p.sum(axis=0, keepdims=True)
    nz = p > 0
    ratio = p[nz] / (pr @ pc)[nz]
    return float(np.sum(p[nz] * np.log2(ratio)))


MIN_SCORE_TRIALS = 1 << 10
NOISE_PERMUTATIONS = 100


def leakage_score(m: ObservationMatrix) -> float:
    """Mutual information between row value and per-trial decision."""
    n = m.trials
    if n < MIN_SCORE_TRIALS:
        raise ValueError(
            f"leakage score needs at least {MIN_SCORE_TRIALS} decisions, have {n}")
    return mi_bits(m.dec_cnt)


def noise_floor(m: ObservationMatrix, seed: int = 0x5EED) -> float:
    """Largest score over NOISE_PERMUTATIONS shufflings of the row labels.

    Shuffling breaks any real row/decision association while keeping
    both marginals, so the returned maximum tracks the small-sample
    bias a plug-in estimate carries even on independent data.
    """
    counts = m.dec_cnt
    n = int(counts.sum())
    if n == 0:
        return 0.0
    rows_idx, cols_idx = np.nonzero(counts)
    reps = counts[rows_idx, cols_idx]
    rows_flat = np.repeat(rows_idx, reps)
    cols_flat = np.repeat(cols_idx, reps)
    gen = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    ncols = m.cols
    for _ in range(NOISE_PERMUTATIONS):
        shuffled = gen.permutation(rows_flat)
        table = np.bincount(shuffled * ncols + cols_flat,
                            minlength=m.rows * ncols)
        worst = max(worst, mi_bits(table.reshape(m.rows, ncols)))
    return worst


NIBBLE_VALUES = 16


@dataclass(slots=True)
class RecoveryResult:
    """Per-key-byte recovered high nibble with its vote share."""
    nibbles: list
    shares: list

    def as_text(self) -> list[str]:
        out = []
        for j, (n, s) in enumerate(zip(self.nibbles, self.shares)):
            shown = "NONE" if n is None else f"0x{n:x}"
            out.append(f"byte {j:2d}: {shown} (vote share {s:.3f})")
        return out

    def as_summary(self) -> dict:
        return {
            "nibbles": ["NONE" if n is None else n for n in self.nibbles],
            "vote_shares": [round(s, 6) for s in self.shares],
        }


def recover_nibble(m: ObservationMatrix, mode: str, table_lo: int,
                   vote_threshold: float = 0.5,
                   fold_to: int | None = None) -> tuple[int | None, float]:
    """Vote a key nibble out of one byte position's latency heatmap.

    Each populated row v picks its extreme column c inside the 16-line
    table window starting at table_lo; since the victim touches line
    (v XOR key) >> 4, the row votes for c XOR (v >> 4).  The winning
    nibble must carry at least vote_threshold of the votes.
    """
    if mode not in ("dip", "peak"):
        raise ValueError("mode is 'dip' or 'peak'")
    lat = m.lat_sum if fold_to is None else fold(m.lat_sum, fold_to)
    mean = _row_mean(lat, m.row_cnt)
    votes = np.zeros(NIBBLE_VALUES, dtype=np.int64)
    for v in range(m.rows):
        if not m.row_cnt[v]:
            continue
        window = mean[v, table_lo:table_lo + NIBBLE_VALUES]
        c = int(np.argmin(window) if mode == "dip" else np.argmax(window))
        votes[c ^ (v >> 4)] += 1
    total = int(votes.sum())
    if total == 0:
        return None, 0.0
    best = int(np.argmax(votes))
    share = votes[best] / total
    if share < vote_threshold:
        return None, share
    return best, share


def extreme_with_margin(values: np.ndarray, mode: str) -> tuple[int, float]:
    """Extreme column and how far it stands from the mean of the rest."""
    if mode == "dip":
        c = int(np.argmin(values))
    else:
        c = int(np.argmax(values))
    rest = np.delete(values, c)
    if rest.size == 0:
        return c, 0.0
    margin = float(rest.mean() - values[c]) if mode == "dip" \
        else float(values[c] - rest.mean())
    return c, margin


def recover_byte(values: np.ndarray, mode: str,
                 threshold: float) -> tuple[int | None, float]:
    """Pick the significant extreme column as the recovered byte.
    Abstains unless margin >= threshold, which a NaN margin fails."""
    c, margin = extreme_with_margin(values, mode)
    if not margin >= threshold:
        return None, margin
    return c, margin

"""Uniform time-sampled position traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PositionTrace", "save_trace_csv", "load_trace_csv", "sample_segments"]


@dataclass
class PositionTrace:
    """Positions of N nodes sampled every ``sample_interval`` seconds.

    ``positions`` has shape (N, T, 2) in meters.  NaN rows mark samples at
    which a node is absent (e.g. a gap in a GPS log); absent nodes produce
    no contacts.
    """

    positions: np.ndarray
    sample_interval: float
    width: float
    height: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 3 or self.positions.shape[2] != 2:
            raise ValueError("positions must have shape (N, T, 2)")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def n_samples(self) -> int:
        return self.positions.shape[1]

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) * self.sample_interval

    def sample_times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.sample_interval


def time_format(interval: float) -> str:
    """The format spec that writes every multiple of ``interval`` as its
    exact decimal: one decimal place on grids of whole or tenth seconds, as
    many as ``interval`` has on finer ones."""
    return f".{max(1, len(np.format_float_positional(interval).partition('.')[2]))}f"


def save_trace_csv(trace: PositionTrace, path) -> None:
    """Write ``time_s,node_id,x_m,y_m`` rows, one per node per sample."""
    times = trace.sample_times()
    fmt = time_format(trace.sample_interval)
    with open(path, "w") as fh:
        fh.write(f"# interval={trace.sample_interval} width={trace.width} height={trace.height}\n")
        fh.write("time_s,node_id,x_m,y_m\n")
        for ti, t in enumerate(times):
            for n in range(trace.n_nodes):
                x, y = trace.positions[n, ti]
                if np.isnan(x):
                    continue
                fh.write(f"{t:{fmt}},{n},{x:.3f},{y:.3f}\n")


def read_headed_csv(path, keys: dict, columns: str) -> tuple[dict, list[tuple[int, list[str]]]]:
    """The ``# key=value`` header values and the data rows of a CSV file.

    Header values whose key ``keys`` names are converted by ``keys[key]``;
    other keys are ignored.  Blank lines and the column-name line (starting
    with ``columns``) are skipped; every other line is a ``(line number,
    fields)`` row.  Raises ValueError, naming the file and line, on a header
    value ``keys[key]`` cannot convert, and on an explicit non-positive
    ``interval``.
    """
    header, rows = {}, []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(columns):
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    k, _, v = tok.partition("=")
                    if k in keys:
                        try:
                            header[k] = keys[k](v)
                        except ValueError:
                            raise ValueError(f"{path}, line {lineno}: cannot read {k}={v!r} "
                                             f"as {keys[k].__name__}") from None
            else:
                rows.append((lineno, line.split(",")))
    if not header.get("interval", 1.0) > 0:
        raise ValueError(f"{path}: interval must be positive, got {header['interval']}")
    return header, rows


def load_trace_csv(path) -> PositionTrace:
    """Read a trace written by :func:`save_trace_csv`.

    Raises ValueError naming the file line of a row that is not four
    numbers, has a negative node id or time, lies off the sample grid by more
    than 0.05 s (files written with one decimal place round to 0.1 s) or a
    quarter of the interval, whichever is less, or repeats a (node, sample).
    """
    header, lines = read_headed_csv(path, {"interval": float, "width": float, "height": float},
                                    "time_s")
    interval = header.get("interval")
    if not lines or interval is None:
        raise ValueError(f"no trace data in {path}")
    rows, first_line = [], {}
    for lineno, fields in lines:
        where = f"{path}, line {lineno}"
        try:
            t, n, x, y = fields
            t, n, x, y = float(t), int(n), float(x), float(y)
        except ValueError:
            raise ValueError(f"{where}: expected time_s,node_id,x_m,y_m, "
                             f"got {','.join(fields)!r}") from None
        if n < 0:
            raise ValueError(f"{where}: node_id must be nonnegative, got {n}")
        if not t >= 0:
            raise ValueError(f"{where}: time_s must be nonnegative, got {t}")
        ti = int(round(t / interval))
        # One decimal place rounds by 0.05 s; a fine grid allows a quarter interval.
        if abs(t - ti * interval) > min(0.05, interval / 4) + 1e-6:
            raise ValueError(f"{where}: time_s {t} is off the {interval} s sample grid")
        first = first_line.setdefault((n, ti), lineno)
        if first != lineno:
            raise ValueError(f"{where}: node {n} already has sample {ti} (line {first})")
        rows.append((n, ti, x, y))
    n_nodes = max(r[0] for r in rows) + 1
    n_samples = max(r[1] for r in rows) + 1
    pos = np.full((n_nodes, n_samples, 2), np.nan)
    for n, ti, x, y in rows:
        pos[n, ti] = (x, y)
    width, height = header.get("width"), header.get("height")
    return PositionTrace(pos, interval, width or np.nanmax(pos[..., 0]),
                         height or np.nanmax(pos[..., 1]))


def sample_segments(
    times: list[float], xs: list[float], ys: list[float], duration: float, interval: float
) -> np.ndarray:
    """Sample a piecewise-linear motion onto a uniform grid.

    ``times``, ``xs`` and ``ys`` are the (t, x, y) knots of the motion,
    covering [0, duration]; position between knots is linear (a pause is two
    knots at the same place).  Returns an array of shape (T, 2).
    """
    grid = np.arange(int(round(duration / interval)) + 1) * interval
    # The knots read as doubles of a known count (the same values, without
    # dtype discovery), each coordinate written in place (no np.stack).
    count = len(times)
    times = np.fromiter(times, float, count)
    out = np.empty((len(grid), 2))
    out[:, 0] = np.interp(grid, times, np.fromiter(xs, float, count))
    out[:, 1] = np.interp(grid, times, np.fromiter(ys, float, count))
    return out

"""Uniform time-sampled position traces."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    node_labels: list[str] | None = None

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

    def in_bounds(self) -> bool:
        """True when every recorded sample lies inside the area."""
        p = self.positions
        finite = np.isfinite(p).all(axis=2)
        x, y = p[..., 0], p[..., 1]
        ok_x = (x[finite] >= -1e-9) & (x[finite] <= self.width + 1e-9)
        ok_y = (y[finite] >= -1e-9) & (y[finite] <= self.height + 1e-9)
        return bool(ok_x.all() and ok_y.all())


def save_trace_csv(trace: PositionTrace, path) -> None:
    """Write ``time_s,node_id,x_m,y_m`` rows, one per node per sample."""
    times = trace.sample_times()
    with open(path, "w") as fh:
        fh.write(f"# interval={trace.sample_interval} width={trace.width} height={trace.height}\n")
        fh.write("time_s,node_id,x_m,y_m\n")
        for ti, t in enumerate(times):
            for n in range(trace.n_nodes):
                x, y = trace.positions[n, ti]
                if np.isnan(x):
                    continue
                fh.write(f"{t:.1f},{n},{x:.3f},{y:.3f}\n")


def load_trace_csv(path) -> PositionTrace:
    """Read a trace written by :func:`save_trace_csv`."""
    interval = width = height = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    k, _, v = tok.partition("=")
                    if k == "interval":
                        interval = float(v)
                    elif k == "width":
                        width = float(v)
                    elif k == "height":
                        height = float(v)
                continue
            if line.startswith("time_s"):
                continue
            t, n, x, y = line.split(",")
            rows.append((float(t), int(n), float(x), float(y)))
    if not rows or interval is None:
        raise ValueError(f"no trace data in {path}")
    n_nodes = max(r[1] for r in rows) + 1
    t_max = max(r[0] for r in rows)
    n_samples = int(round(t_max / interval)) + 1
    pos = np.full((n_nodes, n_samples, 2), np.nan)
    for t, n, x, y in rows:
        ti = int(round(t / interval))
        pos[n, ti] = (x, y)
    return PositionTrace(pos, interval, width or np.nanmax(pos[..., 0]), height or np.nanmax(pos[..., 1]))


def sample_segments(
    times: list[float], xs: list[float], ys: list[float], duration: float, interval: float
) -> np.ndarray:
    """Sample a piecewise-linear motion onto a uniform grid.

    ``times``, ``xs`` and ``ys`` are the (t, x, y) knots of the motion,
    covering [0, duration]; position between knots is linear (a pause is two
    knots at the same place).  Returns an array of shape (T, 2).
    """
    grid = np.arange(int(round(duration / interval)) + 1) * interval
    return np.stack([np.interp(grid, times, xs), np.interp(grid, times, ys)], axis=1)

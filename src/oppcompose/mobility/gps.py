"""GPS log ingestion.

Turns raw per-user GPS fixes (CSV) into a uniform time-sampled
:class:`PositionTrace`.  Logs recorded by the same user on different days
can be split into separate nodes overlaid on a single day, which is how a
multi-day collection is condensed into one dense trace.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .trace import PositionTrace

__all__ = ["ingest_gps_log", "GpsParseError"]

_EARTH_M_PER_DEG_LAT = 110540.0
_EARTH_M_PER_DEG_LON = 111320.0


class GpsParseError(ValueError):
    """Raised when rows cannot be parsed; carries (file, line, reason) triples."""

    def __init__(self, problems: list[tuple[str, int, str]]):
        self.problems = problems
        lines = "; ".join(f"{f}:{ln}: {why}" for f, ln, why in problems[:20])
        more = "" if len(problems) <= 20 else f" (+{len(problems) - 20} more)"
        super().__init__(f"unparseable GPS rows: {lines}{more}")


def _parse_time(raw: str) -> float:
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    return datetime.fromisoformat(raw).timestamp()


def ingest_gps_log(
    files: list[str],
    area_mapping: str = "xy",
    truncate_to: float = 5400.0,
    split_multiday: bool = True,
    sample_interval: float = 30.0,
    max_gap: float = 600.0,
) -> PositionTrace:
    """Read CSV fixes ``user,time,x,y`` and resample onto a uniform grid.

    area_mapping: 'xy' treats the two coordinates as meters; 'lonlat'
    projects longitude/latitude onto a local equirectangular plane.
    Each node's log is clipped to ``truncate_to`` seconds; samples are
    linearly interpolated, except across gaps longer than ``max_gap``,
    where the node is absent (NaN).  With ``split_multiday`` every
    (user, day) pair becomes its own node, re-based to time of day.
    """
    fixes: dict[str, list[tuple[float, float, float]]] = {}
    problems: list[tuple[str, int, str]] = []
    for path in files:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for line_no, row in enumerate(reader, start=1):
                if not row or row[0].startswith("#"):
                    continue
                if line_no == 1 and not _looks_like_data(row):
                    continue  # header
                if len(row) < 4:
                    problems.append((str(path), line_no, f"expected 4 columns, got {len(row)}"))
                    continue
                try:
                    user = row[0].strip()
                    t = _parse_time(row[1])
                    x = float(row[2])
                    y = float(row[3])
                except (ValueError, IndexError) as exc:
                    problems.append((str(path), line_no, str(exc)))
                    continue
                fixes.setdefault(user, []).append((t, x, y))
    if problems:
        raise GpsParseError(problems)
    if not fixes:
        raise ValueError("no GPS fixes found")

    # Split by day and re-base each track to its offset within the day.
    tracks: dict[str, list[tuple[float, float, float]]] = {}
    for user, rows in fixes.items():
        rows.sort()
        if split_multiday:
            for t, x, y in rows:
                day = int(t // 86400)
                tracks.setdefault(f"{user}@{day}", []).append((t - day * 86400, x, y))
        else:
            t0 = rows[0][0]
            tracks[user] = [(t - t0, x, y) for t, x, y in rows]

    if area_mapping == "lonlat":
        tracks = _project_lonlat(tracks)
    elif area_mapping != "xy":
        raise ValueError(f"unknown area mapping {area_mapping!r}")

    # Common timeline starts at the earliest fix over all tracks.
    t_start = min(rows[0][0] for rows in tracks.values())
    x_min = min(x for rows in tracks.values() for _, x, _ in rows)
    y_min = min(y for rows in tracks.values() for _, _, y in rows)

    labels = sorted(tracks)
    n_samples = int(truncate_to // sample_interval) + 1
    times = t_start + np.arange(n_samples) * sample_interval
    positions = np.full((len(labels), n_samples, 2), np.nan)
    for node, label in enumerate(labels):
        rows = tracks[label]
        clip_end = rows[0][0] + truncate_to
        rows = [r for r in rows if r[0] <= clip_end]
        ts = np.array([r[0] for r in rows])
        xs = np.array([r[1] - x_min for r in rows])
        ys = np.array([r[2] - y_min for r in rows])
        for ti, t in enumerate(times):
            idx = np.searchsorted(ts, t)
            if idx == 0:
                if abs(ts[0] - t) < 1e-9:
                    positions[node, ti] = (xs[0], ys[0])
                continue
            if idx >= len(ts):
                if abs(ts[-1] - t) < 1e-9:
                    positions[node, ti] = (xs[-1], ys[-1])
                continue
            lo, hi = idx - 1, idx
            if ts[hi] - ts[lo] > max_gap:
                continue
            frac = (t - ts[lo]) / (ts[hi] - ts[lo]) if ts[hi] > ts[lo] else 0.0
            positions[node, ti] = (
                xs[lo] + frac * (xs[hi] - xs[lo]),
                ys[lo] + frac * (ys[hi] - ys[lo]),
            )

    if not np.isfinite(positions).any():
        raise ValueError("ingestion produced an empty trace (no samples in window)")
    width = float(np.nanmax(positions[..., 0])) or 1.0
    height = float(np.nanmax(positions[..., 1])) or 1.0
    return PositionTrace(positions, sample_interval, width, height)


def _looks_like_data(row: list[str]) -> bool:
    if len(row) < 4:
        return False
    try:
        float(row[2])
        float(row[3])
        return True
    except ValueError:
        return False


def _project_lonlat(tracks: dict) -> dict:
    lats = [y for rows in tracks.values() for _, _, y in rows]
    lat_mid = math.radians(sum(lats) / len(lats))
    out = {}
    for label, rows in tracks.items():
        out[label] = [
            (t, lon * _EARTH_M_PER_DEG_LON * math.cos(lat_mid), lat * _EARTH_M_PER_DEG_LAT)
            for t, lon, lat in rows
        ]
    return out

"""ECDC-format daily count ingestion and the day-number calendar.

Day numbers index calendar days with December 31, 2019 mapping to 1
(so March 1, 2020 is day 62 under the leap year).  Parsed series are
gap-free: missing calendar days become explicit zero-count records
carrying a ``filled`` flag.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, replace
from datetime import date, timedelta

from .errors import AdjustmentError, DataError

__all__ = [
    "DAYNUM_EPOCH",
    "DailyRecord",
    "DailySeries",
    "daynum_of_date",
    "date_of_daynum",
    "weekday_of_daynum",
    "parse_ecdc_csv",
    "load_adjustments",
]

WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday",
            "Friday", "Saturday", "Sunday")

# daynum = (date - DAYNUM_EPOCH).days, making Dec 31 2019 day 1.
DAYNUM_EPOCH = date(2019, 12, 30)

_REQUIRED_COLUMNS = ("dateRep", "day", "month", "year", "deaths",
                     "countriesAndTerritories")


def daynum_of_date(d: date) -> int:
    return (d - DAYNUM_EPOCH).days


def date_of_daynum(daynum: int) -> date:
    return DAYNUM_EPOCH + timedelta(days=int(daynum))


def weekday_of_daynum(daynum: int) -> str:
    return WEEKDAYS[date_of_daynum(daynum).weekday()]


@dataclass(frozen=True)
class DailyRecord:
    date: date
    daynum: int
    weekday: str
    count: int
    filled: bool = False


@dataclass(frozen=True)
class DailySeries:
    """Consecutive daily counts for one country plus pending adjustments."""

    records: tuple[DailyRecord, ...]
    country: str
    adjustments: tuple[tuple[int, int], ...] = ()

    def counts(self) -> list[int]:
        return [r.count for r in self.records]

    def daynums(self) -> list[int]:
        return [r.daynum for r in self.records]

    def first_daynum(self) -> int:
        return self.records[0].daynum

    def last_daynum(self) -> int:
        return self.records[-1].daynum

    def total(self) -> int:
        return sum(r.count for r in self.records)

    def cumulative_to(self, daynum: int) -> int:
        return sum(r.count for r in self.records if r.daynum <= daynum)

    def truncated(self, cutoff_daynum: int, start_daynum: int | None = None) -> "DailySeries":
        recs = tuple(r for r in self.records
                     if r.daynum <= cutoff_daynum
                     and (start_daynum is None or r.daynum >= start_daynum))
        if not recs:
            raise DataError(f"no records at or before day {cutoff_daynum}")
        adj = tuple(a for a in self.adjustments if a[0] <= cutoff_daynum)
        return DailySeries(records=recs, country=self.country, adjustments=adj)

    def with_adjustments(self, adjustments) -> "DailySeries":
        return replace(self, adjustments=tuple((int(d), int(a)) for d, a in adjustments))


def _record_for(d: date, count: int, filled: bool = False) -> DailyRecord:
    return DailyRecord(date=d, daynum=daynum_of_date(d),
                       weekday=WEEKDAYS[d.weekday()], count=count, filled=filled)


def _parse_row_date(row: dict, line: int) -> date:
    raw = (row.get("dateRep") or "").strip()
    if raw:
        parts = raw.split("/")
        if len(parts) == 3:
            try:
                dd, mm, yyyy = (int(p) for p in parts)
                return date(yyyy, mm, dd)
            except ValueError:
                pass
    try:
        return date(int(row["year"]), int(row["month"]), int(row["day"]))
    except (ValueError, KeyError) as exc:
        raise DataError(f"unparseable date {raw!r}", line=line) from exc


def parse_ecdc_csv(path, country: str) -> DailySeries:
    """Read an ECDC-layout CSV and return the series for one country.

    Rows match when ``country`` equals either countriesAndTerritories or
    geoId (case-insensitive).  Dates come from dateRep (dd/mm/yyyy) with
    the day/month/year columns as fallback.  Gaps in the calendar are
    zero-filled and flagged.

    The file is read on every call; the parse of its text is memoized
    per process for the last few (text, country) pairs, so a rewritten
    file is always parsed anew.  Errors are raised on every call.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    return _parse_text(text, country)


@functools.lru_cache(maxsize=4)
def _parse_text(text: str, country: str) -> DailySeries:
    """parse_ecdc_csv on the file's text; the series is immutable, so
    callers may share it."""
    want = country.strip().lower()
    rows: list[tuple[date, int, int]] = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise DataError("empty file, no header row")
    missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise DataError(f"missing required columns: {', '.join(missing)}")
    has_geo = "geoId" in reader.fieldnames
    for line, row in enumerate(reader, start=2):
        name = (row.get("countriesAndTerritories") or "").strip().lower()
        geo = (row.get("geoId") or "").strip().lower() if has_geo else ""
        if want not in (name, geo):
            continue
        d = _parse_row_date(row, line)
        try:
            deaths = int(str(row["deaths"]).strip())
        except (ValueError, TypeError) as exc:
            raise DataError(f"unparseable deaths value {row.get('deaths')!r}",
                            line=line) from exc
        if deaths < 0:
            raise DataError(f"negative deaths count {deaths}", line=line)
        rows.append((d, deaths, line))
    if not rows:
        raise DataError(f"no rows for country {country!r}")
    rows.sort(key=lambda r: r[0])
    seen: dict[date, int] = {}
    for d, _, line in rows:
        if d in seen:
            raise DataError(f"duplicate date {d.isoformat()}", line=line)
        seen[d] = line
    records: list[DailyRecord] = []
    by_date = {d: c for d, c, _ in rows}
    cur = rows[0][0]
    last = rows[-1][0]
    while cur <= last:
        if cur in by_date:
            records.append(_record_for(cur, by_date[cur]))
        else:
            records.append(_record_for(cur, 0, filled=True))
        cur += timedelta(days=1)
    return DailySeries(records=tuple(records), country=country)


def load_adjustments(path) -> tuple[tuple[int, int], ...]:
    """Read reporting adjustments from a JSON list of {daynum, amount}."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid adjustments JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DataError("adjustments file must hold a JSON list")
    out = []
    for item in raw:
        try:
            daynum = int(item["daynum"])
            amount = int(item["amount"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad adjustment entry {item!r}") from exc
        if amount < 0:
            raise AdjustmentError(f"negative adjustment amount {amount} on day {daynum}")
        out.append((daynum, amount))
    return tuple(out)

"""Report rows and their CSV files, in the standard library only.

`report.csv` holds one `ReportRow` per measured (policy, rate, seed,
frame) and per prediction overlay; `summary.csv` holds one
`PolicySummary` per (policy, rate). This module also holds `ParseError`,
which every file reader raises with the offending line, and the policy
names. Nothing here imports numpy, so `graphelim report` starts without
it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

POLICY_NAMES = ("full", "rand", "tgreedy", "kf", "dec")

_ROW_ORDER = {name: i for i, name in enumerate((*POLICY_NAMES, "pred_kf", "pred_dec"))}


class ParseError(ValueError):
    """Malformed graph/log/ordering/report file; carries the offending line number."""

    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}:{line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ReportRow:
    frame_idx: int
    policy: str
    rate: int
    seed: int
    n_vars: int | None
    n_factors: int | None
    ec_block: float
    ec_bt: int | None
    oracle_mult_count: int | None
    predicted_ec: int | None


CSV_HEADER = tuple(f.name for f in fields(ReportRow))


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def _records_to_csv(cls: type, records: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(cls))
    for r in records:
        writer.writerow([_format_value(v) for v in astuple(r)])
    return buf.getvalue()


def rows_to_csv(rows: list[ReportRow]) -> str:
    return _records_to_csv(ReportRow, rows)


def write_report_csv(rows: list[ReportRow], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8", newline="\n")


_REQUIRED_FIELDS = ("frame_idx", "rate", "seed", "ec_block")


def _parse_field(name: str, text: str) -> int | float | None:
    """One numeric report field: finite and at least its floor, empty if optional."""
    if not text and name not in _REQUIRED_FIELDS:
        return None
    try:
        value = float(text) if name == "ec_block" else int(text)
    except ValueError:
        raise ValueError(f"{name}: expected a number, got {text!r}") from None
    low = 1 if name == "rate" else 0
    if not low <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= {low}, got {text!r}")
    return value


def read_report_csv(path: str | Path) -> list[ReportRow]:
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(CSV_HEADER):
        raise ParseError(str(path), 1, f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        try:
            if len(rec) != len(CSV_HEADER):
                raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(rec)}")
            if rec[1] not in _ROW_ORDER:
                raise ValueError(f"unknown policy {rec[1]!r}")
            rows.append(
                ReportRow(
                    *(
                        cell if name == "policy" else _parse_field(name, cell)
                        for name, cell in zip(CSV_HEADER, rec)
                    )
                )
            )
        except ValueError as exc:
            raise ParseError(str(path), reader.line_num, str(exc)) from None
    return rows


@dataclass(frozen=True)
class PolicySummary:
    policy: str
    rate: int
    final_ec: float
    mean_oracle_mult: float | None


def summarize(rows: list[ReportRow]) -> list[PolicySummary]:
    """Per (policy, rate): final-frame cost and mean oracle count."""
    groups: dict[tuple[str, int], list[ReportRow]] = {}
    for r in rows:
        if r.policy.startswith("pred_"):
            continue
        groups.setdefault((r.policy, r.rate), []).append(r)
    out = []
    for (policy, rate), members in sorted(
        groups.items(), key=lambda kv: (_ROW_ORDER[kv[0][0]], kv[0][1])
    ):
        last = max(f.frame_idx for f in members)
        finals = [f.ec_block for f in members if f.frame_idx == last]
        counts = [f.oracle_mult_count for f in members if f.oracle_mult_count is not None]
        out.append(
            PolicySummary(
                policy,
                rate,
                sum(finals) / len(finals),
                (sum(counts) / len(counts)) if counts else None,
            )
        )
    return out


def summary_to_csv(summaries: list[PolicySummary]) -> str:
    return _records_to_csv(PolicySummary, summaries)

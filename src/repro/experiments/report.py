"""Markdown report generation for experiment results.

Turns a collection of :class:`~repro.experiments.base.ExperimentResult`
objects into the paper-vs-measured record that EXPERIMENTS.md is based
on.  Useful for re-running the whole evaluation on modified simulator or
library parameters and diffing the outcome::

    python -m repro.experiments all --markdown results.md
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .base import ExperimentResult

#: Relative deviation below which a measured value is flagged as matching.
MATCH_TOLERANCE = 0.15


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if float(value).is_integer() and abs(value) < 1e6:
        return f"{value:.0f}"
    return f"{value:.2f}"


def match_flag(paper: Optional[float], measured: Optional[float]) -> str:
    """A compact match marker for one metric.

    ``✔`` when within :data:`MATCH_TOLERANCE` of the paper's value, ``≈``
    when both exist but differ more, and blank when the paper gives no
    number for the metric.
    """

    if paper is None or measured is None:
        return ""
    if paper == 0:
        return "✔" if abs(measured) < MATCH_TOLERANCE else "≈"
    deviation = abs(measured - paper) / abs(paper)
    return "✔" if deviation <= MATCH_TOLERANCE else "≈"


def metric_rows(result: ExperimentResult) -> List[Dict[str, str]]:
    """Per-metric comparison rows for one experiment."""

    rows = []
    for key in sorted(set(result.measured) | set(result.paper)):
        paper = result.paper.get(key)
        measured = result.measured.get(key)
        rows.append(
            {
                "metric": key,
                "paper": _format_value(paper),
                "measured": _format_value(measured),
                "match": match_flag(paper, measured),
            }
        )
    return rows


def experiment_section(result: ExperimentResult, include_text: bool = False) -> str:
    """Markdown section for one experiment."""

    lines = [f"### {result.experiment_id}: {result.title}", "", result.description, ""]
    rows = metric_rows(result)
    if rows:
        lines.append("| metric | paper | measured | match |")
        lines.append("|---|---|---|---|")
        for row in rows:
            lines.append(
                f"| {row['metric']} | {row['paper']} | {row['measured']} | {row['match']} |"
            )
        lines.append("")
    if include_text and result.text:
        lines.append("```")
        lines.append(result.text)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def summary_table(results: Sequence[ExperimentResult]) -> str:
    """One-line-per-experiment markdown summary table."""

    lines = [
        "| experiment | title | matched metrics | compared metrics |",
        "|---|---|---|---|",
    ]
    for result in results:
        rows = metric_rows(result)
        compared = sum(1 for row in rows if row["match"])
        matched = sum(1 for row in rows if row["match"] == "✔")
        lines.append(
            f"| {result.experiment_id} | {result.title} | {matched} | {compared} |"
        )
    return "\n".join(lines)


def render_markdown_report(
    results: Iterable[ExperimentResult],
    title: str = "Reproduction report",
    include_text: bool = False,
) -> str:
    """Full markdown report: summary table plus one section per experiment."""

    result_list = list(results)
    parts = [
        f"# {title}",
        "",
        "Paper: Radu et al., \"Performance Aware Convolutional Neural Network "
        "Channel Pruning for Embedded GPUs\", IISWC 2019.",
        "",
        summary_table(result_list),
        "",
    ]
    parts.extend(experiment_section(result, include_text) for result in result_list)
    return "\n".join(parts)


def write_markdown_report(
    results: Iterable[ExperimentResult],
    path: str,
    title: str = "Reproduction report",
    include_text: bool = False,
) -> str:
    """Render and write the report; returns the rendered markdown."""

    report = render_markdown_report(results, title=title, include_text=include_text)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report)
    return report

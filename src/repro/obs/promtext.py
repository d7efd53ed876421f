"""Parser/validator for the Prometheus text exposition format.

``/metrics`` is an interface contract: a scrape that renders but does not
*parse* — a stray float ``inf``, a non-monotonic histogram bucket, an
unescaped label value — silently breaks every dashboard built on it.
This module is the consumer side of that contract, used three ways:

* the gateway test suite validates every scrape it takes;
* ``scripts/gateway_smoke.py`` fails CI on an invalid exposition, a
  missing histogram family or a family the gateway's table does not
  register;
* benchmarks read histogram families back without regexes.

Only the subset the gateway emits is supported (``counter``, ``gauge``,
``histogram``; optional timestamps are rejected as unexpected), which is
the point — anything outside the subset is a bug, not an extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

#: Suffixes a histogram family's samples may carry.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


class ExpositionError(ValueError):
    """The scrape violates the text exposition format; ``errors`` lists how."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__(
            f"{len(errors)} exposition error(s):\n" + "\n".join(f"- {e}" for e in errors)
        )
        self.errors = errors


@dataclass
class Sample:
    """One sample line: metric name, label dict, parsed float value."""

    name: str
    labels: dict
    value: float
    line_no: int = 0


@dataclass
class Family:
    """One metric family: HELP/TYPE header plus its samples."""

    name: str
    type: str = ""
    help: str = ""
    samples: list[Sample] = field(default_factory=list)

    def value(self, **labels) -> float:
        """The single sample matching ``labels`` exactly (raises otherwise)."""
        matches = [s for s in self.samples if s.labels == labels]
        if len(matches) != 1:
            raise KeyError(
                f"{self.name}: {len(matches)} samples match labels {labels!r}"
            )
        return matches[0].value


def _parse_labels(blob: str, line_no: int, errors: list[str]) -> dict:
    """Parse ``name="value",...`` honouring ``\\\\``, ``\\"`` and ``\\n`` escapes."""
    labels: dict[str, str] = {}
    i = 0
    n = len(blob)
    while i < n:
        eq = blob.find("=", i)
        if eq < 0:
            errors.append(f"line {line_no}: malformed label pair in {{{blob}}}")
            return labels
        name = blob[i:eq].strip().lstrip(",").strip()
        if eq + 1 >= n or blob[eq + 1] != '"':
            errors.append(f"line {line_no}: label {name!r} value is not quoted")
            return labels
        value_chars: list[str] = []
        j = eq + 2
        closed = False
        while j < n:
            ch = blob[j]
            if ch == "\\":
                if j + 1 >= n:
                    break
                escaped = blob[j + 1]
                if escaped == "n":
                    value_chars.append("\n")
                elif escaped in ('"', "\\"):
                    value_chars.append(escaped)
                else:
                    errors.append(
                        f"line {line_no}: invalid escape '\\{escaped}' in label "
                        f"{name!r}"
                    )
                    value_chars.append(escaped)
                j += 2
                continue
            if ch == '"':
                closed = True
                j += 1
                break
            value_chars.append(ch)
            j += 1
        if not closed:
            errors.append(f"line {line_no}: unterminated label value for {name!r}")
            return labels
        labels[name] = "".join(value_chars)
        i = j
    return labels


def _parse_value(text: str, line_no: int, errors: list[str]) -> float:
    if text in ("+Inf", "-Inf", "NaN"):
        return float(text.replace("Inf", "inf").replace("NaN", "nan"))
    lowered = text.lower()
    if "inf" in lowered or "nan" in lowered:
        # Python float() would happily accept "inf"/"nan", but Prometheus
        # requires the canonical spellings above — this is exactly the
        # ``repr(float)`` bug class the renderer must not regress into.
        errors.append(
            f"line {line_no}: non-finite value {text!r} must be rendered as "
            "+Inf/-Inf/NaN"
        )
        return float(lowered)
    try:
        return float(text)
    except ValueError:
        errors.append(f"line {line_no}: unparseable sample value {text!r}")
        return math.nan


def parse_exposition(text: str) -> dict[str, Family]:
    """Parse a scrape into families; raises :class:`ExpositionError` on faults.

    Beyond shape, this checks the invariants dashboards rely on: HELP and
    TYPE headers precede every family's samples, all lines of one family
    form one contiguous group, histogram buckets are cumulative-monotonic
    with a ``+Inf`` bucket equal to ``_count``, counters are finite and
    non-negative, and no sample is duplicated.
    """
    errors: list[str] = []
    families: dict[str, Family] = {}
    ended: set[str] = set()  # families whose group another family's line closed
    current = ""  # the family of the last header or sample line

    def enter(name: str, line_no: int) -> None:
        nonlocal current
        if name == current:
            return
        if name in ended:
            errors.append(
                f"line {line_no}: {name} resumes after its group ended (all lines "
                "of a family must be contiguous)"
            )
        ended.add(current)
        current = name

    def family_for(sample_name: str) -> str:
        if sample_name in families:
            return sample_name
        for suffix in _HISTOGRAM_SUFFIXES:
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if base in families and families[base].type in ("histogram", "summary"):
                    return base
        return sample_name

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(" ", 1)
            name = parts[0]
            enter(name, line_no)
            family = families.setdefault(name, Family(name))
            if family.help:
                errors.append(f"line {line_no}: duplicate HELP for {name}")
            family.help = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2 or parts[1] not in _VALID_TYPES:
                errors.append(f"line {line_no}: malformed TYPE line {line!r}")
                continue
            name, metric_type = parts
            enter(name, line_no)
            family = families.setdefault(name, Family(name))
            if family.type:
                errors.append(f"line {line_no}: duplicate TYPE for {name}")
            if family.samples:
                errors.append(
                    f"line {line_no}: TYPE for {name} appears after its samples"
                )
            family.type = metric_type
            continue
        if line.startswith("#"):
            continue  # free-form comment

        # Sample line: name[{labels}] value
        brace = line.find("{")
        labels: dict = {}
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                errors.append(f"line {line_no}: unbalanced braces in {line!r}")
                continue
            name = line[:brace]
            labels = _parse_labels(line[brace + 1 : close], line_no, errors)
            rest = line[close + 1 :].strip()
        else:
            name, _, rest = line.partition(" ")
            rest = rest.strip()
        if not name or not rest:
            errors.append(f"line {line_no}: malformed sample line {line!r}")
            continue
        if " " in rest:
            errors.append(
                f"line {line_no}: unexpected trailing fields (timestamps are "
                f"not emitted by this gateway): {line!r}"
            )
            rest = rest.split()[0]
        value = _parse_value(rest, line_no, errors)
        base = family_for(name)
        enter(base, line_no)
        if base not in families:
            errors.append(
                f"line {line_no}: sample {name!r} has no preceding HELP/TYPE "
                "header"
            )
            families[base] = Family(base)
        families[base].samples.append(Sample(name, labels, value, line_no))

    _validate_families(families, errors)
    if errors:
        raise ExpositionError(errors)
    return families


def _validate_families(families: dict[str, Family], errors: list[str]) -> None:
    for family in families.values():
        if not family.type:
            errors.append(f"family {family.name}: missing TYPE header")
        if not family.help:
            errors.append(f"family {family.name}: missing HELP header")
        seen: set[tuple] = set()
        for sample in family.samples:
            key = (sample.name, tuple(sorted(sample.labels.items())))
            if key in seen:
                errors.append(
                    f"line {sample.line_no}: duplicate sample {sample.name} "
                    f"{sample.labels!r}"
                )
            seen.add(key)
        if family.type == "counter":
            for sample in family.samples:
                if math.isnan(sample.value) or sample.value < 0:
                    errors.append(
                        f"family {family.name}: counter value {sample.value} "
                        "is negative or NaN"
                    )
        if family.type == "histogram":
            _validate_histogram(family, errors)


def _series_key(labels: dict, drop: tuple = ("le",)) -> tuple:
    return tuple(sorted((k, v) for k, v in labels.items() if k not in drop))


def _validate_histogram(family: Family, errors: list[str]) -> None:
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    sums: dict[tuple, float] = {}
    counts: dict[tuple, float] = {}
    for sample in family.samples:
        series = _series_key(sample.labels)
        if sample.name == f"{family.name}_bucket":
            le_text = sample.labels.get("le")
            if le_text is None:
                errors.append(
                    f"family {family.name}: _bucket sample without an 'le' label"
                )
                continue
            le = math.inf if le_text == "+Inf" else float(le_text)
            buckets.setdefault(series, []).append((le, sample.value))
        elif sample.name == f"{family.name}_sum":
            sums[series] = sample.value
        elif sample.name == f"{family.name}_count":
            counts[series] = sample.value
        else:
            errors.append(
                f"family {family.name}: unexpected histogram sample "
                f"{sample.name!r}"
            )
    for series in buckets.keys() | sums.keys() | counts.keys():
        label_text = dict(series)
        series_buckets = sorted(buckets.get(series, []))
        if not series_buckets or series_buckets[-1][0] != math.inf:
            errors.append(
                f"family {family.name} {label_text}: missing '+Inf' bucket"
            )
            continue
        last = -math.inf
        for le, cumulative in series_buckets:
            if cumulative < last:
                errors.append(
                    f"family {family.name} {label_text}: bucket le={le} count "
                    f"{cumulative} below previous bucket's {last} "
                    "(buckets must be cumulative and monotonic)"
                )
            last = cumulative
        if series not in counts:
            errors.append(f"family {family.name} {label_text}: missing _count")
        elif counts[series] != series_buckets[-1][1]:
            errors.append(
                f"family {family.name} {label_text}: _count {counts[series]} "
                f"!= +Inf bucket {series_buckets[-1][1]}"
            )
        if series not in sums:
            errors.append(f"family {family.name} {label_text}: missing _sum")
        elif math.isnan(sums[series]):
            errors.append(f"family {family.name} {label_text}: _sum is NaN")


__all__ = ["ExpositionError", "Family", "Sample", "parse_exposition"]

"""``metric-name-drift``: one catalogue of ``tardis_*`` metric names.

The observability registry creates metrics on first use, so a typo in a
counter name silently splits a metric in two — the producer increments
``tardis_txn_comit_total`` while dashboards, docs, and tests read
``tardis_txn_commit_total`` forever showing zero. This rule pins every
name to the catalogue declared in :mod:`repro.obs.metrics`
(``METRIC_NAMES`` for registry metrics, ``SERIES_NAMES`` for windowed
series, whose instances carry an ``@<site>`` suffix) and checks three
directions:

1. **Producers**: every ``tardis_*`` name passed to a metrics/series API
   call in ``src/repro`` must be in the catalogue (exact, or a series
   base before ``@``).
2. **Consumers**: every ``tardis_*`` token referenced in
   ``tools/cli.py``, ``docs/*.md``, or ``tests/`` must resolve against
   the catalogue — exact, a series base, or an underscore-boundary
   prefix of catalogue names (consumers legitimately build
   ``"%s_hit_total" % prefix`` or filter with ``startswith``).
3. **Liveness**: every catalogue name must actually be produced by some
   API call in ``src/repro`` — a catalogue entry nothing emits is drift
   in the other direction.

The catalogue is parsed statically from the AST (no import), so the rule
works on a checkout without executing library code.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.engine import Finding, Project, Rule, SourceModule

#: call names whose string arguments register/record a metric.
METRIC_APIS = frozenset(
    {
        "counter",
        "gauge",
        "histogram",
        "inc",
        "observe",
        "set_gauge",
        "counter_value",
        "_feed",
    }
)

_TOKEN_RE = re.compile(r"tardis_[a-z0-9_]*[a-z0-9]")

#: module-path-ish tokens the scanner must never treat as metric names.
_NON_METRIC_TOKENS = frozenset({"tardis_impls"})


def _tokens_of(text: str) -> List[str]:
    return [t for t in _TOKEN_RE.findall(text) if t not in _NON_METRIC_TOKENS]


def _base_of(token: str) -> str:
    """Strip an ``@<site>`` instance suffix from a series name."""
    return token.split("@", 1)[0]


class _Catalog:
    def __init__(self) -> None:
        self.metrics: Dict[str, int] = {}  # name -> declaration line
        self.series: Dict[str, int] = {}
        self.file = ""
        self.found = False

    @property
    def names(self) -> Set[str]:
        return set(self.metrics) | set(self.series)

    def resolves(self, token: str) -> bool:
        """True when ``token`` is a valid reference to catalogue names."""
        token = _base_of(token)
        if token in self.metrics or token in self.series:
            return True
        # Underscore-boundary prefix of at least one catalogue name
        # ("tardis_vis_cache" + "_hit_total", "tardis_net_"...).
        for name in self.names:
            if name.startswith(token) and (
                token.endswith("_") or name[len(token) : len(token) + 1] == "_"
            ):
                return True
        return False


def _parse_catalog(module: SourceModule) -> _Catalog:
    catalog = _Catalog()
    catalog.file = module.relpath
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id not in ("METRIC_NAMES", "SERIES_NAMES"):
                continue
            if not isinstance(node.value, ast.Dict):
                continue
            dest = (
                catalog.metrics if target.id == "METRIC_NAMES" else catalog.series
            )
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    dest[key.value] = key.lineno
            catalog.found = True
    return catalog


def _producer_calls(
    module: SourceModule,
) -> Iterable[Tuple[str, int]]:
    """(token, line) for every metric name passed to a metrics API call."""
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in METRIC_APIS
            and node.args
        ):
            continue
        # The name is the first positional argument; it may be a plain
        # string or a format expression ("tardis_branch_count@%s" % site).
        for sub in ast.walk(node.args[0]):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                for token in _tokens_of(sub.value):
                    yield token, sub.lineno


def _literal_tokens(module: SourceModule) -> Iterable[Tuple[str, int]]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for token in _tokens_of(node.value):
                yield token, node.lineno


class MetricNameDriftRule(Rule):
    id = "metric-name-drift"
    description = (
        "tardis_* names used by producers/consumers must match the "
        "METRIC_NAMES/SERIES_NAMES catalogue in obs/metrics.py, and vice versa"
    )

    #: source module (relpath suffix) holding the catalogue.
    CATALOG_MODULE = "obs/metrics.py"
    #: source modules treated as consumers (scanned for all literals).
    CONSUMER_MODULES = ("tools/cli.py",)

    def check_project(self, project: Project) -> List[Finding]:
        catalog_module = project.module(self.CATALOG_MODULE)
        if catalog_module is None:
            return []  # library layout not present (fixture projects)
        catalog = _parse_catalog(catalog_module)
        if not catalog.found:
            return [
                Finding(
                    file=catalog_module.relpath,
                    line=1,
                    rule=self.id,
                    severity="error",
                    message="METRIC_NAMES/SERIES_NAMES catalogue not found",
                    hint="declare METRIC_NAMES and SERIES_NAMES dict literals",
                )
            ]

        findings: List[Finding] = []
        produced: Set[str] = set()

        # 1. producers across the library source.
        for module in project.modules:
            for token, line in _producer_calls(module):
                produced.add(_base_of(token))
                if not catalog.resolves(token):
                    findings.append(
                        Finding(
                            file=module.relpath,
                            line=line,
                            rule=self.id,
                            severity="error",
                            message=(
                                "metric %r is recorded here but not in the "
                                "catalogue" % token
                            ),
                            hint="add it to METRIC_NAMES/SERIES_NAMES in "
                            "obs/metrics.py (or fix the typo)",
                        )
                    )

        # 2. consumers: the CLI, the docs, and the test suite.
        consumer_modules = [
            m
            for suffix in self.CONSUMER_MODULES
            for m in [project.module(suffix)]
            if m is not None
        ]
        consumer_modules.extend(project.test_modules)
        seen_consumer: Set[Tuple[str, str, int]] = set()
        for module in consumer_modules:
            for token, line in _literal_tokens(module):
                key = (module.relpath, token, line)
                if key in seen_consumer:
                    continue
                seen_consumer.add(key)
                if not catalog.resolves(token):
                    findings.append(
                        Finding(
                            file=module.relpath,
                            line=line,
                            rule=self.id,
                            severity="error",
                            message=(
                                "metric %r is referenced here but not in the "
                                "catalogue" % token
                            ),
                            hint="fix the name or add it to the catalogue in "
                            "obs/metrics.py",
                        )
                    )
        for doc in project.docs:
            for lineno, line_text in enumerate(doc.text.splitlines(), start=1):
                for token in _tokens_of(line_text):
                    if not catalog.resolves(token):
                        findings.append(
                            Finding(
                                file=doc.relpath,
                                line=lineno,
                                rule=self.id,
                                severity="error",
                                message=(
                                    "doc references metric %r which is not in "
                                    "the catalogue" % token
                                ),
                                hint="fix the doc or add the name to "
                                "obs/metrics.py",
                            )
                        )

        # 3. liveness: every catalogue entry must have a producer.
        for name, line in sorted(catalog.metrics.items()):
            if _base_of(name) not in produced:
                findings.append(
                    Finding(
                        file=catalog.file,
                        line=line,
                        rule=self.id,
                        severity="error",
                        message=(
                            "catalogue metric %r is never recorded by any "
                            "metrics API call in src/repro" % name
                        ),
                        hint="remove the stale entry or instrument the "
                        "producer",
                    )
                )
        for name, line in sorted(catalog.series.items()):
            if name not in produced:
                findings.append(
                    Finding(
                        file=catalog.file,
                        line=line,
                        rule=self.id,
                        severity="error",
                        message=(
                            "catalogue series %r is never fed by any series "
                            "API call in src/repro" % name
                        ),
                        hint="remove the stale entry or feed the series",
                    )
                )
        return findings

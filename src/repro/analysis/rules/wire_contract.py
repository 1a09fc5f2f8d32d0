"""``wire-contract``: the protocol catalogue must agree across layers.

The op and error-code catalogues in ``server/protocol.py`` are the
source of truth. Two of their users are tied to them by the code itself
— the handler table is checked against ``OPS`` when
``server/handlers.py`` is imported, and ``ClientChannel.request``
refuses an op outside ``OPS``, for both clients — so this rule checks
only the two artefacts nothing else ties down:

* every error code the server emits (``RequestError("CODE")`` /
  ``error_response(_, "CODE")`` in ``server/server.py`` and
  ``server/handlers.py``, and the codes of the exception table
  ``ERROR_TABLE``) must be catalogued, and every catalogued code must
  appear as a literal at one of those sites (a code nothing emits is
  dead contract);
* the §12 markdown tables — any table whose header's first cell is
  ``op`` or ``code`` — must list exactly the catalogued ops and codes
  (first cell per row, backticked ALL_CAPS token).

When the repo layout is absent (fixture projects in tests) the rule
stays silent; when only the doc is absent, only the doc checks are
skipped. Catalogue-side findings anchor at the catalogue entry's line,
doc-side findings at the offending table row.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Project, Rule, SourceModule, TextFile

#: a backticked ALL_CAPS token in a table row's first cell.
_ROW_TOKEN_RE = re.compile(r"^\s*\|\s*`([A-Z][A-Z0-9_]*)`\s*\|")


class WireContractRule(Rule):
    id = "wire-contract"
    description = (
        "error codes the server emits, and the docs §12 op/code tables, "
        "must agree with the protocol catalogues"
    )

    PROTOCOL_MODULE = "server/protocol.py"
    SERVER_MODULE = "server/server.py"
    HANDLERS_MODULE = "server/handlers.py"
    DOC_FILE = "docs/internals.md"

    def check_project(self, project: Project) -> List[Finding]:
        protocol = project.module(self.PROTOCOL_MODULE)
        server = project.module(self.SERVER_MODULE)
        if protocol is None or server is None:
            return []  # fixture project without the networked layout
        ops = self._frozenset_literal(protocol, "OPS")
        codes = self._dict_keys(protocol, "ERROR_CODES")
        if ops is None or codes is None:
            return []

        findings: List[Finding] = []
        handlers = project.module(self.HANDLERS_MODULE)
        emitters = [server] if handlers is None else [server, handlers]
        self._check_server_codes(protocol, emitters, codes, findings)
        doc = project.doc(self.DOC_FILE)
        if doc is not None:
            self._check_doc_table(protocol, doc, "op", ops, "op", findings)
            self._check_doc_table(
                protocol, doc, "code", codes, "error code", findings
            )
        return findings

    # -- catalogue extraction ----------------------------------------------

    def _assigned_value(
        self, module: SourceModule, name: str
    ) -> Optional[ast.expr]:
        for stmt in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return value
        return None

    def _frozenset_literal(
        self, module: SourceModule, name: str
    ) -> Optional[Dict[str, int]]:
        """``NAME = frozenset({...})`` -> {member: lineno}."""
        value = self._assigned_value(module, name)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "frozenset"
            and value.args
        ):
            value = value.args[0]
        if not isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            return None
        out: Dict[str, int] = {}
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out[elt.value] = elt.lineno
        return out

    def _dict_keys(
        self, module: SourceModule, name: str
    ) -> Optional[Dict[str, int]]:
        value = self._assigned_value(module, name)
        if not isinstance(value, ast.Dict):
            return None
        out: Dict[str, int] = {}
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                out[key.value] = key.lineno
        return out

    # -- error codes ---------------------------------------------------------

    def _check_server_codes(
        self,
        protocol: SourceModule,
        emitters: List[SourceModule],
        codes: Dict[str, int],
        findings: List[Finding],
    ) -> None:
        #: code -> (file, line) of its first emission site.
        emitted: Dict[str, Tuple[str, int]] = {}
        literals: Set[str] = set()
        # The exception table answers an exception with its code: every
        # string in it is an emission site.
        table = self._assigned_value(protocol, "ERROR_TABLE")
        for node in ast.walk(table) if table is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                emitted.setdefault(node.value, (protocol.relpath, node.lineno))
        for module in emitters:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
                if not isinstance(node, ast.Call):
                    continue
                name = ""
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                arg: Optional[ast.expr] = None
                if name == "RequestError" and node.args:
                    arg = node.args[0]
                elif name == "error_response" and len(node.args) >= 2:
                    arg = node.args[1]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    emitted.setdefault(arg.value, (module.relpath, arg.lineno))
        where = " or ".join(module.relpath for module in emitters)
        for code in sorted(set(emitted) - set(codes)):
            findings.append(
                Finding(
                    file=emitted[code][0],
                    line=emitted[code][1],
                    rule=self.id,
                    severity="error",
                    message=(
                        "server emits error code %s which is not in the "
                        "ERROR_CODES catalogue" % code
                    ),
                    hint="add %s to ERROR_CODES in %s (error_response "
                    "rejects uncatalogued codes at runtime)"
                    % (code, protocol.relpath),
                )
            )
        # Liveness: a catalogued code must at least appear as a literal
        # somewhere in the emitting modules (emission sites aren't always
        # direct calls — some codes flow through tables/variables).
        for code in sorted(set(codes) - literals - set(emitted)):
            findings.append(
                Finding(
                    file=protocol.relpath,
                    line=codes[code],
                    rule=self.id,
                    severity="error",
                    message=(
                        "error code %s is catalogued in ERROR_CODES but "
                        "never appears in %s — dead contract" % (code, where)
                    ),
                    hint="emit it from the server or retire the code",
                )
            )

    # -- docs tables ---------------------------------------------------------

    def _doc_table(
        self, doc: TextFile, header: str
    ) -> Optional[Dict[str, int]]:
        """First-cell tokens of the markdown table whose header's first
        cell (lowercased, backticks stripped) equals ``header``.

        Returns token -> 1-based line number, or None when no such
        table exists in the doc.
        """
        lines = doc.text.splitlines()
        found = None
        i = 0
        while i < len(lines):
            line = lines[i]
            if line.lstrip().startswith("|"):
                cells = [c.strip().strip("`").lower() for c in line.split("|")]
                cells = [c for c in cells if c]
                if cells and cells[0] == header:
                    table: Dict[str, int] = {}
                    j = i + 1
                    while j < len(lines) and lines[j].lstrip().startswith("|"):
                        match = _ROW_TOKEN_RE.match(lines[j])
                        if match:
                            table.setdefault(match.group(1), j + 1)
                        j += 1
                    if found is None:
                        found = {}
                    found.update(table)
                    i = j
                    continue
            i += 1
        return found

    def _check_doc_table(
        self,
        protocol: SourceModule,
        doc: TextFile,
        header: str,
        catalogue: Dict[str, int],
        kind: str,
        findings: List[Finding],
    ) -> None:
        table = self._doc_table(doc, header)
        if table is None:
            findings.append(
                Finding(
                    file=doc.relpath,
                    line=1,
                    rule=self.id,
                    severity="error",
                    message=(
                        "no markdown table with header cell %r found — the "
                        "%s catalogue is undocumented" % (header, kind)
                    ),
                    hint="add the §12 table (first header cell %r, one "
                    "backticked token per row)" % header,
                )
            )
            return
        for token in sorted(set(catalogue) - set(table)):
            findings.append(
                Finding(
                    file=protocol.relpath,
                    line=catalogue[token],
                    rule=self.id,
                    severity="error",
                    message=(
                        "%s %s is catalogued but missing from the %s table "
                        "in %s" % (kind, token, header, doc.relpath)
                    ),
                    hint="add a row for %s to the docs table" % token,
                )
            )
        for token in sorted(set(table) - set(catalogue)):
            findings.append(
                Finding(
                    file=doc.relpath,
                    line=table[token],
                    rule=self.id,
                    severity="error",
                    message=(
                        "docs table lists %s %s which is not in the "
                        "catalogue in %s" % (kind, token, protocol.relpath)
                    ),
                    hint="remove the stale row or add %s to the catalogue"
                    % token,
                )
            )

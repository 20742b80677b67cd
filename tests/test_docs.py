"""Executable documentation: code blocks run, links resolve.

The observability guide and metrics reference are operator-facing and
full of runnable examples; docs that drift from the code are worse
than no docs.  This module:

* executes every fenced ``python`` block in the two new documents (the
  blocks carry their own asserts, so a behaviour change that breaks an
  example fails here, not in a reader's terminal);
* checks every intra-repo markdown link — relative links in any
  tracked ``.md`` file must point at a file that exists;
* checks the **Prometheus** columns of ``docs/metrics_reference.md``
  against the metric families the renderer emits for the pinned
  expositions, in both directions;
* parses every ``repro`` / ``python -m repro`` command line quoted in
  a shell block of ``docs/*.md`` or ``README.md`` with the real
  argument parser, so a renamed or dropped flag breaks here.

CI runs this as its own ``docs`` job.
"""

import pathlib
import re
import shlex

import pytest

from .prometheus_runs import exposition

REPO = pathlib.Path(__file__).parent.parent
DOCS = REPO / "docs"

EXECUTABLE_DOCS = [
    DOCS / "observability.md",
    DOCS / "metrics_reference.md",
    DOCS / "feature_store.md",
    DOCS / "parallelism.md",
    DOCS / "kernels.md",
    DOCS / "cluster.md",
    DOCS / "campaign.md",
    DOCS / "memory_planner.md",
    DOCS / "bucketing.md",
]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_SHELL_FENCE = re.compile(r"^```(?:bash|sh|shell|console)\n(.*?)^```",
                          re.DOTALL | re.MULTILINE)
# [text](target) — skips images (![..]) via the lookbehind.
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")


def _python_blocks(path):
    return _FENCE.findall(path.read_text())


def _markdown_files():
    skip_dirs = {".git", ".pytest_cache", "__pycache__", "node_modules"}
    return sorted(
        p for p in REPO.rglob("*.md")
        if not (set(p.relative_to(REPO).parts[:-1]) & skip_dirs)
    )


class TestDocExamples:
    @pytest.mark.parametrize(
        "doc", EXECUTABLE_DOCS, ids=lambda p: p.name
    )
    def test_doc_has_executable_examples(self, doc):
        assert doc.exists(), doc
        assert _python_blocks(doc), f"{doc.name} has no ```python blocks"

    @pytest.mark.parametrize(
        "doc,index,block",
        [
            (doc.name, i, block)
            for doc in EXECUTABLE_DOCS
            for i, block in enumerate(_python_blocks(doc))
        ],
        ids=lambda v: str(v) if not isinstance(v, str) or "\n" not in v
        else "block",
    )
    def test_python_block_executes(self, doc, index, block):
        namespace = {"__name__": f"doctest_{doc}_{index}"}
        exec(compile(block, f"{doc}[python #{index}]", "exec"), namespace)


def _cli_command_lines():
    """``(doc name, argv)`` for each CLI invocation in a shell block."""
    lines = []
    for doc in [REPO / "README.md", *sorted(DOCS.glob("*.md"))]:
        for block in _SHELL_FENCE.findall(doc.read_text()):
            for line in block.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                for prefix in (["repro"], ["python", "-m", "repro"]):
                    if words[:len(prefix)] == prefix:
                        lines.append((doc.name, words[len(prefix):]))
    return lines


class TestCliExamples:
    @pytest.mark.parametrize(
        "doc,argv", _cli_command_lines(),
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_quoted_command_parses(self, doc, argv):
        from repro.cli import build_parser

        build_parser().parse_args(argv)


class TestIntraRepoLinks:
    def test_relative_markdown_links_resolve(self):
        broken = []
        for md in _markdown_files():
            for target in _LINK.findall(md.read_text()):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:           # pure anchor (#section)
                    continue
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    broken.append(f"{md.relative_to(REPO)} -> {target}")
        assert not broken, "broken intra-repo links:\n" + "\n".join(broken)

    def test_new_docs_are_linked_from_readme(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/observability.md" in readme
        assert "docs/metrics_reference.md" in readme
        assert "docs/parallelism.md" in readme
        assert "docs/kernels.md" in readme
        assert "docs/feature_store.md" in readme
        assert "docs/cluster.md" in readme
        assert "docs/campaign.md" in readme
        assert "docs/memory_planner.md" in readme
        assert "docs/bucketing.md" in readme
        assert "docs/README.md" in readme

    def test_docs_index_covers_every_guide(self):
        """docs/README.md is the index: every guide appears in it."""
        index = (DOCS / "README.md").read_text()
        for guide in sorted(DOCS.glob("*.md")):
            if guide.name == "README.md":
                continue
            assert f"({guide.name})" in index, (
                f"docs/README.md does not index {guide.name}"
            )


#: report -> (metric prefix, pinned expositions, doc section headings
#: that open and close its part of metrics_reference.md).
_REPORTS = {
    "serving": ("afsys_serving",
                ("observe_cli.prom", "serving_all_sections.prom"),
                None, "## Cluster summary"),
    "cluster": ("afsys_cluster", ("cluster.prom",),
                "## Cluster summary", "## Campaign summary"),
    "campaign": ("afsys_campaign", ("campaign.prom",),
                 "## Campaign summary", "## Memory-plan summary"),
}


def documented_metrics(text):
    """Metric names in the **Prometheus** column of every table in
    ``text``, labels stripped; cells naming a label are skipped."""
    names = set()
    column = None
    for line in text.splitlines():
        if not line.startswith("|"):
            column = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if column is None:
            column = cells.index("Prometheus") if "Prometheus" in cells else -1
        elif column >= 0 and not set(cells[column]) <= set("-"):
            if not cells[column].startswith("label"):
                names.update(
                    name.split("{", 1)[0]
                    for name in re.findall(r"`([^`]+)`", cells[column])
                )
    return names


def emitted_metrics(prefix, pinned):
    """Family names (prefix stripped) the renderer wrote for ``pinned``."""
    return {
        line.split()[2][len(prefix) + 1:]
        for name in pinned
        for line in exposition(name).splitlines()
        if line.startswith("# TYPE ")
    }


def _section(text, start, end):
    if start is not None:
        text = text[text.index(start):]
    return text[:text.index(end)]


class TestMetricsReference:
    @pytest.mark.parametrize("report", sorted(_REPORTS))
    def test_documented_metrics_are_exactly_the_emitted_ones(self, report):
        prefix, pinned, start, end = _REPORTS[report]
        doc = _section((DOCS / "metrics_reference.md").read_text(),
                       start, end)
        documented = documented_metrics(doc)
        emitted = emitted_metrics(prefix, pinned)
        assert not documented - emitted, (
            f"documented {report} metrics the renderer does not emit: "
            f"{sorted(documented - emitted)}"
        )
        assert not emitted - documented, (
            f"emitted {report} metrics missing from the doc: "
            f"{sorted(emitted - documented)}"
        )

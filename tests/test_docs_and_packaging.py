"""Repository hygiene: docs exist, public modules are documented,
examples are importable, intra-repo doc links resolve, the package
exports what the README promises."""

import ast
import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

# Markdown inline links: [text](target), ignoring images and footnotes.
_MD_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")

# Fenced ```python blocks of a markdown document.
_PY_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def all_modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent)
        name = ".".join(rel.with_suffix("").parts)
        yield name, path


class TestDocumentation:
    def test_required_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/architecture.md", "docs/techniques.md",
                     "docs/calibration.md", "docs/observability.md",
                     "docs/tutorial.md", "docs/checkpointing.md",
                     "docs/delta.md", "docs/parallelism.md",
                     "docs/serving.md"):
            assert (REPO / name).is_file(), name

    def test_intra_repo_doc_links_resolve(self):
        """Every relative markdown link in README/docs points at a real
        file (external URLs and pure #anchors are skipped)."""
        sources = [REPO / "README.md", REPO / "DESIGN.md",
                   REPO / "EXPERIMENTS.md"]
        sources += sorted((REPO / "docs").glob("*.md"))
        broken = []
        for source in sources:
            for target in _MD_LINK.findall(source.read_text()):
                if target.startswith(("http://", "https://", "mailto:",
                                      "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (source.parent / path).resolve()
                if not resolved.exists():
                    broken.append(
                        f"{source.relative_to(REPO)} -> {target}")
        assert not broken, f"broken doc links: {broken}"

    def test_tutorial_code_runs(self, tmp_path, monkeypatch):
        """Every ``python`` block of docs/tutorial.md runs, in order, in
        one shared namespace (the tour is one REPL session)."""
        blocks = _PY_BLOCK.findall(
            (REPO / "docs" / "tutorial.md").read_text())
        assert len(blocks) >= 10
        monkeypatch.chdir(tmp_path)   # the tour writes run.json, ckpt/
        namespace = {"__name__": "tutorial"}
        for i, block in enumerate(blocks):
            exec(compile(block, f"docs/tutorial.md block {i}", "exec"),
                 namespace)

    def test_design_has_experiment_index(self):
        text = (REPO / "DESIGN.md").read_text()
        for marker in ("Table 1", "Figure 1a", "F1a", "C1", "E5"):
            assert marker in text, marker

    def test_every_module_has_docstring(self):
        missing = []
        for name, path in all_modules():
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None and \
                    path.name != "__main__.py":
                missing.append(name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for name, path in all_modules():
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                        and not node.name.startswith("_") \
                        and ast.get_docstring(node) is None:
                    undocumented.append(f"{name}.{node.name}")
        assert not undocumented, undocumented


class TestPackaging:
    def test_all_modules_import(self):
        for name, __ in all_modules():
            if name.endswith("__main__"):
                continue
            importlib.import_module(name)

    def test_package_exports(self):
        import repro
        for symbol in repro.__all__:
            assert hasattr(repro, symbol), symbol

    def test_version_is_set(self):
        import repro
        assert repro.__version__


class TestExamples:
    def test_examples_parse_and_have_main(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), path.name
            names = {node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
            assert "main" in names, path.name

"""Every lettered DESIGN.md section reference names a heading that exists.

The project's documents and code point at DESIGN.md sections as ``§5j``,
``DESIGN.md 5j`` or ``DESIGN §5i`` (and ranges such as ``§5a–5f``).  A
section that is folded or renamed away would leave such a pointer leading
nowhere, so this test resolves every one against DESIGN.md's ``## 5j.``
headings.  CHANGES.md is a history and stays as written; PAPER.md,
PAPERS.md and SNIPPETS.md quote outside material, whose section signs
name other documents.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the project's own documents and source trees
DOCUMENTS = ("DESIGN.md", "EXPERIMENTS.md", "README.md", "ROADMAP.md")
TREES = ("bench", "benchmarks", "docs", "examples", "src", "tests")
SUFFIXES = {".md", ".py", ".txt", ".toml", ".yml", ".yaml", ".cfg"}

#: a lettered section: after a section sign, or after ``DESIGN`` /
#: ``DESIGN.md`` (a section sign may follow), with any range ends after it
REFERENCE = re.compile(
    r"(?:§\s?|\bDESIGN(?:\.md)?,?\s+§?\s?)(\d+[a-z]+)"
    r"((?:\s?[–-]\s?\d+[a-z]+)*)")
RANGE_END = re.compile(r"\d+[a-z]+")
HEADING = re.compile(r"^#{2,}\s+(\d+[a-z]*)\.", re.MULTILINE)


def headings() -> set[str]:
    return set(HEADING.findall((ROOT / "DESIGN.md").read_text()))


def references(text: str) -> list[str]:
    """Every lettered section ``text`` refers to, range ends included."""
    found = []
    for match in REFERENCE.finditer(text):
        found.append(match.group(1))
        found.extend(RANGE_END.findall(match.group(2)))
    return found


def sources() -> list[Path]:
    paths = [ROOT / name for name in DOCUMENTS]
    for tree in TREES:
        paths.extend(path for path in sorted((ROOT / tree).rglob("*"))
                     if path.suffix in SUFFIXES and path.is_file()
                     and not any(part.startswith((".", "__"))
                                 for part in path.relative_to(ROOT).parts))
    return paths


def unresolved(paths: list[Path], known: set[str]) -> list[tuple[str, str]]:
    """(file name, section) for every reference no heading resolves."""
    return [(path.name, section) for path in paths
            for section in references(path.read_text(encoding="utf-8"))
            if section not in known]


def test_every_section_reference_names_a_heading():
    known = headings()
    assert {"5a", "5e", "5i", "5j"} <= known
    paths = sources()
    assert sum(len(references(path.read_text(encoding="utf-8")))
               for path in paths) >= 30
    assert unresolved(paths, known) == []


def test_a_reference_to_a_missing_section_is_reported(tmp_path):
    sign = "\N{SECTION SIGN}"
    note = tmp_path / "note.md"
    design = "DESIGN.md"
    note.write_text(f"See {sign}5j, DESIGN {sign}5i, {sign}5a\N{EN DASH}5zz "
                    f"and {design} 5qq.\n", encoding="utf-8")
    assert references(note.read_text(encoding="utf-8")) == [
        "5j", "5i", "5a", "5zz", "5qq"]
    assert unresolved([note], headings()) == [("note.md", "5zz"),
                                              ("note.md", "5qq")]

"""Census of the package's public API: every public top-level function or class
in src/depevap must be used by the package itself, by the benchmark harness
(perfbench/) or by the fixed oracle in tests/conftest.py.  API that only tests
reach belongs in a test-side module (tests/bridge_reference.py,
tests/hamiltonian_reference.py).  A second census finds every `math.fsum` in src.
A third stands in for a linter with stdlib `ast` alone: src reads every name it
imports and every private top-level name it defines, and holds no bare `assert`,
which `python -O` strips.  A fourth finds module-level run state: a top-level name
bound to an empty container, which builds up across calls."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names no caller in the census reads, each kept on purpose
KEEP = {
    "exact.save_state": "persistence API: writes the file load_state reads",
    "exact.load_state": "persistence API: the inverse of save_state",
    "exact.export_state_text": "persistence API: a built state as reviewable text",
    "seqgen.local_channel": "criterion 1 reads the channel table through it",
}


# src names that no src code reads, each kept on purpose
UNREAD = {
    "__init__.ModelParams": "package export",
    "__init__.build_state": "package export",
    "exact.canonical_key": "noqa re-export: perfbench/traced.py wraps it on exact",
    "exact.encode_trajectory": "noqa re-export: perfbench/traced.py wraps it on exact",
    "entropy._site_value": "the fixed oracle in tests/conftest.py reads it",
}


# src top-level names bound to an empty container, each emptied by its owner on purpose
RUN_STATE = {
    "exact._KEPT": "the one kept layout; cli.run_experiment empties it after every run",
}


# the top-level functions of src that may call math.fsum: the one exact array sum, and
# the slice-wise sums of term_residuals (many short slices of one list, one fsum each)
FSUM_CALLERS = {"exact._fsum", "hamiltonian.term_residuals"}


def _code_words(source):
    """(line, word) of a file's names and string literals, comments and docstrings left out.

    String literals count: perfbench/traced.py wraps functions by their names as strings.
    """
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node) is not None}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME or (token.type == tokenize.STRING
                                           and token.start not in docstrings):
            yield from ((token.start[0], word) for word in re.findall(r"\w+", token.string))


def test_public_api_has_a_caller_outside_the_tests():
    sources = sorted((ROOT / "src" / "depevap").glob("*.py"))
    callers = sources + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "conftest.py"]
    words = Counter(word for path in callers for _, word in _code_words(path.read_text()))
    public = {f"{path.stem}.{node.name}"
              for path in sources for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    unused = {name for name in public if words[name.partition(".")[2]] == 1}  # its def alone
    assert unused == set(KEEP), (
        "public API without a caller outside the tests (move it to a test-side module, "
        "or document why it stays in KEEP); KEEP entries that gained a caller go")


def test_math_fsum_only_in_the_exact_sum():
    """Every exact total over an array is `exact._fsum`, so its body is the one place that
    decides how the package sums exactly; `term_residuals` is the one exception."""
    callers = set()
    for path in sorted((ROOT / "src" / "depevap").glob("*.py")):
        source = path.read_text()
        spans = [(node.lineno, node.end_lineno, node.name) for node in ast.parse(source).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        callers |= {f"{path.stem}." + next((name for lo, hi, name in spans if lo <= line <= hi),
                                           "<module>")
                    for line, word in _code_words(source) if word == "fsum"}
    assert callers == FSUM_CALLERS, "sum arrays exactly with exact._fsum, not math.fsum"


def test_src_reads_its_imports_and_private_names():
    """Every name a src module imports is read in that module, and every private top-level
    name is read in its module, imported by another or read as an attribute of its module;
    src checks raise, since a bare `assert` vanishes under `python -O`."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "depevap").glob("*.py"))}
    read = {stem: {node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            for stem, tree in trees.items()}
    reached, unread, asserts = set(), set(), []  # reached: "module.name" read from outside
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reached.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.Assert):
                asserts.append(f"{stem}:{node.lineno}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom):
                    if node.module == "__future__":
                        continue
                    reached |= {f"{node.module}.{alias.name}" for alias in node.names}
                unread |= {f"{stem}.{name}" for name in
                           ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
                           if name not in read[stem]}
        for node in tree.body:
            targets = ([node] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else
                       node.targets if isinstance(node, ast.Assign) else [])
            names = [getattr(target, "name", getattr(target, "id", "")) for target in targets]
            unread |= {f"{stem}.{name}" for name in names
                       if name.startswith("_") and not name.endswith("__")
                       and name not in read[stem] and f"{stem}.{name}" not in reached}
    assert asserts == [], "raise AssertionError(...) instead of a bare assert"
    assert unread == set(UNREAD), (
        "src imports or defines a name that nothing in src reads (remove it, or document "
        "why it stays in UNREAD); UNREAD entries that gained a reader go")


def _empty_container(node):
    """Whether an expression is `[]`, `{}`, `list()`, `dict()` or `set()`."""
    if isinstance(node, (ast.List, ast.Dict)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set") and not node.args and not node.keywords)


def test_no_module_level_run_state():
    """No src module binds a top-level name to an empty list, dict or set: such a name is
    state that builds up across calls, so what a call reports belongs in what it returns."""
    empty = set()
    for path in sorted((ROOT / "src" / "depevap").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _empty_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                empty |= {f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)}
    assert empty == set(RUN_STATE), (
        "src keeps run state in a module-level container (hand it back from the call that "
        "fills it, or document why it stays in RUN_STATE); RUN_STATE entries that went go")

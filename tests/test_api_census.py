"""Census of the package's public API: every public top-level function or class
in src/depevap must be used by the package itself, by the benchmark harness
(perfbench/) or by the fixed oracle in tests/conftest.py.  API that only tests
reach belongs in a test-side module (tests/bridge_reference.py,
tests/hamiltonian_reference.py).  A second census finds every `math.fsum` in src."""

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

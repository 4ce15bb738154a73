"""Count the code lines of src/snipagg/*.py.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the string that opens a module, class or
function). Blank lines, comment lines and docstring lines are left out.

    python tools/code_lines.py           # the total
    python tools/code_lines.py -v        # each file's count, then the total
"""

import ast
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "snipagg"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that a docstring of the module, a class or a
    function spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    counts = {path.name: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    if "-v" in sys.argv[1:]:
        for name, n in counts.items():
            print(f"{n:6d} {name}")
    print(sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

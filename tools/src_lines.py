"""Count the lines of the package source, split into docstring, comment and
other lines (code and blank lines): one line per module, then the total.

A docstring line is any line of a module, class or function docstring; a
comment line is one that holds nothing but a comment. Run from the
repository root:

    python tools/src_lines.py [SRC_DIR]
"""
import ast
import pathlib
import sys
import tokenize


def count(path):
    """(total, docstring, comment) line counts of one Python file."""
    text = path.read_text()
    tree = ast.parse(text)
    doc = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    comment = set()
    with path.open() as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if (tok.type == tokenize.COMMENT
                    and not tok.line[:tok.start[1]].strip()):
                comment.add(tok.start[0])
    return len(text.splitlines()), len(doc), len(comment - doc)


def report(name, total, docs, comments):
    print(f"{name}: {total} lines = {docs} docstring + {comments} comment "
          f"+ {total - docs - comments} other")


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    total = docs = comments = 0
    for path in sorted(root.rglob("*.py")):
        t, d, c = count(path)
        report(path, t, d, c)
        total, docs, comments = total + t, docs + d, comments + c
    report(root, total, docs, comments)


if __name__ == "__main__":
    main(sys.argv)

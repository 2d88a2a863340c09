#!/usr/bin/env python3
"""Fail on broken relative links in the repo's Markdown documentation.

Scans the given Markdown files (or the repo's documentation set when run
with no arguments) for inline links and image references, and checks that
every *relative* target resolves to an existing file or directory, relative
to the file containing the link.  External links (http/https/mailto) and
pure in-page anchors (#...) are ignored; a `path#fragment` target is checked
for the path part only.

Run with no arguments, it also checks every Markdown name cited in a
comment of the sources under src/, tests/, bench/, examples/ and tools/
(C++ `//` and `/* */` comments, `#` comments, Python docstrings): the name
must resolve against the repo root or docs/.

Registered as the ctest case `docs_links` and as the CI `docs` job, so a
renamed file breaks the build, not the reader.

  tools/check_links.py                      # default set, repo-root cwd
  tools/check_links.py README.md docs/*.md  # explicit files
"""

import glob
import io
import os
import re
import sys
import tokenize

# Inline Markdown links/images: [text](target) / ![alt](target).  Reference
# definitions: "[label]: target".
INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REF_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)

DEFAULT_DOCS = ["README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md",
                "docs/*.md"]

SOURCE_DIRS = ["src", "tests", "bench", "examples", "tools"]
CITE_ROOTS = [".", "docs"]
CPP_EXTS = (".cpp", ".hpp", ".h", ".cc")

# A Markdown file name inside a comment; never the tail of a longer path or
# URL, and never a glob such as docs/*.md.
MD_NAME = re.compile(r"(?<![\w./*:-])([\w./-]*\w\.md)\b")
# Comments and the literals that may hide comment markers.
CPP_TOKEN = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"'
                       r"|(?<!\w)'(?:\\.|[^'\\\n])*'", re.DOTALL)
HASH_TOKEN = re.compile(r'"(?:\\.|[^"\\\n])*"|#[^\n]*')


def strip_code(text):
    """Remove fenced and inline code spans (links there are examples)."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`\n]*`", "", text)


def is_external(target):
    return target.startswith(("http://", "https://", "mailto:", "ftp://"))


def check_file(path):
    """Return a list of 'file: broken target' strings."""
    with open(path, encoding="utf-8") as f:
        text = strip_code(f.read())
    errors = []
    targets = INLINE_LINK.findall(text) + REF_DEF.findall(text)
    base = os.path.dirname(path)
    for target in targets:
        if is_external(target) or target.startswith("#"):
            continue
        local = target.split("#", 1)[0]
        if not local:
            continue
        resolved = os.path.normpath(os.path.join(base, local))
        if not os.path.exists(resolved):
            errors.append("%s: broken link '%s' (resolved to %s)"
                          % (path, target, resolved))
    return errors


def token_comments(pattern, text):
    """(line, text) of every comment `pattern` matches; the string literals
    it also matches, so that markers inside them are not comments, are
    skipped."""
    for m in pattern.finditer(text):
        if m.group()[0] in "/#":
            yield text.count("\n", 0, m.start()) + 1, m.group()


def python_comments(text):
    """(line, text) of every comment and docstring in Python source."""
    prev = tokenize.NEWLINE
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string
        elif tok.type == tokenize.STRING and prev in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            yield tok.start[0], tok.string
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            prev = tok.type


def comment_reader(path):
    """The comment extractor for `path`'s language, or None."""
    name = os.path.basename(path)
    if name.endswith(CPP_EXTS):
        return lambda text: token_comments(CPP_TOKEN, text)
    if name == "CMakeLists.txt" or name.endswith(".cmake"):
        return lambda text: token_comments(HASH_TOKEN, text)
    if name.endswith(".py"):
        return python_comments
    return None


def check_citations(path):
    """Return a list of 'file:line: unresolved name' strings."""
    reader = comment_reader(path)
    if reader is None:
        return []
    with open(path, encoding="utf-8") as f:
        text = f.read()
    errors = []
    for line, comment in reader(text):
        for m in MD_NAME.finditer(comment):
            name = m.group(1)
            if any(os.path.isfile(os.path.join(root, name))
                   for root in CITE_ROOTS):
                continue
            errors.append("%s:%d: cites '%s', which is neither at the repo "
                          "root nor in docs/"
                          % (path, line + comment.count("\n", 0, m.start()),
                             name))
    return errors


def source_files():
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                yield os.path.join(dirpath, name)


def main():
    patterns = sys.argv[1:] or DEFAULT_DOCS
    files = []
    for pattern in patterns:
        matches = sorted(glob.glob(pattern))
        if not matches and "*" not in pattern:
            print("check_links: no such file '%s'" % pattern,
                  file=sys.stderr)
            return 2
        files.extend(matches)
    if not files:
        print("check_links: nothing to scan", file=sys.stderr)
        return 2

    errors = []
    for path in files:
        errors.extend(check_file(path))
    sources = [] if sys.argv[1:] else list(source_files())
    for path in sources:
        errors.extend(check_citations(path))
    for e in errors:
        print(e, file=sys.stderr)
    print("check_links: %d file(s) and %d source(s) scanned, %d broken "
          "link(s)" % (len(files), len(sources), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

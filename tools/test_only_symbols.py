#!/usr/bin/env python3
"""Lists library functions whose only outside users are tests.

Prints every public function or method declared in src/**/*.hpp whose
only users outside its own .hpp/.cpp pair are files under tests/. Such a
symbol is test-only code in the library: it either moves into tests/ or
is deleted.

Users are found by name (a whole-word match in src/, tools/, bench/,
tests/ and examples/), not by resolving C++ overloads or scopes. So the
report errs towards silence: a name that some unrelated non-test code
also spells hides a candidate. Everything it does print is test-only by
that name.

Informational: it always exits 0.

Usage: python3 tools/test_only_symbols.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
USER_DIRS = ("src", "tools", "bench", "tests", "examples")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h"}

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\S")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
# Comments, then string and character literals (kept apart so an
# apostrophe inside a comment cannot open a literal).
STRIP_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S)
# Words that are followed by "(" without naming a declared function.
NOT_A_NAME = {
    "alignas", "alignof", "decltype", "defined", "if", "noexcept", "operator",
    "requires", "return", "sizeof", "static_assert", "switch", "while", "for",
}


def strip_code(text):
    text = STRIP_RE.sub(" ", text)
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#"))


def at_top_level(statement, keywords):
    """True if one of `keywords` appears outside template brackets."""
    angle = 0
    for tok in statement:
        if tok == "<":
            angle += 1
        elif tok == ">":
            angle = max(angle - 1, 0)
        elif angle == 0 and tok in keywords:
            return True
    return False


def public_functions(header):
    """Names of the public functions and methods a header declares.

    A small scope-tracking scan, not a C++ parser: namespace and class
    bodies are entered, every other brace (function bodies, initializers,
    enums) is skipped, and a name is taken from `name(` at parenthesis
    depth 0 of a declaration that has no `=` before it. Constructors,
    destructors, operators, macros and anything in a `detail` namespace
    or a non-public class section are left out.
    """
    # Scope frames: [kind, name, visible, access]; kind is "ns", "class"
    # or "skip".
    stack = [["ns", "", True, "public"]]
    statement = []
    paren = 0
    named = False
    names = set()

    def visible():
        frame = stack[-1]
        return frame[0] != "skip" and frame[2] and frame[3] == "public"

    def end_statement():
        nonlocal paren, named
        statement.clear()
        paren = 0
        named = False

    for tok in TOKEN_RE.findall(strip_code(header.read_text())):
        if stack[-1][0] == "skip":
            if tok == "{":
                stack.append(["skip", "", False, ""])
            elif tok == "}":
                stack.pop()
                end_statement()
            continue
        frame = stack[-1]
        if tok == "{":
            if statement[:1] == ["namespace"]:
                name = statement[1] if len(statement) > 1 else ""
                stack.append(["ns", name, visible() and name != "detail" and
                              name != "", "public"])
            elif (paren == 0 and not named and
                  at_top_level(statement, {"class", "struct", "union"}) and
                  not at_top_level(statement, {"enum"})):
                words = [t for t in statement if WORD_RE.fullmatch(t)]
                kinds = [i for i, t in enumerate(words)
                         if t in ("class", "struct", "union")]
                name = words[kinds[-1] + 1] if kinds[-1] + 1 < len(words) else ""
                access = "private" if words[kinds[-1]] == "class" else "public"
                stack.append(["class", name, visible(), access])
            else:
                stack.append(["skip", "", False, ""])
            end_statement()
        elif tok == "}":
            stack.pop()
            end_statement()
        elif tok == ";":
            end_statement()
        elif (frame[0] == "class" and tok == ":" and len(statement) == 1 and
              statement[0] in ("public", "private", "protected")):
            frame[3] = statement[0]
            end_statement()
        else:
            if tok == "(":
                if paren == 0 and not named and statement:
                    name = statement[-1]
                    before = statement[-2] if len(statement) > 1 else ""
                    named = True
                    if (visible() and WORD_RE.fullmatch(name) and
                            name not in NOT_A_NAME and not name.isupper() and
                            name != frame[1] and before not in ("~", "operator") and
                            "=" not in statement and
                            statement[0] not in ("using", "typedef", "friend")):
                        names.add(name)
                paren += 1
            elif tok == ")":
                paren = max(paren - 1, 0)
            statement.append(tok)
    return names


def main():
    files = sorted(
        path for top in USER_DIRS if (ROOT / top).is_dir()
        for path in (ROOT / top).rglob("*")
        if path.suffix in SOURCE_SUFFIXES and path.is_file())
    words_of = {path: set(WORD_RE.findall(strip_code(path.read_text())))
                for path in files}
    tests_dir = ROOT / "tests"

    found = []
    for header in sorted((ROOT / "src").rglob("*.hpp")):
        own = {header, header.with_suffix(".cpp")}
        for name in sorted(public_functions(header)):
            users = [p for p in files if p not in own and name in words_of[p]]
            if users and all(tests_dir in p.parents for p in users):
                found.append((header.relative_to(ROOT), name,
                              [p.relative_to(ROOT) for p in users]))

    print(f"Public src/ functions used outside their own files only by "
          f"tests/: {len(found)}")
    for header, name, users in found:
        print(f"  {header}: {name}  <- {', '.join(map(str, users))}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as error:  # informational: never fail the caller
        print(f"test_only_symbols: skipped ({error})", file=sys.stderr)
        sys.exit(0)

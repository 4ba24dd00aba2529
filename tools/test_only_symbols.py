#!/usr/bin/env python3
"""Lists library functions whose only outside users are tests.

Prints the C++ line count under src/, then every public function or
method declared in src/**/*.hpp whose only users outside its own
.hpp/.cpp pair are files under tests/. Such a symbol is test-only code
in the library: it is deleted, made internal to its .cpp, or kept on
tools/test_only_allowlist.txt with a one-line reason.

Users are found by name (a whole-word match in src/, tools/, bench/,
tests/ and examples/), not by resolving C++ overloads or scopes. So the
report errs towards silence: a name that some unrelated non-test code
also spells hides a candidate. Everything it does print is test-only by
that name.

With --check it exits 1 when a listed function is missing from the
allowlist, when an allowlist line names no listed function, or when a
line is malformed or carries no reason. Without it, it only reports.

Usage: python3 tools/test_only_symbols.py [--check]
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "test_only_allowlist.txt"
USER_DIRS = ("src", "tools", "bench", "tests", "examples")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h"}

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\S")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
# An allowlist line: "<header>: <name>  # <reason>".
ALLOW_RE = re.compile(r"(\S+): ([A-Za-z_]\w*)\s+#\s*(\S.*)")
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


def test_only_functions():
    """(header, name, users) for every public function only tests use."""
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
                found.append((str(header.relative_to(ROOT)), name,
                              [str(p.relative_to(ROOT)) for p in users]))
    return found


def src_line_count():
    return sum(path.read_text().count("\n")
               for path in (ROOT / "src").rglob("*")
               if path.suffix in (".cpp", ".hpp") and path.is_file())


def check_allowlist(found):
    """Problems with the allowlist against `found`; empty == clean."""
    problems = []
    allowed = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = ALLOW_RE.fullmatch(line.strip())
        if match is None:
            problems.append(f"{ALLOWLIST.name}:{number}: not "
                            f"'<header>: <name>  # <reason>': {line}")
            continue
        key = (match.group(1), match.group(2))
        if key in allowed:
            problems.append(f"{ALLOWLIST.name}:{number}: duplicate of line "
                            f"{allowed[key]}: {key[0]}: {key[1]}")
        allowed[key] = number
    listed = {(header, name) for header, name, _ in found}
    for header, name, users in found:
        if (header, name) not in allowed:
            problems.append(f"not allowlisted: {header}: {name}  <- "
                            f"{', '.join(users)}")
    for key, number in sorted(allowed.items(), key=lambda item: item[1]):
        if key not in listed:
            problems.append(f"{ALLOWLIST.name}:{number}: stale, {key[0]}: "
                            f"{key[1]} is not a test-only function")
    return problems


def main(argv):
    if argv not in ([], ["--check"]):
        print("usage: python3 tools/test_only_symbols.py [--check]",
              file=sys.stderr)
        return 2
    found = test_only_functions()
    print(f"C++ lines under src/: {src_line_count()}")
    print(f"Public src/ functions used outside their own files only by "
          f"tests/: {len(found)}")
    if not argv:
        for header, name, users in found:
            print(f"  {header}: {name}  <- {', '.join(users)}")
        return 0
    problems = check_allowlist(found)
    for problem in problems:
        print(f"  {problem}")
    if problems:
        print(f"test_only_symbols: {len(problems)} problem(s); delete the "
              f"function, make it internal to its .cpp, or add a reviewed "
              f"line to tools/{ALLOWLIST.name}")
        return 1
    print(f"All {len(found)} are on tools/{ALLOWLIST.name}.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

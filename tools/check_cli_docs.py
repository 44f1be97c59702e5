#!/usr/bin/env python3
"""Lints documented `motto` command lines against the CLI's flag tables.

Every `motto <command> ... --flag` in README.md, DESIGN.md, a file under
examples/, or a tests/*.sh script must name a flag that `motto <command>
--help` lists. Command lines are read from fenced code blocks and inline code
spans in Markdown and from every line of other files; a trailing backslash
continues a line. Scripts may spell the binary "$MOTTO" or "${MOTTO}".

Usage: check_cli_docs.py <motto-binary> [repo-root]
Exit 0 clean, 1 with one line per undeclared flag.
"""
import pathlib
import re
import subprocess
import sys

INVOCATION = re.compile(r'(?:\bmotto|\$\{?MOTTO\}?"?)\s+([a-z][a-z-]*)')
# Shell syntax that ends a command: pipes, lists, redirections, comments.
COMMAND_END = re.compile(r"\s(?:\|\|?|;|&&|\d?>|<|#)")
FLAG = re.compile(r"(?:^|[\s\[(])--([a-z][a-z0-9_-]*)")
SPAN = re.compile(r"`((?:[^`\n]|\n(?![ \t]*\n))+)`")
FENCE = re.compile(r"^[ \t]*```[^\n]*\n(.*?)^[ \t]*```", re.M | re.S)


def run(motto, *args):
    return subprocess.run([motto, *args], capture_output=True, text=True)


def lines_of(text, first=1):
    """(line number, line) pairs with backslash continuations joined."""
    pending, start = "", first
    for number, line in enumerate(text.split("\n"), first):
        start = start if pending else number
        if line.endswith("\\"):
            pending += line[:-1] + " "
        else:
            yield start, pending + line
            pending = ""


def snippets(path):
    """(line number, text) pairs that may hold command lines."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".md":
        yield from lines_of(text)
        return
    for fence in FENCE.finditer(text):
        first = text.count("\n", 0, fence.start(1)) + 1
        yield from lines_of(fence.group(1), first)
    # Blank out fenced blocks (keeping line numbers) before reading spans.
    prose = FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for span in SPAN.finditer(prose):
        yield prose.count("\n", 0, span.start()) + 1, span.group(1)


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    motto = sys.argv[1]
    root = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else
                        pathlib.Path(__file__).resolve().parent.parent)
    usage = re.search(r"usage: motto <([^>]+)>", run(motto).stderr)
    if not usage:
        sys.exit("check_cli_docs: bare `motto` printed no command list")
    commands = set(usage.group(1).split("|"))
    declared = {}
    files = [root / "README.md", root / "DESIGN.md",
             *sorted(p for p in (root / "examples").rglob("*")
                     if p.is_file() and p.suffix not in (".ccl", ".csv")),
             *sorted((root / "tests").glob("*.sh"))]
    problems, uses = [], 0
    for path in files:
        for line, text in snippets(path):
            found = list(INVOCATION.finditer(text))
            for i, invocation in enumerate(found):
                command = invocation.group(1)
                if command not in commands:
                    continue
                end = found[i + 1].start() if i + 1 < len(found) else None
                flags = FLAG.findall(
                    COMMAND_END.split(text[invocation.end():end])[0])
                if command == "verify" and "recovery" in flags:
                    command = "verify --recovery"
                    flags.remove("recovery")
                if command not in declared:
                    listed = run(motto, *command.split(), "--help").stdout
                    declared[command] = set(re.findall(
                        r"^\s+--([a-z][a-z0-9_-]*)", listed, re.M))
                uses += len(flags)
                problems += [
                    f"{path.relative_to(root)}:{line}: motto {command} "
                    f"--{flag} is not in `motto {command} --help`"
                    for flag in flags if flag not in declared[command]]
    print("\n".join(problems + [f"check_cli_docs: {uses} documented flags in "
                                f"{len(declared)} commands, "
                                f"{len(problems)} undeclared"]))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Line ledger: non-test lines per crate, code and docs counted apart.

usage: loc.py

Counts every `src/**/*.rs` of each crate under `crates/` (and the umbrella
package's `src/`). Test code is left out wherever it sits: an item under
`#[cfg(test)]` (a `mod tests { .. }` block, a helper fn, a `use`) and any
`mod tests` block, attribute or not. What remains is split into

  code     lines holding Rust tokens,
  doc      `///` and `//!` lines,
  comment  other `//` lines,
  blank    empty lines,

and `total` is code + doc (the figure a PR's "non-test lines" quotes:
what a reader of the crate's API reads, comments and blanks aside).
Integration tests, benches and examples are not counted.
"""

import glob
import os
import re


def strip_literals(line):
    """The line with string/char literals and a trailing `//` comment
    removed, so that braces inside them do not count."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and line.startswith("//", i):
            break
        if c == '"' or (c == "r" and re.match(r'r#*"', line[i:])):
            if c == "r":
                hashes = re.match(r"r(#*)\"", line[i:]).group(1)
                end = line.find('"' + hashes, i + 2 + len(hashes))
                i = n if end < 0 else end + 1 + len(hashes)
                continue
            i += 1
            while i < n and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            i += 1
            continue
        if c == "'":
            m = re.match(r"'(\\.|[^\\'])'", line[i:])
            if m:
                i += len(m.group(0))
                continue
        out.append(c)
        i += 1
    return "".join(out)


def count_file(path):
    counts = {"code": 0, "doc": 0, "comment": 0, "blank": 0}
    lines = open(path, encoding="utf-8").read().splitlines()
    skip_depth = None  # brace depth of a test item being skipped
    pending = False  # saw `#[cfg(test)]`, the item starts on a later line
    depth = 0
    for line in lines:
        s = line.strip()
        code = strip_literals(line)
        opens, closes = code.count("{"), code.count("}")
        if skip_depth is None and not pending:
            if s == "#[cfg(test)]":
                pending = True
                continue
            if re.match(r"(pub(\(\w+\))? )?mod tests\b", s):
                pending = True
        if pending:
            if s.startswith("#[") or not s:
                continue  # further attributes before the item
            pending = False
            if opens == 0 and code.rstrip().endswith(";"):
                continue  # a one-line item (`use`, `mod x;`, ...)
            skip_depth = depth
        depth += opens - closes
        if skip_depth is not None:
            if depth <= skip_depth and (opens or closes):
                skip_depth = None
            continue
        if not s:
            counts["blank"] += 1
        elif s.startswith("///") or s.startswith("//!"):
            counts["doc"] += 1
        elif s.startswith("//"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def ledger(repo):
    crates = {}
    roots = [("mapro", os.path.join(repo, "src"))] + [
        (os.path.basename(d.rstrip("/")), os.path.join(d, "src"))
        for d in sorted(glob.glob(os.path.join(repo, "crates", "*/")))
    ]
    for name, src in roots:
        files = sorted(glob.glob(os.path.join(src, "**", "*.rs"), recursive=True))
        if not files:
            continue
        total = {"files": len(files), "code": 0, "doc": 0, "comment": 0, "blank": 0}
        for f in files:
            for k, v in count_file(f).items():
                total[k] += v
        total["total"] = total["code"] + total["doc"]
        crates[name] = total
    return crates


def main():
    crates = ledger(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    cols = ["files", "code", "doc", "comment", "blank", "total"]
    print(f"{'crate':<12}" + "".join(f"{c:>9}" for c in cols))
    sums = dict.fromkeys(cols, 0)
    for name, c in crates.items():
        print(f"{name:<12}" + "".join(f"{c[k]:>9}" for k in cols))
        for k in cols:
            sums[k] += c[k]
    print(f"{'all':<12}" + "".join(f"{sums[k]:>9}" for k in cols))


if __name__ == "__main__":
    main()

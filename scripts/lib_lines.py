#!/usr/bin/env python3
"""Print the library-size measure the ROADMAP tracks.

The measure counts the non-blank lines of `crates/*/src/**/*.rs` that are
not `//` comments (doc comments included), up to the first `mod tests {`
line of each file, so in-file unit tests do not count. The `crates/bench`
experiment crate is excluded.

Usage: python3 scripts/lib_lines.py [REPO_ROOT]

Prints one line per crate, then the workspace total.
"""

import pathlib
import sys


def library_lines(path):
    """Counted lines of one source file."""
    count = 0
    with open(path, encoding="utf-8") as source:
        for line in source:
            stripped = line.strip()
            if stripped.startswith("mod tests {"):
                break
            if stripped and not stripped.startswith("//"):
                count += 1
    return count


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    per_crate = {}
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        crate = path.relative_to(root).parts[1]
        if crate == "bench":
            continue
        per_crate[crate] = per_crate.get(crate, 0) + library_lines(path)
    for crate, count in sorted(per_crate.items()):
        print(f"{crate:<12} {count:>6}")
    print(f"{'total':<12} {sum(per_crate.values()):>6}")


if __name__ == "__main__":
    main()

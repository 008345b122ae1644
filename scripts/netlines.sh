#!/usr/bin/env bash
# Counts the non-test Rust lines under crates/ and src/: every line of
# every .rs file (comments and blank lines included), except
#   - files under a tests/ directory,
#   - `#[cfg(test)] mod name { ... }` blocks, attribute line included,
#   - whole files declared as a test module (`#[cfg(test)] mod name;`).
# Prints one line per crate (src/ is the root package), then the total.
# Braces are counted per character, which holds for rustfmt-formatted
# code whose string literals keep their braces balanced.
set -euo pipefail
cd "$(dirname "$0")/.."

files="$(find crates src -name '*.rs' -not -path '*/tests/*' | sort)"

# Module files a `#[cfg(test)] mod name;` declares: name.rs beside a
# lib.rs, main.rs or mod.rs, else under the declaring file's stem.
test_files="$(
    for f in $files; do
        awk -v f="$f" '
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
            pending && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) {
                name = $0
                sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "", name)
                sub(/;.*/, "", name)
                dir = f; sub(/\/[^\/]*$/, "", dir)
                base = f; sub(/^.*\//, "", base)
                if (base == "lib.rs" || base == "main.rs" || base == "mod.rs") {
                    print dir "/" name ".rs"; print dir "/" name "/mod.rs"
                } else {
                    stem = base; sub(/\.rs$/, "", stem)
                    print dir "/" stem "/" name ".rs"
                }
            }
            { pending = 0 }
        ' "$f"
    done
)"

counts="$(
    for f in $files; do
        if grep -qxF "$f" <<<"$test_files"; then
            continue
        fi
        case "$f" in
            crates/*) unit="$(cut -d/ -f2 <<<"$f")" ;;
            *) unit="(root)" ;;
        esac
        awk -v unit="$unit" '
            skipping {
                depth += gsub(/\{/, "{") - gsub(/\}/, "}")
                if (depth <= 0) skipping = 0
                next
            }
            pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[[:space:]]*\{/ {
                pending = 0
                depth = gsub(/\{/, "{") - gsub(/\}/, "}")
                skipping = depth > 0
                next
            }
            # Further attributes between `#[cfg(test)]` and the item.
            pending && /^[[:space:]]*#\[/ { pending++; next }
            pending { count += pending; pending = 0 }
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
            { count++ }
            END { print unit, count + pending }
        ' "$f"
    done
)"
awk '{ lines[$1] += $2 } END { for (u in lines) printf "%-12s %6d\n", u, lines[u] }' <<<"$counts" | sort
awk '{ total += $2 } END { printf "%-12s %6d\n", "total", total }' <<<"$counts"

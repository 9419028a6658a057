#!/usr/bin/env sh
# check_mdrefs.sh asserts that every Markdown file a Go comment cites
# exists: each name ending in .md after a "//" must resolve from the
# repository root or from the citing file's directory. Run from the
# repository root; exits non-zero listing the dangling citations.
set -eu

dangling=$(grep -rnE --include='*.go' '//.*[A-Za-z0-9_-]\.md\b' ./*.go cmd internal examples perfbench |
    while IFS= read -r line; do
        file=${line%%:*}
        rest=${line#*:}
        lineno=${rest%%:*}
        comment=${rest#*//}
        for ref in $(printf '%s\n' "$comment" | grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b'); do
            if [ ! -e "$ref" ] && [ ! -e "$(dirname "$file")/$ref" ]; then
                echo "$file:$lineno: cites $ref, which does not exist"
            fi
        done
    done)

if [ -n "$dangling" ]; then
    echo "$dangling" >&2
    echo "markdown citations: point the comments above at existing documents" >&2
    exit 1
fi
echo "markdown citations: every cited document exists"

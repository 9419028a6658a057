#!/usr/bin/env sh
# check_importers.sh asserts every internal package is imported by some
# other package of the module, counting test imports (a package's own
# external tests do not count): a package nothing imports is dead code and
# should be deleted, not carried. Run from the repository root; exits
# non-zero listing the orphans.
set -eu

listing=$(go list -f '{{.ImportPath}} {{.Imports}} {{.TestImports}} {{.XTestImports}}' ./...)
orphans=$(printf '%s\n' "$listing" | tr -d '[]' | awk '
    { pkg[NR] = $1; for (i = 2; i <= NF; i++) if ($i != $1) used[$i] = 1 }
    END { for (n = 1; n <= NR; n++) if (pkg[n] ~ /\/internal\// && !(pkg[n] in used)) print pkg[n] }')

if [ -n "$orphans" ]; then
    echo "packages without an importer:" >&2
    echo "$orphans" >&2
    echo "importer audit failed: delete the packages above or import them" >&2
    exit 1
fi
echo "importers: every internal package has an importer"

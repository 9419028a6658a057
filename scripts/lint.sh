#!/usr/bin/env sh
# lint.sh is the single lint entry point, run identically by developers and
# by the CI lint job — so the two can never drift. It runs, in order:
#
#   1. gofmt        (formatting, the nested perfbench module included;
#                    vendor/ excluded)
#   2. go vet       (stock analyzers)
#   3. rrclint      (the repo's determinism analyzers, via go vet -vettool;
#                    see internal/analysis and docs/architecture.md)
#   4. pkgdoc       (scripts/check_pkgdoc.sh: every internal package documented)
#   5. importers    (scripts/check_importers.sh: every internal package imported)
#   6. md citations (scripts/check_mdrefs.sh: every *.md a Go comment cites exists)
#   7. staticcheck  (pinned)
#   8. govulncheck  (pinned)
#
# Steps 7 and 8 need the network (or a pre-installed binary) to fetch the
# pinned tool. CI exports RRC_LINT_STRICT=1, which makes their absence a
# failure; locally, an offline machine without the binaries skips them
# with a warning so the deterministic gates (1-6) still run everywhere.
set -eu
cd "$(dirname "$0")/.."

STATICCHECK_VERSION="${STATICCHECK_VERSION:-2024.1.1}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-v1.1.3}"
strict="${RRC_LINT_STRICT:-0}"

fail=0

echo "==> gofmt"
unformatted=$(gofmt -l ./*.go cmd internal examples perfbench)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

echo "==> go vet"
go vet ./... || fail=1

echo "==> rrclint (determinism analyzers)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/rrclint" ./cmd/rrclint
go vet -vettool="$tmpdir/rrclint" ./... || fail=1

echo "==> package comments"
sh scripts/check_pkgdoc.sh || fail=1

echo "==> importers"
sh scripts/check_importers.sh || fail=1

echo "==> markdown citations"
sh scripts/check_mdrefs.sh || fail=1

# run_pinned NAME MODULE@VERSION ARGS... — uses an installed binary when
# present (assumed compatible), otherwise `go run module@version` (exact
# pin, needs the network once). Without either, the step is skipped with a
# warning unless strict mode makes that a failure.
run_pinned() {
    name=$1; mod=$2; shift 2
    echo "==> $name"
    if command -v "$name" >/dev/null 2>&1; then
        "$name" "$@" || fail=1
    elif [ "$strict" = "1" ]; then
        go run "$mod" "$@" || fail=1
    else
        echo "warning: $name not installed; skipped (CI enforces it; 'go install $mod' to run locally)" >&2
    fi
}

run_pinned staticcheck "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
run_pinned govulncheck "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION" ./...

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED" >&2
    exit 1
fi
echo "lint: all checks passed"

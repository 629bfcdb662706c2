#!/bin/sh
# docscheck.sh — godoc gate for the concurrency-bearing packages.
#
# The packages that touch goroutines (or are touched BY goroutines in the
# partitioned mode) must each carry a package comment with an explicit
# "# Concurrency contract" section stating who owns what — that contract
# is API, and this gate keeps it from silently rotting out of a doc
# comment during a refactor. Runs alongside linkcheck.sh in CI.
#
# Checks, per package in PKGS:
#   1. `go vet` is clean (malformed doc comments, printf mistakes, etc.).
#   2. Exactly one file declares the package comment (`// Package <name>`).
#   3. That comment contains a `# Concurrency contract` godoc heading.
#
# Usage: scripts/docscheck.sh   (from the repo root)

set -eu

PKGS="eventq noc parallel pdes"

fail=0

go vet $(for p in $PKGS; do printf './internal/%s ' "$p"; done) || fail=1

for p in $PKGS; do
  # The package comment lives in the comment block immediately above a
  # `package` clause; find the file that has it.
  docfile=$(grep -l "^// Package $p " "internal/$p"/*.go || true)
  n=$(printf '%s\n' "$docfile" | grep -c . || true)
  if [ "$n" -eq 0 ]; then
    echo "docscheck: internal/$p has no package comment (// Package $p ...)" >&2
    fail=1
    continue
  fi
  if [ "$n" -gt 1 ]; then
    echo "docscheck: internal/$p declares its package comment in $n files:" >&2
    printf '%s\n' "$docfile" >&2
    fail=1
    continue
  fi
  if ! grep -q '^// # Concurrency contract$' "$docfile"; then
    echo "docscheck: $docfile: package comment lacks a '# Concurrency contract' section" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docscheck: FAILED" >&2
  exit 1
fi
echo "docscheck: ok ($(echo $PKGS | wc -w | tr -d ' ') packages)"

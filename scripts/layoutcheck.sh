#!/usr/bin/env bash
# layoutcheck.sh BASE — compare the text layout of the benchmark binary
# built at the commit BASE with the one built from the working tree.
#
# The benchmark's heal-after-loss setup_s moves by about 1.3x when
# math/rand.read changes address, even with no change on its path
# (ROADMAP item 19). A change that adds or drops a standard-library or
# compiler-generated text symbol laid out ahead of math/rand moves it. So
# this script builds ./benchmark twice, the way benchmark/run.sh does,
# prints the text symbols outside the module (names neither in a repro/
# package nor in package main) that only one build has, and both
# addresses of math/rand.read. It exits 1 if the symbol sets or the
# addresses differ, 2 on a usage or build error.
#
# Usage, from anywhere inside the repository:
#
#	scripts/layoutcheck.sh HEAD~1
#	scripts/layoutcheck.sh "$(git merge-base origin/main HEAD)"
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
base=$1
root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "layoutcheck: $base is not a commit" >&2
	exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$tmp/base" && go build -o "$tmp/benchmark.base" ./benchmark) || exit 2
(cd "$root" && go build -o "$tmp/benchmark.head" ./benchmark) || exit 2

# symbols FILE: the sorted "address name" lines of FILE's text symbols.
symbols() {
	go tool nm "$1" | awk '$2 == "T" || $2 == "t" { print $1, $3 }' | sort -k2
}
symbols "$tmp/benchmark.base" >"$tmp/base.syms"
symbols "$tmp/benchmark.head" >"$tmp/head.syms"

# outside FILE: the names of FILE's symbols outside the module.
outside() {
	awk '$2 !~ /repro\// && $2 !~ /^main\./ { print $2 }' "$1" | sort -u
}
outside "$tmp/base.syms" >"$tmp/base.names"
outside "$tmp/head.syms" >"$tmp/head.names"

randread() { awk '$2 == "math/rand.read" { print "0x" $1 }' "$1"; }
base_addr=$(randread "$tmp/base.syms")
head_addr=$(randread "$tmp/head.syms")

status=0
only_base=$(comm -23 "$tmp/base.names" "$tmp/head.names")
only_head=$(comm -13 "$tmp/base.names" "$tmp/head.names")
if [ -n "$only_base" ] || [ -n "$only_head" ]; then
	echo "layoutcheck: FAIL: text symbols outside repro/ differ from $base:"
	[ -z "$only_base" ] || sed 's/^/- /' <<<"$only_base"
	[ -z "$only_head" ] || sed 's/^/+ /' <<<"$only_head"
	status=1
else
	echo "layoutcheck: same $(wc -l <"$tmp/head.names") text symbols outside repro/ as $base"
fi
echo "layoutcheck: math/rand.read at ${base_addr:-missing} ($base), ${head_addr:-missing} (working tree)"
if [ -z "$base_addr" ] || [ "$base_addr" != "$head_addr" ]; then
	echo "layoutcheck: FAIL: math/rand.read moved"
	status=1
fi
exit $status

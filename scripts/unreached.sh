#!/usr/bin/env bash
# unreached.sh — list the module's functions that no program links.
#
# Builds every main package (cmd/*, examples/*, benchmark) and every
# library package to an archive, all with -gcflags=all=-l so inlining
# hides no call, then prints the module's text symbols (repro.* and
# repro/...) that some archive defines and no binary holds. A package
# none of whose symbols is linked prints as one line. Closures (.funcN,
# .deferwrapN) are skipped, and so is a pointer wrapper (*T).M when the
# value method T.M is linked.
#
# It reports and does not gate: the list mixes dead code with oracles,
# test support and code kept for an open item (ROADMAP item 8 says which
# is which). It exits 0 unless a build fails (2).
#
# Usage, from anywhere inside the repository:
#
#	scripts/unreached.sh
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/lib"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
while read -r name pkg; do
	out=${pkg//\//_}
	if [ "$name" = main ]; then
		go build -gcflags=all=-l -o "$tmp/bin/$out" "$pkg" || exit 2
	else
		go build -gcflags=all=-l -o "$tmp/lib/$out.a" "$pkg" || exit 2
	fi
done < <(go list -f '{{.Name}} {{.ImportPath}}' ./...)

# texts DIR: the module's text symbols in every file of DIR, sorted. A
# binary names an assembly function NAME.abi0; the suffix is dropped.
texts() {
	for f in "$1"/*; do
		go tool nm "$f" | awk '($(NF-1) == "T" || $(NF-1) == "t") && $NF ~ /^repro[.\/]/ { sub(/\.abi0$/, "", $NF); print $NF }'
	done | sort -u
}
texts "$tmp/bin" >"$tmp/linked"
texts "$tmp/lib" >"$tmp/defined"

comm -23 "$tmp/defined" "$tmp/linked" | awk -v linked="$tmp/linked" '
	BEGIN { while ((getline s < linked) > 0) { have[s] = 1; pkg = s; sub(/\.[^\/]*$/, "", pkg); used[pkg] = 1 } }
	/\.func[0-9]|\.deferwrap[0-9]/ { next }
	{
		pkg = $0; sub(/\.[^\/]*$/, "", pkg)
		if (!(pkg in used)) { whole[pkg]++; next }
		value = $0; sub(/\(\*/, "", value); sub(/\)\./, ".", value)
		if (value != $0 && (value in have)) next
		print
	}
	END { for (p in whole) printf "%s: no binary links this package (%d symbols)\n", p, whole[p] }
' | sort

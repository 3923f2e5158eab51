#!/usr/bin/env bash
# Fails when a `go test -run` pattern in the CI workflow selects nothing.
# Each alternative of a pattern (split on "|"; a pattern with a group is
# checked whole) is listed with `go test -list` over the packages of its
# command, and one that matches no test, example or fuzz target is
# reported: a renamed or deleted test must not drop out of a CI step
# silently.
#
# Usage: bash .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
fail=0
# Join backslash-continued lines, keep the go test commands that pass -run.
while IFS= read -r cmd; do
	pat=$(sed -nE "s/.*-run[ =]('([^']*)'|([^ ']+)).*/\2\3/p" <<<"$cmd")
	if [ -z "$pat" ] || [ "$pat" = '^$' ]; then
		continue
	fi
	read -ra pkgs <<<"$(grep -oE '\./[^ ]*' <<<"$cmd" | tr '\n' ' ')"
	alts=("$pat")
	if [[ $pat != *"("* ]]; then
		IFS='|' read -ra alts <<<"$pat"
	fi
	for alt in "${alts[@]}"; do
		listed=$(go test -list "$alt" "${pkgs[@]}")
		if ! grep -qE '^(Test|Example|Fuzz)' <<<"$listed"; then
			echo "-run '$pat': '$alt' matches no test in ${pkgs[*]}"
			fail=1
		fi
	done
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$wf" | grep -E 'go test .*-run')
exit $fail

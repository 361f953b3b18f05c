#!/usr/bin/env bash
# Builds the survey benchmark from source and runs it with the given
# arguments (see main.go for the flags). Run from the repository root:
#
#	bash surveybench/run.sh --workload survey --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (binary, Go build
# cache, fold-engine spill files, trace files) stays under
# .bench_build/ in the working directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build/surveybench"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config"

export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export XDG_CONFIG_HOME="${out}/config"
export TMPDIR="${out}/tmp"

go -C "${root}/surveybench" build -o "${out}/surveybench" . >&2
exec "${out}/surveybench" "$@"
